//! Spans recorded around each call the benchmark makes into a layer.
//!
//! The program is not instrumented: every span is opened and closed
//! here, around a public call into one crate. Spans are kept in memory
//! and written out when the run ends. A layer's self time is its spans'
//! durations minus the parts covered by child spans.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use eca_wire::{Message, Readiness, Role, TransferMeter, Transport, TransportError};

/// One instrumented call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Source::execute_update`.
    SourceExecute,
    /// `Source::answer`.
    SourceAnswer,
    /// `Transport::send` of a maintenance message (the in-memory
    /// channel encodes inside `send`).
    WireSend,
    /// `Transport::try_recv` that returned a maintenance message (the
    /// in-memory channel decodes inside `try_recv`).
    WireRecv,
    /// `Transport::try_recv` that found the channel empty.
    WirePoll,
    /// `Warehouse::on_message` with an update notification.
    WarehouseUpdate,
    /// `Warehouse::on_message` with a query answer.
    WarehouseAnswer,
    /// `Warehouse::new` and `add_view` of a crashed deployment.
    WarehouseRebuild,
    /// `ReadServer::respond`.
    ServeRespond,
    /// `Transport::send` on a read channel.
    ReadSend,
    /// `Transport::try_recv` on a read channel.
    ReadRecv,
    /// `Warehouse::recover_durability`.
    DurableRecover,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 12] = [
        Op::SourceExecute,
        Op::SourceAnswer,
        Op::WireSend,
        Op::WireRecv,
        Op::WirePoll,
        Op::WarehouseUpdate,
        Op::WarehouseAnswer,
        Op::WarehouseRebuild,
        Op::ServeRespond,
        Op::ReadSend,
        Op::ReadRecv,
        Op::DurableRecover,
    ];

    /// The crate the call goes into.
    pub fn layer(self) -> &'static str {
        match self {
            Op::SourceExecute | Op::SourceAnswer => "source",
            Op::WireSend | Op::WireRecv | Op::WirePoll | Op::ReadSend | Op::ReadRecv => "wire",
            Op::WarehouseUpdate | Op::WarehouseAnswer | Op::WarehouseRebuild => "warehouse",
            Op::ServeRespond => "serve",
            Op::DurableRecover => "durable",
        }
    }

    /// The call's name in the span file and the self-time table.
    pub fn name(self) -> &'static str {
        match self {
            Op::SourceExecute => "source.execute",
            Op::SourceAnswer => "source.answer",
            Op::WireSend => "wire.send",
            Op::WireRecv => "wire.recv",
            Op::WirePoll => "wire.poll",
            Op::WarehouseUpdate => "warehouse.on_update",
            Op::WarehouseAnswer => "warehouse.on_answer",
            Op::WarehouseRebuild => "warehouse.rebuild",
            Op::ServeRespond => "serve.respond",
            Op::ReadSend => "wire.read_send",
            Op::ReadRecv => "wire.read_recv",
            Op::DurableRecover => "durable.recover",
        }
    }

    fn index(self) -> usize {
        Op::ALL.iter().position(|&o| o == self).expect("listed")
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    op: Op,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// An open span (or none, while tracing is off).
pub struct Open(Option<u32>);

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Open a span for `op` (a no-op while tracing is off).
pub fn open(op: Op) -> Open {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Open(None);
        }
        let idx = t.spans.len() as u32;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        t.stack.push(idx);
        Open(Some(idx))
    })
}

/// Close a span, optionally naming it after the fact (a receive that
/// found nothing is a poll).
pub fn close_as(open: Open, op: Option<Op>) {
    let Some(idx) = open.0 else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.origin.elapsed().as_nanos() as u64;
        let span = &mut t.spans[idx as usize];
        span.end_ns = end_ns;
        if let Some(op) = op {
            span.op = op;
        }
        t.stack.pop();
    });
}

/// Run `f` inside a span for `op`.
pub fn span<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let open = open(op);
    let out = f();
    close_as(open, None);
    out
}

/// Self time and call count per op over one set of spans.
#[derive(Clone, Debug, Default)]
pub struct SelfTimes {
    /// Nanoseconds of self time, indexed like [`Op::ALL`].
    self_ns: [u64; 12],
    /// Calls, indexed like [`Op::ALL`].
    calls: [u64; 12],
}

impl SelfTimes {
    /// Self nanoseconds of one op.
    pub fn ns(&self, op: Op) -> u64 {
        self.self_ns[op.index()]
    }

    /// Calls of one op.
    pub fn count(&self, op: Op) -> u64 {
        self.calls[op.index()]
    }

    /// Mean self time of one op per call, in microseconds (0 when the op
    /// was never called).
    pub fn mean_us(&self, op: Op) -> f64 {
        let n = self.count(op);
        if n == 0 {
            0.0
        } else {
            self.ns(op) as f64 / n as f64 / 1e3
        }
    }

    /// Total self time of a layer, in nanoseconds.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        Op::ALL
            .iter()
            .filter(|o| o.layer() == layer)
            .map(|&o| self.ns(o))
            .sum()
    }

    /// Total self time of every span.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// The spans recorded since the last call, with their self times; the
/// buffer is emptied so the next phase starts clean.
pub fn take(phase: &'static str) -> PhaseTrace {
    let spans = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        std::mem::take(&mut t.spans)
    });
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut times = SelfTimes::default();
    for (s, child) in spans.iter().zip(&child_ns) {
        let i = s.op.index();
        times.self_ns[i] += (s.end_ns - s.start_ns).saturating_sub(*child);
        times.calls[i] += 1;
    }
    PhaseTrace {
        phase,
        spans,
        times,
    }
}

/// The spans of one phase of a run.
pub struct PhaseTrace {
    /// The phase the spans belong to.
    pub phase: &'static str,
    spans: Vec<Span>,
    /// Self times over the phase's spans.
    pub times: SelfTimes,
}

/// Write every span of every phase as tab-separated lines: phase, span
/// index, parent index (`-` for none), op, start and end in nanoseconds
/// since the run began.
pub fn write_spans(path: &Path, phases: &[&PhaseTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "phase\tspan\tparent\top\tstart_ns\tend_ns")?;
    for p in phases {
        for (i, s) in p.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                p.phase,
                s.op.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

/// A transport whose sends and receives are recorded as spans.
pub struct Traced<T> {
    inner: T,
    send: Op,
    recv: Op,
}

impl<T> Traced<T> {
    /// Wrap `inner`, naming its sends `send` and its receives `recv`.
    pub fn new(inner: T, send: Op, recv: Op) -> Traced<T> {
        Traced { inner, send, recv }
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn role(&self) -> Role {
        self.inner.role()
    }

    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        span(self.send, || self.inner.send(msg))
    }

    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        let open = open(self.recv);
        let got = self.inner.try_recv();
        let empty = matches!(got, Ok(None)) && self.recv == Op::WireRecv;
        close_as(open, empty.then_some(Op::WirePoll));
        got
    }

    fn recv(&mut self) -> Result<Option<Message>, TransportError> {
        self.try_recv()
    }

    fn has_inbound(&mut self) -> bool {
        self.inner.has_inbound()
    }

    fn poll(&mut self) -> Result<Readiness, TransportError> {
        self.inner.poll()
    }

    fn meter(&self) -> &TransferMeter {
        self.inner.meter()
    }
}
