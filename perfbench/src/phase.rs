//! One phase of a run: closed-loop rounds over a deployment.
//!
//! A round executes a burst of updates at every source before any query
//! is answered, so compensation is always in flight, then drains every
//! channel to quiescence. Reads are served between warehouse events,
//! and a crash drops the warehouse between two events. Maintenance work
//! runs on its own clock, paused while reads are served and while the
//! benchmark checks outputs, so `updates_per_s` and freshness measure
//! maintenance, and reads are timed on their own.

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use eca_relational::Update;
use eca_serve::{ReadClient, ReadOutcome, ReadServer, ServeError};
use eca_warehouse::{RecoveryOutcome, ViewId};
use eca_wire::{InMemoryFifo, Message, ReadLevel, TransferMeter, Transport};

use crate::deploy::{
    channel, durability_config, empty_warehouse, to_update, Deployment, End, RING_CAP,
};
use crate::reference::Rng;
use crate::trace::{self, Op, Traced};

/// Notifications kept per source for re-sending after a crash; the
/// durable watermark trails the live stream by less than two checkpoint
/// intervals.
const HISTORY: usize = 4096;
/// Failure descriptions kept per phase.
const ERRORS_KEPT: usize = 5;

/// A clock that runs only while started.
#[derive(Default)]
struct Clock {
    acc: Duration,
    since: Option<Instant>,
}

impl Clock {
    fn start(&mut self) {
        if self.since.is_none() {
            self.since = Some(Instant::now());
        }
    }

    fn stop(&mut self) {
        if let Some(t) = self.since.take() {
            self.acc += t.elapsed();
        }
    }

    fn ms(&self) -> f64 {
        let running = self.since.map_or(Duration::ZERO, |t| t.elapsed());
        (self.acc + running).as_secs_f64() * 1e3
    }
}

/// When a phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After the round in which this much wall time has passed.
    Time(Duration),
    /// After this many rounds.
    Rounds(u64),
}

/// Which rounds record spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tracing {
    /// None.
    Off,
    /// Every other round, so traced and untraced rounds interleave and
    /// their comparison gives the tracing overhead.
    Alternate,
    /// Every round.
    All,
}

/// What a phase does.
#[derive(Clone, Copy, Debug)]
pub struct PhaseOpts {
    /// Reads served per round (turns serving on if it is off).
    pub reads_per_round: usize,
    /// A crash every this many rounds (turns durability on if it is
    /// off; 0: no crash).
    pub crash_every: u64,
    /// When the phase ends.
    pub stop: Stop,
    /// Compare every view with the reference every this many rounds
    /// (and after every crash and at the end).
    pub check_every: u64,
    /// Span recording.
    pub tracing: Tracing,
    /// RNG stream for read and crash placement.
    pub stream: u64,
    /// Place in the crash-point sweep of the phase's first crash, so the
    /// processes of a measured run can share one sweep out.
    pub first_crash: u64,
}

/// Read levels in the order a round's rotation starts from.
const LEVELS: [ReadLevel; 3] = [ReadLevel::Strong, ReadLevel::Weak, ReadLevel::Convergent];

fn level_index(level: ReadLevel) -> usize {
    LEVELS.iter().position(|&l| l == level).expect("listed")
}

/// What one phase measured.
#[derive(Default, Debug)]
pub struct PhaseStats {
    /// Rounds run.
    pub rounds: u64,
    /// Effective updates executed.
    pub updates: u64,
    /// Reads attempted.
    pub reads: u64,
    /// Crashes (each followed by a recovery).
    pub crashes: u64,
    /// Failed operations and checks.
    pub failed: u64,
    /// The first few failures.
    pub errors: Vec<String>,
    /// Updates and maintenance seconds in traced rounds.
    pub traced: (u64, f64),
    /// Updates and maintenance seconds in untraced rounds.
    pub untraced: (u64, f64),
    /// Read service seconds in traced rounds.
    pub traced_read_s: f64,
    /// Execute-to-visible times, ms.
    pub freshness_ms: Vec<f64>,
    /// Read service times, ms.
    pub read_ms: Vec<f64>,
    /// Crash-to-quiescent times, ms.
    pub recovery_ms: Vec<f64>,
    /// Recovery return to quiescence, ms per crash.
    pub catchup_ms: Vec<f64>,
    /// WAL records replayed, summed over crashes.
    pub replayed: u64,
    /// Notifications re-sent past the durable watermark, summed.
    pub tail: u64,
    /// Channels recovered incrementally.
    pub incremental: u64,
    /// Channels recovered at all.
    pub recovered: u64,
    /// Maintenance messages, both directions.
    pub msgs: u64,
    /// Maintenance bytes, both directions.
    pub wire_bytes: u64,
    /// Answer payload bytes (the paper's `B`).
    pub answer_bytes: u64,
    /// Source block reads (the paper's `IO`).
    pub blocks: u64,
    /// Queries answered at sources.
    pub answers: u64,
    /// Queries sent by the warehouse.
    pub queries: u64,
    /// Terms over those queries.
    pub terms: u64,
    /// Bytes the process wrote (`wchar`), when durability was on.
    pub disk_bytes: Option<u64>,
    /// `Session::pending` after each traced event.
    pub pending: Vec<u64>,
    /// `latest − epoch` per read, by level (strong, weak, convergent).
    pub staleness: [Vec<u64>; 3],
    /// Rows per read answer.
    pub read_rows: Vec<u64>,
    /// WAL generations cut during the phase.
    pub checkpoints: u64,
    /// Checkpoint file sizes at the end, bytes.
    pub checkpoint_bytes: Vec<u64>,
    /// Mean rows per view at the end.
    pub view_rows: f64,
    /// One entry per round, in order.
    pub round_log: Vec<RoundLog>,
}

/// What one round contributed.
#[derive(Clone, Copy, Debug)]
pub struct RoundLog {
    /// Updates executed.
    pub updates: u64,
    /// Maintenance clock spent, ms.
    pub maint_ms: f64,
    /// `freshness_ms.len()` at the end of the round.
    pub fresh_end: usize,
}

/// Parts a timed phase is split into for its time metrics.
const PARTS: usize = 8;

impl PhaseStats {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(what);
        }
    }

    /// The phase's rounds split into [`PARTS`] consecutive parts of
    /// whole crash cycles (`cycle` rounds), as index ranges; the
    /// remainder joins the last part. Fewer parts when there are fewer
    /// cycles.
    fn parts(&self, cycle: u64) -> Vec<Range<usize>> {
        let cycle = cycle.max(1) as usize;
        let cycles = self.round_log.len() / cycle;
        let per_part = (cycles / PARTS).max(1) * cycle;
        let mut out: Vec<Range<usize>> = (0..self.round_log.len() / per_part)
            .take(PARTS)
            .map(|i| i * per_part..(i + 1) * per_part)
            .collect();
        match out.last_mut() {
            Some(last) => last.end = self.round_log.len(),
            None if !self.round_log.is_empty() => out.push(0..self.round_log.len()),
            None => {}
        }
        out
    }

    /// Updates per second of maintenance clock in each part of the
    /// phase; the median over parts, so a slow spell on a shared host
    /// moves one part, not the figure.
    pub fn updates_per_s(&self, cycle: u64) -> f64 {
        let rates: Vec<f64> = self
            .parts(cycle)
            .into_iter()
            .map(|p| {
                let rounds = &self.round_log[p];
                let n: u64 = rounds.iter().map(|r| r.updates).sum();
                let ms: f64 = rounds.iter().map(|r| r.maint_ms).sum();
                n as f64 / ms * 1e3
            })
            .collect();
        median(&rates)
    }

    /// Freshness quantile `q` in each part of the phase; the median over
    /// parts.
    pub fn freshness(&self, cycle: u64, q: f64) -> f64 {
        let log = &self.round_log;
        let per_part: Vec<f64> = self
            .parts(cycle)
            .into_iter()
            .map(|p| {
                let begin = if p.start == 0 {
                    0
                } else {
                    log[p.start - 1].fresh_end
                };
                quantile(&self.freshness_ms[begin..log[p.end - 1].fresh_end], q)
            })
            .collect();
        median(&per_part)
    }
}

/// Linear-interpolated quantile of `values` (`q` in `0..=1`); 0 for no
/// values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A step near `m / φ` that is coprime to `m`, so stepping by it visits
/// every residue of `m` and consecutive steps land far apart.
fn sweep_stride(m: u64) -> u64 {
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut step = ((m as f64) * 0.618).round().max(1.0) as u64;
    while gcd(step, m) != 1 {
        step += 1;
    }
    step
}

/// Median of `values`; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The read side: one client with one in-memory channel to a
/// `ReadServer`, plus what is needed to check every answer.
struct ReadSide {
    client: ReadClient<End>,
    server_end: End,
    server: ReadServer,
    /// Per view: `(first epoch, n)` — epochs from `first epoch` on
    /// show the view as of the source's first `n` updates, until the
    /// next entry.
    boundaries: Vec<Vec<(u64, u64)>>,
    last_n: Vec<u64>,
    /// Highest epoch seen per (view, level), for weak and strong.
    last_epoch: HashMap<(u64, usize), u64>,
    next_view: usize,
    /// Answers of this round, compared with the reference at its end.
    unchecked: Vec<ReadOutcome>,
}

struct Runner<'a> {
    dep: &'a mut Deployment,
    opts: PhaseOpts,
    stats: PhaseStats,
    maint: Clock,
    rng: Rng,
    read: Option<ReadSide>,
    latest_before: u64,
    traced: bool,
    /// Seeded start of the crash-point sweep.
    crash_offset: u64,
    /// Maintenance clock at the crash and at recovery return, while a
    /// recovery is catching up.
    recovering: Option<(f64, f64)>,
}

/// Bytes written by this process so far (`wchar`).
pub fn wchar() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
}

/// `(generations cut, checkpoint file sizes)` in a durability directory.
fn durable_files(dir: &Path) -> (u64, Vec<u64>) {
    let mut gens = 0;
    let mut sizes = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(g) = name
            .strip_suffix(".wal")
            .and_then(|n| n.rsplit_once(".g"))
            .and_then(|(_, g)| g.parse::<u64>().ok())
        {
            gens += g;
        } else if name.ends_with(".ckpt") {
            sizes.extend(entry.metadata().ok().map(|m| m.len()));
        }
    }
    (gens, sizes)
}

fn channel_totals(dep: &Deployment) -> (u64, u64, u64) {
    dep.sites.iter().fold((0, 0, 0), |(m, b, a), s| {
        (
            m + s.meter.messages_s2w() + s.meter.messages_w2s(),
            b + s.meter.bytes_s2w() + s.meter.bytes_w2s(),
            a + s.meter.answer_bytes(),
        )
    })
}

/// Run one phase on `dep`.
pub fn run(dep: &mut Deployment, opts: PhaseOpts, seed: u64, wal_dir: &Path) -> PhaseStats {
    let mut stats = PhaseStats::default();
    if opts.crash_every > 0 && dep.durability.is_none() {
        let config = durability_config(wal_dir.to_path_buf());
        if let Err(e) = dep.warehouse.enable_durability(config.clone()) {
            stats.fail(format!("enable_durability: {e}"));
            return stats;
        }
        dep.durability = Some(config);
        // The durable lineage starts here; so does the history a
        // recovery may ask to have re-sent.
        for site in &mut dep.sites {
            site.sent.clear();
            site.sent_base = site.executed;
        }
    }
    if opts.reads_per_round > 0 && dep.registry.is_none() {
        dep.registry = Some(dep.warehouse.enable_serving(RING_CAP));
    }
    let read = dep
        .registry
        .as_ref()
        .filter(|_| opts.reads_per_round > 0)
        .map(|registry| {
            let (client_end, server_end) = InMemoryFifo::pair(TransferMeter::new());
            let views = dep.spec.view_count();
            ReadSide {
                client: ReadClient::new(Traced::new(client_end, Op::ReadSend, Op::ReadRecv)),
                server_end: Traced::new(server_end, Op::ReadSend, Op::ReadRecv),
                server: ReadServer::new(registry.clone()),
                boundaries: (0..views)
                    .map(|g| vec![(0, dep.sites[g / dep.spec.sels.len()].processed)])
                    .collect(),
                last_n: (0..views)
                    .map(|g| dep.sites[g / dep.spec.sels.len()].processed)
                    .collect(),
                last_epoch: HashMap::new(),
                next_view: 0,
                unchecked: Vec::new(),
            }
        });
    for site in &mut dep.sites {
        site.reference.keep_deltas(read.is_some());
    }
    let durable_dir = dep.durability.as_ref().map(|c| c.dir.clone());
    let gens_before = durable_dir.as_deref().map_or(0, |d| durable_files(d).0);
    let disk_before = durable_dir.as_ref().and_then(|_| wchar());
    let (msgs0, bytes0, answer0) = channel_totals(dep);

    let mut runner = Runner {
        dep,
        opts,
        stats,
        maint: Clock::default(),
        rng: Rng::new(seed, opts.stream),
        crash_offset: Rng::new(seed, opts.stream + 1000).below(1 << 16),
        read,
        latest_before: 0,
        traced: false,
        recovering: None,
    };
    let started = Instant::now();
    loop {
        let done = match opts.stop {
            Stop::Time(d) => runner.stats.rounds > 0 && started.elapsed() >= d,
            Stop::Rounds(n) => runner.stats.rounds >= n,
        };
        if done {
            break;
        }
        runner.traced = match opts.tracing {
            Tracing::Off => false,
            Tracing::All => true,
            // Whole crash cycles alternate, so traced and untraced
            // rounds hold the same share of crashes.
            Tracing::Alternate => (runner.stats.rounds / opts.crash_every.max(1)) % 2 == 1,
        };
        trace::set_enabled(runner.traced);
        let result = runner.round();
        trace::set_enabled(false);
        runner.stats.rounds += 1;
        if let Err(e) = result {
            runner.stats.fail(e);
            break;
        }
    }
    runner.finish();
    let Runner { dep, mut stats, .. } = runner;
    let (msgs1, bytes1, answer1) = channel_totals(dep);
    stats.msgs = msgs1 - msgs0;
    stats.wire_bytes = bytes1 - bytes0;
    stats.answer_bytes = answer1 - answer0;
    if let Some(dir) = &durable_dir {
        let (gens, sizes) = durable_files(dir);
        stats.checkpoints = gens.saturating_sub(gens_before);
        stats.checkpoint_bytes = sizes;
        stats.disk_bytes = disk_before.zip(wchar()).map(|(a, b)| b - a);
    }
    stats
}

impl Runner<'_> {
    fn views_per_source(&self) -> usize {
        self.dep.spec.sels.len()
    }

    fn round(&mut self) -> Result<(), String> {
        let spec = self.dep.spec;
        let events = spec.events_per_round();
        // Crash points stride through the round's event positions from a
        // seeded start, by a step coprime to their number, so any run of
        // crashes is spread evenly over the burst.
        let crash_at = (self.opts.crash_every > 0
            && self.stats.rounds % self.opts.crash_every == self.opts.crash_every - 1)
            .then(|| {
                let positions = events - 1;
                let k = self.opts.first_crash + self.stats.crashes;
                1 + (self.crash_offset + k * sweep_stride(positions)) % positions
            });
        let reads = self.plan_reads(events);
        let before: Vec<(u64, u64)> = self
            .dep
            .sites
            .iter()
            .map(|s| (s.meter.messages_w2s(), s.meter.messages_s2w()))
            .collect();
        let applied_before: Vec<u64> = self
            .dep
            .sites
            .iter()
            .map(|s| s.reference.applied())
            .collect();
        let maint_before = self.maint.ms();

        let changes: Vec<Vec<_>> = self
            .dep
            .sites
            .iter_mut()
            .map(|s| (0..spec.burst).map(|_| s.churn.next_change()).collect())
            .collect();
        let updates: Vec<Vec<Update>> = changes
            .iter()
            .map(|cs| cs.iter().map(|&c| to_update(c)).collect())
            .collect();

        self.maint.start();
        for (site, burst) in self.dep.sites.iter_mut().zip(&updates) {
            for update in burst {
                if !trace::span(Op::SourceExecute, || site.source.execute_update(update)) {
                    return Err(format!("ineffective update {update:?}"));
                }
                site.stamps.push_back((site.executed, self.maint.ms()));
                site.executed += 1;
                site.src_end
                    .send(&Message::UpdateNotification {
                        update: update.clone(),
                    })
                    .map_err(|e| format!("send notification: {e}"))?;
            }
        }
        self.maint.stop();
        self.stats.updates += (spec.burst * spec.sources) as u64;

        let durable = self.dep.durability.is_some();
        for ((site, cs), us) in self.dep.sites.iter_mut().zip(&changes).zip(updates) {
            for &c in cs {
                if !site.reference.apply(c) {
                    return Err(format!("reference rejected {c:?}"));
                }
            }
            if durable {
                site.sent.extend(us);
                while site.sent.len() > HISTORY {
                    site.sent.pop_front();
                    site.sent_base += 1;
                }
            }
        }

        self.maint.start();
        let drained = self.drain(crash_at, &reads);
        self.maint.stop();
        drained?;

        let maint_ms = self.maint.ms() - maint_before;
        let n = (spec.burst * spec.sources) as u64;
        let bucket = if self.traced {
            &mut self.stats.traced
        } else {
            &mut self.stats.untraced
        };
        bucket.0 += n;
        bucket.1 += maint_ms / 1e3;

        self.check_round(crash_at.is_some(), &before, &applied_before);
        self.stats.round_log.push(RoundLog {
            updates: n,
            maint_ms,
            fresh_end: self.stats.freshness_ms.len(),
        });
        Ok(())
    }

    /// `reads_per_round` distinct event positions in `1..=events`, each
    /// with a level; levels rotate from a seeded start.
    fn plan_reads(&mut self, events: u64) -> Vec<(u64, ReadLevel)> {
        let k = self.opts.reads_per_round.min(events as usize);
        let mut positions: Vec<u64> = Vec::with_capacity(k);
        while positions.len() < k {
            let p = 1 + self.rng.below(events);
            if !positions.contains(&p) {
                positions.push(p);
            }
        }
        positions.sort_unstable();
        let rot = self.rng.below(3) as usize;
        positions
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, LEVELS[(i + rot) % 3]))
            .collect()
    }

    fn drain(&mut self, crash_at: Option<u64>, reads: &[(u64, ReadLevel)]) -> Result<(), String> {
        let mut events = 0u64;
        let mut next_read = 0;
        loop {
            let mut progressed = false;
            for i in 0..self.dep.sites.len() {
                while let Some(msg) = self.dep.sites[i]
                    .src_end
                    .try_recv()
                    .map_err(|e| format!("source receive: {e}"))?
                {
                    progressed = true;
                    self.at_source(i, msg)?;
                }
            }
            for i in 0..self.dep.sites.len() {
                while let Some(msg) = self.dep.sites[i]
                    .wh_end
                    .try_recv()
                    .map_err(|e| format!("warehouse receive: {e}"))?
                {
                    progressed = true;
                    self.at_warehouse(i, msg)?;
                    events += 1;
                    self.after_event(i);
                    while next_read < reads.len() && reads[next_read].0 == events {
                        self.read(reads[next_read].1);
                        next_read += 1;
                    }
                    if crash_at == Some(events) {
                        self.crash()?;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        for &(_, level) in &reads[next_read..] {
            self.read(level);
        }
        Ok(())
    }

    fn at_source(&mut self, i: usize, msg: Message) -> Result<(), String> {
        let site = &mut self.dep.sites[i];
        let Message::QueryRequest { id, query } = msg else {
            return Err(format!("source {i} received {msg:?}"));
        };
        let before = site.source.io_meter().query_reads();
        let answer = trace::span(Op::SourceAnswer, || site.source.answer(&query))
            .map_err(|e| format!("source answer: {e}"))?;
        self.stats.blocks += site.source.io_meter().query_reads() - before;
        self.stats.answers += 1;
        site.src_end
            .send(&Message::QueryAnswer { id, answer })
            .map_err(|e| format!("send answer: {e}"))
    }

    fn at_warehouse(&mut self, i: usize, msg: Message) -> Result<(), String> {
        let dep = &mut *self.dep;
        let site = &mut dep.sites[i];
        let op = match &msg {
            Message::UpdateNotification { .. } => {
                site.processed += 1;
                Op::WarehouseUpdate
            }
            Message::QueryAnswer { answer, .. } => {
                site.meter.record_answer_payload(
                    answer.encoded_len() as u64,
                    answer.pos_len() + answer.neg_len(),
                );
                Op::WarehouseAnswer
            }
            other => return Err(format!("warehouse received {other:?}")),
        };
        self.latest_before = dep.registry.as_ref().map_or(0, |r| r.latest());
        let replies = trace::span(op, || dep.warehouse.on_message(site.id, msg))
            .map_err(|e| format!("warehouse: {e}"))?;
        for reply in &replies {
            if let Message::QueryRequest { query, .. } = reply {
                self.stats.queries += 1;
                self.stats.terms += query.terms.len() as u64;
            }
            site.wh_end
                .send(reply)
                .map_err(|e| format!("send query: {e}"))?;
        }
        Ok(())
    }

    fn after_event(&mut self, i: usize) {
        let views = self.views_per_source();
        let site = &mut self.dep.sites[i];
        let warehouse = &self.dep.warehouse;
        if self.traced {
            self.stats
                .pending
                .push(warehouse.session(site.id).pending() as u64);
        }
        if warehouse.source_quiescent(site.id) {
            let now = self.maint.ms();
            while let Some(&(seq, t)) = site.stamps.front() {
                if seq >= site.processed {
                    break;
                }
                site.stamps.pop_front();
                self.stats.freshness_ms.push(now - t);
            }
        }
        if let Some(rs) = &mut self.read {
            for k in 0..views {
                let g = i * views + k;
                if warehouse.maintainer(ViewId(g)).is_quiescent() && rs.last_n[g] != site.processed
                {
                    rs.boundaries[g].push((self.latest_before + 1, site.processed));
                    rs.last_n[g] = site.processed;
                }
            }
        }
    }

    /// Serve one read end to end — `ReadQuery` sent, answered by the
    /// server, `ReadAnswer` decoded — timed on its own clock. The answer
    /// is compared with the reference when the round ends, so the check
    /// does not disturb the maintenance events around the read.
    fn read(&mut self, level: ReadLevel) {
        let Some(rs) = &mut self.read else { return };
        self.stats.reads += 1;
        self.maint.stop();
        let view = rs.next_view as u64;
        rs.next_view = (rs.next_view + 1) % rs.boundaries.len();
        let t0 = Instant::now();
        let result = (|| -> Result<ReadOutcome, ServeError> {
            rs.client.begin_read(view, level)?;
            let query = rs.server_end.try_recv()?.ok_or(ServeError::Disconnected)?;
            let answer = trace::span(Op::ServeRespond, || rs.server.respond(query));
            rs.server_end.send(&answer)?;
            rs.client.try_finish()?.ok_or(ServeError::Disconnected)
        })();
        let dt = t0.elapsed();
        self.maint.start();
        if self.traced {
            self.stats.traced_read_s += dt.as_secs_f64();
        }
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => return self.stats.fail(format!("read of view {view}: {e}")),
        };
        self.stats.read_ms.push(dt.as_secs_f64() * 1e3);
        let li = level_index(level);
        self.stats.staleness[li].push(outcome.staleness());
        self.stats
            .read_rows
            .push(outcome.rows.distinct_len() as u64);
        if level != ReadLevel::Convergent {
            let last = rs.last_epoch.entry((view, li)).or_insert(0);
            if outcome.epoch < *last {
                let label = level.label();
                let e = format!(
                    "{label} read of view {view} went back from epoch {last} to {}",
                    outcome.epoch
                );
                return self.stats.fail(e);
            }
            *last = outcome.epoch;
        }
        rs.unchecked.push(outcome);
    }

    /// Drop the warehouse and its channels, rebuild the deployment's
    /// shape, recover from disk, and put the recovery traffic on fresh
    /// channels: re-issued queries from the warehouse, and from each
    /// source the notifications past the recovered watermark.
    fn crash(&mut self) -> Result<(), String> {
        let config = self
            .dep
            .durability
            .clone()
            .ok_or("crash without durability")?;
        let spec = self.dep.spec;
        // The crash itself costs the recovering process nothing.
        self.maint.stop();
        self.dep.warehouse = eca_warehouse::Warehouse::new();
        for site in &mut self.dep.sites {
            (site.src_end, site.wh_end) = channel(&site.meter);
        }
        self.maint.start();
        self.stats.crashes += 1;
        let t_crash = self.maint.ms();
        let mut warehouse = trace::span(Op::WarehouseRebuild, || empty_warehouse(&spec));
        let outcomes = trace::span(Op::DurableRecover, || warehouse.recover_durability(config))
            .map_err(|e| format!("recover_durability: {e}"))?;
        if self.dep.registry.is_some() {
            self.dep.registry = Some(warehouse.enable_serving(RING_CAP));
        }
        self.dep.warehouse = warehouse;
        let t_recovered = self.maint.ms();
        for outcome in outcomes {
            self.stats.recovered += 1;
            let site = &mut self.dep.sites[outcome.source().0];
            for msg in outcome.messages() {
                site.wh_end
                    .send(msg)
                    .map_err(|e| format!("re-issue: {e}"))?;
            }
            match outcome {
                RecoveryOutcome::Incremental {
                    replayed,
                    notifications_seen,
                    ..
                } => {
                    self.stats.incremental += 1;
                    self.stats.replayed += replayed;
                    let from = notifications_seen
                        .checked_sub(site.sent_base)
                        .ok_or("watermark older than the kept history")?;
                    for update in site.sent.iter().skip(from as usize) {
                        site.src_end
                            .send(&Message::UpdateNotification {
                                update: update.clone(),
                            })
                            .map_err(|e| format!("re-send: {e}"))?;
                        self.stats.tail += 1;
                    }
                    site.processed = notifications_seen;
                }
                RecoveryOutcome::Full { source, .. } => {
                    self.stats
                        .fail(format!("source {} recovered by full resync", source.0));
                    site.processed = site.executed;
                }
            }
        }
        self.recovering = Some((t_crash, t_recovered));
        Ok(())
    }

    fn check_round(&mut self, crashed: bool, before: &[(u64, u64)], applied_before: &[u64]) {
        let spec = self.dep.spec;
        if let Some((t_crash, t_recovered)) = self.recovering.take() {
            let now = self.maint.ms();
            self.stats.recovery_ms.push(now - t_crash);
            self.stats.catchup_ms.push(now - t_recovered);
        }
        for (s, site) in self.dep.sites.iter().enumerate() {
            if !self.dep.warehouse.source_quiescent(site.id)
                || site.processed != site.executed
                || !site.stamps.is_empty()
            {
                let msg = format!("source {s} did not drain to quiescence");
                self.stats.fail(msg);
            }
            if !crashed {
                // §6: ECA sends one query and gets one answer per update
                // per view.
                let views = spec.sels.len() as u64;
                let b = spec.burst as u64;
                let w2s = site.meter.messages_w2s() - before[s].0;
                let s2w = site.meter.messages_s2w() - before[s].1;
                if w2s != b * views || s2w != b * (1 + views) {
                    let msg = format!("source {s}: {w2s} queries and {s2w} notifications+answers for {b} updates over {views} views");
                    self.stats.fail(msg);
                }
            }
        }
        if crashed || (self.stats.rounds + 1) % self.opts.check_every.max(1) == 0 {
            for e in self.dep.check_all_views() {
                self.stats.fail(e);
            }
        }
        if let Some(rs) = &mut self.read {
            let views = spec.sels.len();
            for outcome in rs.unchecked.drain(..) {
                let g = outcome.view as usize;
                let n = rs.boundaries[g]
                    .iter()
                    .rev()
                    .find(|(first, _)| *first <= outcome.epoch)
                    .map_or(0, |&(_, n)| n);
                let site = &self.dep.sites[g / views];
                if let Err(e) = site.reference.check_at(g % views, n, &outcome.rows) {
                    let label = outcome.level.label();
                    self.stats.fail(format!(
                        "{label} read of view {g} at epoch {}: {e}",
                        outcome.epoch
                    ));
                }
            }
            for (site, &applied) in self.dep.sites.iter_mut().zip(applied_before) {
                site.reference.trim_deltas(applied);
            }
        }
    }

    fn finish(&mut self) {
        for (s, site) in self.dep.sites.iter().enumerate() {
            if let Err(e) = site.reference.self_check() {
                self.stats.fail(format!("source {s}: {e}"));
            }
        }
        for e in self.dep.check_all_views() {
            self.stats.fail(e);
        }
        let views = self.dep.spec.view_count();
        let rows: usize = (0..views)
            .map(|g| self.dep.warehouse.materialized(ViewId(g)).distinct_len())
            .sum();
        self.stats.view_rows = rows as f64 / views as f64;
    }
}
