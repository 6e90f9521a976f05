//! End-to-end and per-layer benchmark of the serial warehouse.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload maintain --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --short
//! ```
//!
//! A run deploys `eca-source` sites and an `eca-warehouse` `Warehouse`
//! in one process, on one thread, over in-memory `eca-wire` channels,
//! runs one workload as a closed loop, checks every output against a
//! reference kept apart from the program, and prints each metric with
//! its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, measured in [`REPLICAS`] processes in turn;
//! `--trace 1` the per-layer metrics of one traced process. `--short`
//! runs every workload briefly, each in processes of its own, with every
//! check on. See README.md.

mod deploy;
mod phase;
mod reference;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use deploy::Spec;
use phase::{median, quantile, PhaseOpts, PhaseStats, Stop, Tracing};
use trace::{Op, PhaseTrace};

/// Rounds of the read probe run on workloads whose timed phase serves no
/// reads (split over the processes of a measured run).
const READ_PROBE_ROUNDS: u64 = 64;
/// Reads per round of the read probe (640 reads: 64 lie beyond p90).
const READ_PROBE_READS: usize = 10;
/// Rounds between full view comparisons in a measured run.
const CHECK_EVERY: u64 = 16;
/// The seed `--short` runs on.
const SHORT_SEED: u64 = 2;
/// Processes a measured (`--trace 0`) run is split into, each timing
/// `1/REPLICAS` of `--seconds` on a deployment of its own. Run-to-run
/// noise on a shared host is largely per process (one process runs a
/// third faster than the next for its whole life), so the run reports
/// the mean over its processes without the fastest and the slowest.
const REPLICAS: u64 = 8;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_every: u64,
    /// Set in the child processes of a measured run (see [`replicated`]).
    replica: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <maintain|serve-large|durable-crash> \
--seed <n> --seconds <s> --trace <0|1> [--check-every <rounds>]\n       perfbench --short";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut check_every) = (1, 10, false, CHECK_EVERY);
    let mut short = false;
    let mut replica = None;
    while let Some(flag) = argv.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    deploy::WORKLOADS
                        .into_iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--check-every" => check_every = number()?.max(1),
            "--replica" => replica = Some(number()?.min(REPLICAS - 1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if short {
        return Ok(None);
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        check_every,
        replica,
    }))
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(args)) if !args.trace && args.replica.is_none() => replicated(&args),
        Ok(Some(args)) => run(&args),
        Ok(None) => short(),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn quantile_u64(values: &[u64], q: f64) -> f64 {
    quantile(&values.iter().map(|&v| v as f64).collect::<Vec<_>>(), q)
}

fn mean_u64(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metrics in report order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Everything one run measured, phase by phase.
struct Outcome {
    spec: Spec,
    setup_s: Vec<f64>,
    /// `VmHWM` at the end of the timed phase, before any probe.
    peak_rss_mib: f64,
    main: (PhaseStats, PhaseTrace),
    /// The crash probe, on workloads whose timed phase has no crashes.
    crash_probe: Option<(PhaseStats, PhaseTrace)>,
    /// The read probe, on workloads whose timed phase serves no reads.
    read_probe: Option<(PhaseStats, PhaseTrace)>,
}

impl Outcome {
    /// The phase that served reads and its spans.
    fn reads(&self) -> (&PhaseStats, &PhaseTrace) {
        let (s, t) = self.read_probe.as_ref().unwrap_or(&self.main);
        (s, t)
    }

    /// The phase that crashed and its spans.
    fn crashes(&self) -> (&PhaseStats, &PhaseTrace) {
        let (s, t) = self.crash_probe.as_ref().unwrap_or(&self.main);
        (s, t)
    }

    fn phases(&self) -> impl Iterator<Item = &(PhaseStats, PhaseTrace)> {
        std::iter::once(&self.main)
            .chain(self.crash_probe.as_ref())
            .chain(self.read_probe.as_ref())
    }
}

fn run(args: &Args) -> ExitCode {
    let spec = args.workload;
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let wal_dir = out_dir.join(format!("wal-{}-{}", spec.name, std::process::id()));
    let outcome = measure(args, &wal_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed) = (0, 0);
    for (p, _) in outcome.phases() {
        attempted += p.updates + p.reads + p.crashes;
        failed += p.failed;
        for e in &p.errors {
            eprintln!("{}: FAILED: {e}", spec.name);
        }
    }
    let metrics = if args.trace {
        let path = out_dir.join(format!("trace-{}.tsv", spec.name));
        let traces: Vec<&PhaseTrace> = outcome.phases().map(|(_, t)| t).collect();
        print_self_times(&outcome);
        match trace::write_spans(&path, &traces) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("writing spans to {}: {e}", path.display()),
        }
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };
    println!(
        "{}: {} rounds, {} updates, {} reads, {} crashes in the timed phase; {attempted} operations, {failed} failed",
        spec.name, outcome.main.0.rounds, outcome.main.0.updates, outcome.main.0.reads, outcome.main.0.crashes
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    if args.replica.is_some() {
        let samples = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        println!("{READ_SAMPLES} {}", samples(&outcome.reads().0.read_ms));
        println!(
            "{RECOVERY_SAMPLES} {}",
            samples(&outcome.crashes().0.recovery_ms)
        );
    }
    print_result(attempted, failed, &metrics);
    ExitCode::SUCCESS
}

/// Print the result line: the last line of standard output.
fn print_result(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn measure(args: &Args, wal_dir: &Path) -> Result<Outcome, String> {
    let spec = args.workload;
    // Each process of a measured run maintains an update stream of its
    // own, so a run's figures stand on REPLICAS streams, not one.
    let replica = args.replica.unwrap_or(0);
    let (mut dep, setup_s) = deploy::build(spec, args.seed, replica, wal_dir)?;
    let (main_tracing, probe_tracing) = if args.trace {
        (Tracing::Alternate, Tracing::All)
    } else {
        (Tracing::Off, Tracing::Off)
    };
    let main_opts = PhaseOpts {
        reads_per_round: spec.reads_per_round,
        crash_every: spec.crash_every,
        stop: Stop::Time(match args.replica {
            Some(_) => Duration::from_millis(args.seconds * 1000 / REPLICAS),
            None => Duration::from_secs(args.seconds),
        }),
        check_every: args.check_every,
        tracing: main_tracing,
        stream: 1 + 10 * replica,
        first_crash: 0,
    };
    let main = phase::run(&mut dep, main_opts, args.seed, wal_dir);
    let main_trace = trace::take("main");
    let peak_rss_mib = peak_rss_mib();
    // Metrics a workload's timed phase does not produce come from short
    // probes run after it, on the same deployment, so the timed phase
    // stays free of the probed mechanism.
    // A measured run shares the probes' rounds out over its processes,
    // so a slow process holds an eighth of the samples, not all of them.
    // The processes read at places of their own, and crash at
    // consecutive stretches of one sweep of crash points, so the run's
    // crashes cover the round as evenly as one process's would.
    let share = |rounds: u64| match args.replica {
        Some(_) => rounds / REPLICAS,
        None => rounds,
    };
    let crash_probe = (spec.crash_every == 0).then(|| {
        let opts = PhaseOpts {
            reads_per_round: 0,
            crash_every: 1,
            stop: Stop::Rounds(share(spec.crash_probe_rounds)),
            check_every: 1,
            tracing: probe_tracing,
            stream: 2,
            first_crash: replica * share(spec.crash_probe_rounds),
        };
        (
            phase::run(&mut dep, opts, args.seed, wal_dir),
            trace::take("crash-probe"),
        )
    });
    let read_probe = (spec.reads_per_round == 0).then(|| {
        let opts = PhaseOpts {
            reads_per_round: READ_PROBE_READS,
            crash_every: 0,
            stop: Stop::Rounds(share(READ_PROBE_ROUNDS)),
            check_every: args.check_every,
            tracing: probe_tracing,
            stream: 3 + 10 * replica,
            first_crash: 0,
        };
        (
            phase::run(&mut dep, opts, args.seed, wal_dir),
            trace::take("read-probe"),
        )
    });
    Ok(Outcome {
        spec,
        setup_s,
        peak_rss_mib,
        main: (main, main_trace),
        crash_probe,
        read_probe,
    })
}

fn end_to_end(o: &Outcome) -> Metrics {
    let spec = &o.main.0;
    let (reads, _) = o.reads();
    let (crashes, _) = o.crashes();
    let updates = spec.updates;
    let cycle = o.spec.crash_every;
    vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("updates_per_s", spec.updates_per_s(cycle), "1/s"),
        ("freshness_p50_ms", spec.freshness(cycle, 0.5), "ms"),
        ("freshness_p90_ms", spec.freshness(cycle, 0.9), "ms"),
        ("read_p50_ms", quantile(&reads.read_ms, 0.5), "ms"),
        ("read_p90_ms", quantile(&reads.read_ms, 0.9), "ms"),
        ("recovery_p50_ms", quantile(&crashes.recovery_ms, 0.5), "ms"),
        ("msgs_per_update", ratio(spec.msgs, updates), "count"),
        (
            "answer_bytes_per_update",
            ratio(spec.answer_bytes, updates),
            "B",
        ),
        (
            "src_blocks_per_update",
            ratio(spec.blocks, updates),
            "count",
        ),
        (
            "disk_bytes_per_update",
            ratio(crashes.disk_bytes.unwrap_or(0), crashes.updates),
            "B",
        ),
        ("peak_rss_mib", o.peak_rss_mib, "MiB"),
    ]
}

fn per_layer(o: &Outcome) -> Metrics {
    let (m, main_trace) = &o.main;
    let t = &main_trace.times;
    let (reads, rtrace) = o.reads();
    let (crashes, ctrace) = o.crashes();
    let traced_ns = (m.traced.1 + m.traced_read_s) * 1e9;
    let share = |ns: u64| ns as f64 / traced_ns;
    // Per traced read: every read is answered by exactly one `respond`.
    let traced_reads = rtrace.times.count(Op::ServeRespond).max(1);
    let per_read_ms = |op: Op| rtrace.times.ns(op) as f64 / 1e6 / traced_reads as f64;
    let per_update = |s: f64, n: u64| s / n.max(1) as f64;
    vec![
        ("source.execute_us", t.mean_us(Op::SourceExecute), "us"),
        ("source.answer_us", t.mean_us(Op::SourceAnswer), "us"),
        (
            "storage.blocks_per_answer",
            ratio(m.blocks, m.answers),
            "count",
        ),
        ("core.terms_per_query", ratio(m.terms, m.queries), "count"),
        ("wire.encode_us", t.mean_us(Op::WireSend), "us"),
        ("wire.decode_us", t.mean_us(Op::WireRecv), "us"),
        ("wire.bytes_per_msg", ratio(m.wire_bytes, m.msgs), "B"),
        (
            "warehouse.on_update_us",
            t.mean_us(Op::WarehouseUpdate),
            "us",
        ),
        (
            "warehouse.on_answer_us",
            t.mean_us(Op::WarehouseAnswer),
            "us",
        ),
        (
            "warehouse.pending_p99",
            quantile_u64(&m.pending, 0.99),
            "count",
        ),
        ("warehouse.view_rows", m.view_rows, "count"),
        ("source.self_share", share(t.layer_ns("source")), "ratio"),
        ("wire.self_share", share(t.layer_ns("wire")), "ratio"),
        (
            "warehouse.self_share",
            share(t.layer_ns("warehouse")),
            "ratio",
        ),
        (
            "serve.respond_ms",
            rtrace.times.mean_us(Op::ServeRespond) / 1e3,
            "ms",
        ),
        ("wire.read_send_ms", per_read_ms(Op::ReadSend), "ms"),
        ("wire.read_recv_ms", per_read_ms(Op::ReadRecv), "ms"),
        ("serve.read_rows", mean_u64(&reads.read_rows), "count"),
        (
            "serve.staleness_strong",
            quantile_u64(&reads.staleness[0], 0.5),
            "epochs",
        ),
        (
            "serve.staleness_weak",
            quantile_u64(&reads.staleness[1], 0.5),
            "epochs",
        ),
        (
            "serve.staleness_convergent",
            quantile_u64(&reads.staleness[2], 0.5),
            "epochs",
        ),
        (
            "durable.recover_ms",
            ctrace.times.mean_us(Op::DurableRecover) / 1e3,
            "ms",
        ),
        (
            "durable.catchup_ms",
            quantile(&crashes.catchup_ms, 0.5),
            "ms",
        ),
        (
            "durable.replayed_per_crash",
            ratio(crashes.replayed, crashes.crashes),
            "count",
        ),
        (
            "durable.tail_per_crash",
            ratio(crashes.tail, crashes.crashes),
            "count",
        ),
        (
            "durable.incremental_share",
            ratio(crashes.incremental, crashes.recovered),
            "ratio",
        ),
        ("durable.checkpoints", crashes.checkpoints as f64, "count"),
        (
            "durable.checkpoint_bytes",
            mean_u64(&crashes.checkpoint_bytes),
            "B",
        ),
        (
            "trace.unaccounted_share",
            1.0 - share(t.total_ns()),
            "ratio",
        ),
        (
            "trace.overhead",
            per_update(m.traced.1, m.traced.0) / per_update(m.untraced.1, m.untraced.0),
            "ratio",
        ),
    ]
}

/// The per-layer self-time table, next to the untraced rounds' numbers.
fn print_self_times(o: &Outcome) {
    let m = &o.main.0;
    println!(
        "timed phase: untraced {:.1} updates/s over {} updates, traced {:.1} updates/s over {} updates",
        m.untraced.0 as f64 / m.untraced.1.max(1e-9),
        m.untraced.0,
        m.traced.0 as f64 / m.traced.1.max(1e-9),
        m.traced.0,
    );
    for (_, trace) in o.phases() {
        let label = trace.phase;
        let total = trace.times.total_ns();
        if total == 0 {
            continue;
        }
        println!("self time, {label}:");
        println!(
            "  {:<22} {:>10} {:>12} {:>10} {:>7}",
            "op", "calls", "self ms", "mean us", "share"
        );
        for op in Op::ALL {
            let n = trace.times.count(op);
            if n == 0 {
                continue;
            }
            println!(
                "  {:<22} {:>10} {:>12.3} {:>10.3} {:>6.1}%",
                op.name(),
                n,
                trace.times.ns(op) as f64 / 1e6,
                trace.times.mean_us(op),
                100.0 * trace.times.ns(op) as f64 / total as f64
            );
        }
    }
}

/// Prefixes of the sample lines a replica prints before its result.
const READ_SAMPLES: &str = "read_ms:";
const RECOVERY_SAMPLES: &str = "recovery_ms:";

/// One replica's result line, parsed: correct, attempted, failed and
/// `(name, value, unit)` per metric.
type Parsed = (bool, u64, u64, Vec<(String, f64, String)>);

fn parse_result(line: &str) -> Option<Parsed> {
    let count = |key: &str| -> Option<u64> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        line[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")?;
        let (value, rest) = rest.split_once(", \"unit\": \"")?;
        let unit = rest.split('"').next()?;
        metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
    }
    Some((
        line.contains("\"correct\": true"),
        count("attempted")?,
        count("failed")?,
        metrics,
    ))
}

/// Mean of `values` without their smallest and largest (with three or
/// more): one process that ran on a slow or a fast spell of the host
/// moves it by less than it moves a mean, and the rest move it by more
/// than they move a median of a few.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() >= 3 {
        v.pop();
        v.remove(0);
    }
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// A measured run: [`REPLICAS`] processes in turn, each building its own
/// deployment and timing its share of `--seconds` and of the probes'
/// rounds. Reads and recoveries are pooled before their quantiles are
/// taken; peak memory is the largest process's; every other figure is
/// the [`trimmed_mean`] over the processes.
fn replicated(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut reads, mut recoveries) = (Vec::new(), Vec::new());
    let mut results = Vec::new();
    for replica in 0..REPLICAS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .args(["--check-every", &args.check_every.to_string()])
            .args(["--replica", &replica.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("replica {replica} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("replica {replica}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for line in stdout.lines() {
            let samples = |rest: &str| -> Vec<f64> {
                rest.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            };
            if let Some(rest) = line.strip_prefix(READ_SAMPLES) {
                reads.extend(samples(rest));
            } else if let Some(rest) = line.strip_prefix(RECOVERY_SAMPLES) {
                recoveries.extend(samples(rest));
            } else if !line.starts_with('{') {
                println!("[{replica}] {line}");
            }
        }
        match stdout.lines().last().and_then(parse_result) {
            Some(parsed) => results.push(parsed),
            None => {
                eprintln!("replica {replica} printed no result");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for (c, a, f, _) in &results {
        correct &= *c;
        attempted += a;
        failed += f;
    }
    let metrics: Vec<(&str, f64, &str)> = results[0]
        .3
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values: Vec<f64> = results.iter().map(|r| r.3[i].1).collect();
            let value = match name.as_str() {
                "read_p50_ms" => quantile(&reads, 0.5),
                "read_p90_ms" => quantile(&reads, 0.9),
                "recovery_p50_ms" => median(&recoveries),
                "peak_rss_mib" => values.iter().copied().fold(0.0, f64::max),
                _ => trimmed_mean(&values),
            };
            (name.as_str(), value, unit.as_str())
        })
        .collect();
    println!(
        "{}: {} processes, {} reads and {} recoveries pooled",
        args.workload.name,
        results.len(),
        reads.len(),
        recoveries.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    print_result(attempted, failed.max(u64::from(!correct)), &metrics);
    ExitCode::SUCCESS
}

/// Run every workload for one second, traced and untraced, each in a
/// process of its own, with every check on.
fn short() -> ExitCode {
    let exe: PathBuf = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for spec in deploy::WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", spec.name, "--seed", &SHORT_SEED.to_string()])
                .args(["--seconds", "1", "--trace", trace, "--check-every", "1"])
                .output();
            let verdict = match &out {
                Ok(o) if o.status.success() => {
                    let stdout = String::from_utf8_lossy(&o.stdout);
                    let last = stdout.lines().last().unwrap_or_default().to_string();
                    if last.contains("\"correct\": true") && last.contains("\"failed\": 0,") {
                        format!("ok    {last}")
                    } else {
                        ok = false;
                        format!("FAIL  {last}\n{}", String::from_utf8_lossy(&o.stderr))
                    }
                }
                Ok(o) => {
                    ok = false;
                    format!(
                        "FAIL  exit {}\n{}",
                        o.status,
                        String::from_utf8_lossy(&o.stderr)
                    )
                }
                Err(e) => {
                    ok = false;
                    format!("FAIL  {e}")
                }
            };
            println!("{:<14} trace {trace}: {verdict}", spec.name);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
