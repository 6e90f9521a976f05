//! The three workloads and the deployment each one builds: `eca-source`
//! sites and one serial `eca-warehouse` `Warehouse` in this process, on
//! this thread, joined by in-memory `eca-wire` channels.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{CmpOp, Predicate, SignedBag, Tuple, Update};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{DurabilityConfig, EpochRegistry, FsyncPolicy, SourceId, ViewId, Warehouse};
use eca_wire::{InMemoryFifo, TransferMeter};
use eca_workload::{Example6, Params};

use crate::reference::{Change, Churn, Pair, RefSource, Rng, Sel};
use crate::trace::{Op, Traced};

/// Epochs each view keeps for convergent and weak reads.
pub const RING_CAP: usize = 4;
/// WAL records buffered between fsyncs.
pub const FSYNC_BATCH: u64 = 8;
/// Logged events per source between checkpoint attempts.
pub const CHECKPOINT_EVERY: u64 = 256;

/// The make-up of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Source sites.
    pub sources: usize,
    /// The views each source hosts, by selection.
    pub sels: &'static [Sel],
    /// `C`: tuples per base relation.
    pub cardinality: u64,
    /// `J`: join factor.
    pub join_factor: u64,
    /// Updates per source per round, all executed before any query is
    /// answered.
    pub burst: usize,
    /// Deployments built per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Reads per round in the timed phase; serving is on from set-up
    /// when there are any.
    pub reads_per_round: usize,
    /// A crash every this many rounds in the timed phase (0: none);
    /// durability is on from set-up when there are any.
    pub crash_every: u64,
    /// Rounds of the crash probe run after a timed phase without
    /// crashes, split over the processes of a measured run; every round
    /// crashes once.
    pub crash_probe_rounds: u64,
}

/// `maintain`: the paper's protocol path with fan-out and session demux.
pub const MAINTAIN: Spec = Spec {
    name: "maintain",
    sources: 3,
    sels: &[Sel::Gt, Sel::Lt],
    cardinality: 1000,
    join_factor: 4,
    burst: 8,
    setup_reps: 2,
    reads_per_round: 0,
    crash_every: 0,
    // 12 rounds a process: 288 logged events a source, past the
    // checkpoint cadence, so each process's probe cuts a checkpoint and
    // `disk_bytes_per_update` counts one.
    crash_probe_rounds: 96,
};

/// `serve-large`: every cost that grows with view size.
pub const SERVE_LARGE: Spec = Spec {
    name: "serve-large",
    sources: 1,
    sels: &[Sel::Gt],
    cardinality: 12_500,
    join_factor: 4,
    burst: 8,
    setup_reps: 1,
    reads_per_round: 3,
    crash_every: 0,
    // 5 rounds a process: a round with a crash takes ≈ 0.5 s here, and
    // 80 logged events cut no checkpoint.
    crash_probe_rounds: 40,
};

/// `durable-crash`: WAL append and fsync, checkpoints and recovery.
pub const DURABLE_CRASH: Spec = Spec {
    name: "durable-crash",
    sources: 1,
    sels: &[Sel::Gt, Sel::Lt],
    cardinality: 1000,
    join_factor: 4,
    burst: 8,
    setup_reps: 5,
    reads_per_round: 0,
    crash_every: 4,
    crash_probe_rounds: 0,
};

/// Every workload, in report order.
pub const WORKLOADS: [Spec; 3] = [MAINTAIN, SERVE_LARGE, DURABLE_CRASH];

impl Spec {
    fn params(&self) -> Params {
        Params {
            cardinality: self.cardinality,
            join_factor: self.join_factor,
            ..Params::default()
        }
    }

    /// Warehouse events of one fault-free round: per source, one
    /// notification and one answer per view for each update.
    pub fn events_per_round(&self) -> u64 {
        (self.sources * self.burst * (1 + self.sels.len())) as u64
    }

    /// Views hosted in all.
    pub fn view_count(&self) -> usize {
        self.sources * self.sels.len()
    }
}

/// The Example 6 view with the given selection.
pub fn view_def(sel: Sel) -> ViewDef {
    let (name, op) = match sel {
        Sel::Gt => ("V_gt", CmpOp::Gt),
        Sel::Lt => ("V_lt", CmpOp::Lt),
    };
    ViewDef::new(
        name,
        Example6::schemas(),
        Predicate::col_eq(1, 2)
            .and(Predicate::col_eq(3, 4))
            .and(Predicate::col_cmp(0, op, 5)),
        vec![0, 5],
    )
    .expect("Example 6 view is valid")
}

/// The relation names, indexed like [`Change::rel`].
const RELATIONS: [&str; 3] = ["r1", "r2", "r3"];

/// The program-side form of a generated change.
pub fn to_update(change: Change) -> Update {
    let tuple = Tuple::ints([change.tuple.0, change.tuple.1]);
    let name = RELATIONS[change.rel];
    if change.insert {
        Update::insert(name, tuple)
    } else {
        Update::delete(name, tuple)
    }
}

/// The seed of one site's base data.
fn site_seed(seed: u64, site: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(site as u64)
}

/// A channel end as the benchmark holds it.
pub type End = Traced<InMemoryFifo>;

/// A fresh maintenance channel charging `meter`: `(source end,
/// warehouse end)`.
pub fn channel(meter: &TransferMeter) -> (End, End) {
    let (s, w) = InMemoryFifo::pair(meter.clone());
    (
        Traced::new(s, Op::WireSend, Op::WireRecv),
        Traced::new(w, Op::WireSend, Op::WireRecv),
    )
}

/// One source site, its channel, and the benchmark's bookkeeping for
/// it.
pub struct Site {
    /// The autonomous source.
    pub source: Source,
    /// Its handle at the warehouse.
    pub id: SourceId,
    /// Source end of the channel.
    pub src_end: End,
    /// Warehouse end of the channel.
    pub wh_end: End,
    /// Messages and bytes on this channel, both directions.
    pub meter: TransferMeter,
    /// The update stream.
    pub churn: Churn,
    /// The independent reference.
    pub reference: RefSource,
    /// Notifications sent, from `sent_base` on — what a recovered
    /// warehouse asks to have re-sent.
    pub sent: VecDeque<Update>,
    /// Index of `sent[0]` in the site's notification stream.
    pub sent_base: u64,
    /// Effective updates executed at the source.
    pub executed: u64,
    /// Notifications the warehouse has processed (its durable watermark
    /// after a recovery).
    pub processed: u64,
    /// `(update index, maintenance clock at execute)` of updates not yet
    /// visible at the warehouse.
    pub stamps: VecDeque<(u64, f64)>,
}

/// A built deployment.
pub struct Deployment {
    /// The workload it was built for.
    pub spec: Spec,
    /// The source sites.
    pub sites: Vec<Site>,
    /// The warehouse.
    pub warehouse: Warehouse,
    /// Epoch registry while serving is on.
    pub registry: Option<Arc<EpochRegistry>>,
    /// Durability settings while durability is on.
    pub durability: Option<DurabilityConfig>,
}

/// The program side of a deployment: what `setup_s` times.
struct Built {
    sources: Vec<Source>,
    warehouse: Warehouse,
    registry: Option<Arc<EpochRegistry>>,
    durability: Option<DurabilityConfig>,
}

/// A warehouse of the deployment's shape with empty views, as a
/// restarted process builds it before recovery.
pub fn empty_warehouse(spec: &Spec) -> Warehouse {
    let mut warehouse = Warehouse::new();
    warehouse.set_record_history(false);
    for s in 0..spec.sources {
        let id = warehouse.add_source(format!("s{s}"));
        for &sel in spec.sels {
            let maintainer = AlgorithmKind::Eca
                .instantiate(&view_def(sel), SignedBag::new())
                .expect("ECA applies to any view");
            warehouse
                .add_view(id, maintainer)
                .expect("source registered");
        }
    }
    warehouse
}

/// Durability settings for a run, under `dir`.
pub fn durability_config(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .with_fsync(FsyncPolicy::PerBatch(FSYNC_BATCH))
        .with_checkpoint_every(CHECKPOINT_EVERY)
}

/// Build the program side: load every source, evaluate each view on
/// it, instantiate the maintainers, and register or checkpoint.
fn build_program(spec: &Spec, seed: u64, wal_dir: &std::path::Path) -> Result<Built, String> {
    let mut warehouse = Warehouse::new();
    warehouse.set_record_history(false);
    let mut sources = Vec::with_capacity(spec.sources);
    for s in 0..spec.sources {
        let workload = Example6::new(spec.params(), site_seed(seed, s));
        let source = workload
            .build_source(Scenario::Indexed)
            .map_err(|e| format!("source {s}: {e}"))?;
        let snapshot = source.snapshot();
        let id = warehouse.add_source(format!("s{s}"));
        for &sel in spec.sels {
            let def = view_def(sel);
            let initial = def
                .eval(&snapshot)
                .map_err(|e| format!("initial view: {e}"))?;
            let maintainer = AlgorithmKind::Eca
                .instantiate(&def, initial)
                .map_err(|e| format!("maintainer: {e}"))?;
            warehouse
                .add_view(id, maintainer)
                .map_err(|e| format!("add_view: {e}"))?;
        }
        sources.push(source);
    }
    let registry = (spec.reads_per_round > 0).then(|| warehouse.enable_serving(RING_CAP));
    let durability = if spec.crash_every > 0 {
        let config = durability_config(wal_dir.to_path_buf());
        warehouse
            .enable_durability(config.clone())
            .map_err(|e| format!("enable_durability: {e}"))?;
        Some(config)
    } else {
        None
    };
    Ok(Built {
        sources,
        warehouse,
        registry,
        durability,
    })
}

/// Build the deployment `spec.setup_reps` times, timing each build, and
/// keep the last. Returns the deployment and the build times in
/// seconds. `churn` picks the update streams: the base data depends on
/// `seed` only, the updates on both.
pub fn build(
    spec: Spec,
    seed: u64,
    churn: u64,
    wal_dir: &std::path::Path,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut times = Vec::with_capacity(spec.setup_reps);
    let mut built = None;
    for _ in 0..spec.setup_reps.max(1) {
        // Each build replaces the last, so one deployment is alive at a
        // time and `peak_rss_mib` sees one.
        drop(built.take());
        let t0 = std::time::Instant::now();
        let b = build_program(&spec, seed, wal_dir)?;
        times.push(t0.elapsed().as_secs_f64());
        built = Some(b);
    }
    let built = built.expect("at least one build");
    let mut sites = Vec::with_capacity(spec.sources);
    for (s, source) in built.sources.into_iter().enumerate() {
        let workload = Example6::new(spec.params(), site_seed(seed, s));
        let initial: [Vec<Pair>; 3] = std::array::from_fn(|rel| {
            workload
                .base_tuples(rel)
                .iter()
                .map(|t| {
                    let int = |i| t.get(i).and_then(|v| v.as_int()).expect("integer tuple");
                    (int(0), int(1))
                })
                .collect()
        });
        let meter = TransferMeter::new();
        let (src_end, wh_end) = channel(&meter);
        let groups = spec.params().distinct_join_values() as i64;
        sites.push(Site {
            source,
            id: SourceId(s),
            src_end,
            wh_end,
            meter,
            reference: RefSource::new(&initial, spec.sels),
            churn: Churn::new(Rng::new(seed, 100 + 10 * churn + s as u64), initial, groups),
            sent: VecDeque::new(),
            sent_base: 0,
            executed: 0,
            processed: 0,
            stamps: VecDeque::new(),
        });
    }
    Ok((
        Deployment {
            spec,
            sites,
            warehouse: built.warehouse,
            registry: built.registry,
            durability: built.durability,
        },
        times,
    ))
}

impl Deployment {
    /// The warehouse handle of site `s`'s `k`-th view.
    pub fn view_id(&self, s: usize, k: usize) -> ViewId {
        ViewId(s * self.spec.sels.len() + k)
    }

    /// Compare every view with the reference at the current source
    /// state (call at quiescence, with every notification processed).
    pub fn check_all_views(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (s, site) in self.sites.iter().enumerate() {
            for k in 0..self.spec.sels.len() {
                let bag = self.warehouse.materialized(self.view_id(s, k));
                if let Err(e) = site.reference.check_at(k, site.reference.applied(), bag) {
                    errors.push(format!("source {s} view {k}: {e}"));
                }
            }
        }
        errors
    }
}
