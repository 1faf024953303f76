//! Workloads, their generation-keyed inputs, and the measured cycle.
//!
//! One cycle runs, for each strategy in turn: dump a new generation,
//! collect the superseded one, fail and replace one node, heal to done,
//! then restore and verify every rank. The application is a closed loop
//! with one client: each collective starts when the previous returns.

use std::time::Instant;

use replidedup_apps::{Hpccg, HpccgConfig, SyntheticWorkload};
use replidedup_buf::{process_bytes_copied, Chunk};
use replidedup_ckpt::TrackedHeap;
use replidedup_core::{
    DumpConfig, DumpStats, HealCursor, HealOptions, HealReport, HealStage, RedundancyPolicy,
    Replicator, Strategy, WorldDumpStats,
};
use replidedup_mpi::{Comm, Event, RankTraffic, TrafficReport, WorldConfig, WorldTrace};
use replidedup_sim::{ClusterModel, DumpMeasurement};
use replidedup_storage::{Cluster, Placement};

/// Paper default: fixed 4 KiB chunks (one memory page).
pub const CHUNK_SIZE: usize = 4096;

/// Allowed deviation between measured and sim-predicted dump traffic.
pub const SIM_BAND_PCT: f64 = 15.0;

/// The strategies every cycle runs, in order, with their metric labels.
pub const STRATEGIES: [(&str, Strategy); 3] = [
    ("no-dedup", Strategy::NoDedup),
    ("local-dedup", Strategy::LocalDedup),
    ("coll-dedup", Strategy::CollDedup),
];

/// Heal windows wide enough to cover each stage in one step: the node-loss
/// cycle has no live traffic to interleave with, so the heal runs like a
/// one-shot repair.
pub const HEAL_OPTIONS: HealOptions = HealOptions {
    chunk_batch: 1 << 20,
    owner_batch: 1 << 20,
    stripe_batch: 1 << 20,
    rate: None,
    gc_before: None,
};

/// Index of coll-dedup in [`STRATEGIES`].
pub const COLL: usize = 2;

/// What each rank checkpoints.
#[derive(Debug, Clone, Copy)]
pub enum Content {
    /// HPCCG heap snapshot with an `n`³ sub-block per rank.
    Hpccg { n: usize },
    /// The ranks-sweep synthetic mix (~120 KiB per rank).
    Synthetic,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub ranks: u32,
    pub ranks_per_node: u32,
    pub content: Content,
    pub policy: RedundancyPolicy,
    /// Seconds one cycle takes on the reference host (2 vCPU, pool width
    /// 2); it sizes a run from `--seconds`.
    pub cycle_s: f64,
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "hpccg-8",
        ranks: 8,
        ranks_per_node: 1,
        content: Content::Hpccg { n: 20 },
        policy: RedundancyPolicy::Replicate(3),
        cycle_s: 1.25,
    },
    Spec {
        name: "nodeloss-96",
        ranks: 96,
        ranks_per_node: 12,
        content: Content::Synthetic,
        policy: RedundancyPolicy::Auto {
            k: 4,
            m: 2,
            replicate_below: 1024,
        },
        cycle_s: 2.8,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    pub fn config(&self, strategy: Strategy) -> DumpConfig {
        DumpConfig::paper_defaults(strategy).with_policy(self.policy)
    }

    pub fn placement(&self) -> Placement {
        Placement::pack(self.ranks, self.ranks_per_node)
    }
}

/// Pool width of every world the benchmark launches: the host's cores.
pub fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn world() -> WorldConfig {
    WorldConfig::default().with_workers(pool_width())
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generation-keyed inputs. Every generation is new to the store yet keeps
/// the workload's duplicate structure: HPCCG pages are XORed with one pad
/// per generation (equal pages stay equal), synthetic buffers take a new
/// seed (same chunk classes, new bytes).
pub struct Inputs {
    spec: Spec,
    seed: u64,
    snapshot: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn new(spec: Spec, seed: u64) -> Self {
        let snapshot = match spec.content {
            Content::Hpccg { n } => hpccg_snapshot(spec.ranks, n),
            Content::Synthetic => Vec::new(),
        };
        Self {
            spec,
            seed,
            snapshot,
        }
    }

    fn key(&self, generation: u64) -> u64 {
        splitmix(self.seed ^ splitmix(generation))
    }

    /// Every rank's buffer for `generation`.
    pub fn generation(&self, generation: u64) -> Vec<Chunk> {
        let key = self.key(generation);
        match self.spec.content {
            Content::Hpccg { .. } => {
                let mut state = key;
                let pad: Vec<u8> = (0..CHUNK_SIZE / 8)
                    .flat_map(|_| {
                        state = splitmix(state);
                        state.to_le_bytes()
                    })
                    .collect();
                self.snapshot
                    .iter()
                    .map(|page_aligned| {
                        let mut buf = page_aligned.clone();
                        for page in buf.chunks_mut(CHUNK_SIZE) {
                            page.iter_mut().zip(&pad).for_each(|(b, p)| *b ^= p);
                        }
                        Chunk::from(buf)
                    })
                    .collect()
            }
            Content::Synthetic => {
                let w = synthetic(key);
                (0..self.spec.ranks)
                    .map(|r| Chunk::from(w.generate(r)))
                    .collect()
            }
        }
    }
}

/// The ranks-sweep chunk mix: globally shared, group-shared, rank-private
/// and locally repeated 4 KiB chunks.
fn synthetic(seed: u64) -> SyntheticWorkload {
    SyntheticWorkload {
        chunk_size: CHUNK_SIZE,
        global_chunks: 4,
        grouped_chunks: 8,
        group_size: 4,
        private_chunks: 12,
        local_dup_chunks: 2,
        local_repeat: 3,
        seed,
    }
}

/// Run the HPCCG solver for its warm-up iterations and capture each rank's
/// page-aligned heap snapshot.
fn hpccg_snapshot(ranks: u32, n: usize) -> Vec<Vec<u8>> {
    let cfg = HpccgConfig {
        nx: n,
        ny: n,
        nz: n,
        ..HpccgConfig::default()
    };
    world()
        .launch(ranks, |comm| {
            let mut app = Hpccg::new(comm.rank(), comm.size(), cfg);
            app.run(comm, 10);
            let mut heap = TrackedHeap::default();
            let regions = app.alloc_regions(&mut heap);
            app.sync_to_heap(&mut heap, &regions);
            heap.snapshot_bytes()
        })
        .expect_all()
        .results
}

/// Inputs plus one cluster per strategy: what set-up builds.
pub struct Bed {
    pub spec: Spec,
    pub seed: u64,
    pub inputs: Inputs,
    pub clusters: Vec<Cluster>,
}

impl Bed {
    /// Set up: generate the inputs, build the clusters, and warm every
    /// strategy (not measured).
    pub fn setup(spec: Spec, seed: u64) -> Self {
        let inputs = Inputs::new(spec, seed);
        let clusters: Vec<Cluster> = STRATEGIES
            .iter()
            .map(|_| Cluster::new(spec.placement()))
            .collect();
        let bed = Self {
            spec,
            seed,
            inputs,
            clusters,
        };
        for lane in 0..STRATEGIES.len() {
            bed.warm(lane);
        }
        bed
    }

    /// Dump and restore generation 0 once, so the measured cycles find the
    /// process's allocator, buffer pool and code paths warm.
    fn warm(&self, lane: usize) {
        let repl = self.replicator(lane);
        let bufs = self.inputs.generation(0);
        world()
            .launch(self.spec.ranks, |comm| {
                let me = comm.rank() as usize;
                let dumped = repl.dump(comm, 0, bufs[me].clone()).is_ok();
                dumped && repl.restore(comm, 0).is_ok_and(|c| c == bufs[me])
            })
            .expect_all();
    }

    pub fn replicator(&self, lane: usize) -> Replicator<'_> {
        let strategy = STRATEGIES[lane].1;
        Replicator::builder(strategy)
            .with_config(self.spec.config(strategy))
            .cluster(&self.clusters[lane])
            .heal_options(HEAL_OPTIONS)
            .build()
            .expect("benchmark configurations are valid")
    }

    /// The node lost in `generation`'s cycle; the rotation starts at a
    /// seed-chosen node.
    pub fn victim(&self, generation: u64) -> u32 {
        let nodes = u64::from(self.clusters[0].node_count());
        ((self.seed % nodes + generation) % nodes) as u32
    }
}

/// Damage for [`run_lane`]: fail `node` (its device is wiped) and bring an
/// empty replacement online under the same identity.
pub fn node_loss(node: u32) -> impl Fn(&Cluster) + Sync {
    move |cluster| {
        cluster.fail_node(node);
        cluster.revive_node(node);
    }
}

/// What one rank saw of a lane step.
struct RankRun {
    dump_secs: f64,
    dump: Result<DumpStats, String>,
    dump_traffic: RankTraffic,
    dump_events: Vec<Event>,
    heal: Result<HealReport, String>,
    heal_steps: Vec<(HealStage, f64)>,
    restore_secs: f64,
    /// `Ok(true)` when the restored bytes equal the dumped ones.
    restore: Result<bool, String>,
    restore_events: Vec<Event>,
    /// Rank 0 only: the application-visible wall time of each collective
    /// and the storage measurements taken between them.
    root: Option<RootRun>,
}

#[derive(Default)]
struct RootRun {
    dump_wall: f64,
    heal_wall: f64,
    restore_wall: f64,
    gc_secs: f64,
    device_before: u64,
    device_after_dump: u64,
    device_bytes: u64,
    parity_bytes: u64,
    bytes_copied: u64,
}

/// One collective dump as the application saw it.
pub struct DumpOp {
    pub wall: f64,
    /// Each rank's time blocked in the call.
    pub rank_secs: Vec<f64>,
    /// Stats of the ranks that returned `Ok`.
    pub stats: Vec<DumpStats>,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Traffic each rank sent during the call.
    pub traffic: TrafficReport,
    /// The program's own trace of the call (traced cycles only).
    pub trace: Option<WorldTrace>,
    /// Bytes the process copied during the call.
    pub bytes_copied: u64,
}

/// One collective restore, every rank's bytes checked against its input.
pub struct RestoreOp {
    pub wall: f64,
    pub rank_secs: Vec<f64>,
    /// Ranks that returned `Err` (typed loss).
    pub failed: u64,
    /// Ranks that returned `Ok` with bytes other than they dumped.
    pub wrong: u64,
    pub first_error: Option<String>,
    pub trace: Option<WorldTrace>,
}

/// One heal driven to done with `heal_step`, each step timed on rank 0
/// and bucketed by the stage the cursor stood at when it began.
pub struct HealOp {
    pub wall: f64,
    /// Rank 0's report; `None` when any rank returned `Err`.
    pub report: Option<HealReport>,
    pub first_error: Option<String>,
    pub stage_secs: Vec<(HealStage, f64)>,
}

impl HealOp {
    /// Whether the heal succeeded on every rank and repaired everything.
    pub fn healed(&self) -> bool {
        self.report
            .as_ref()
            .is_some_and(HealReport::is_fully_healed)
    }
}

/// Everything one strategy's step of a cycle produced.
pub struct LaneResult {
    pub dump: DumpOp,
    pub heal: HealOp,
    pub restore: RestoreOp,
    pub gc_secs: f64,
    /// Device bytes after the superseded generation was collected.
    pub device_bytes: u64,
    pub input_bytes: u64,
    /// Parity bytes the dump added to the cluster.
    pub parity_bytes: u64,
    /// Wire bytes the dump sent: point-to-point plus RMA puts.
    pub wire_bytes: u64,
    /// Correctness violations found in this step.
    pub violations: Vec<String>,
}

impl LaneResult {
    /// Rank-operations attempted: a dump, a heal and a restore per rank.
    pub fn attempted(&self, ranks: u32) -> u64 {
        3 * u64::from(ranks)
    }

    /// Rank-operations failed: `Err`, wrong bytes, or a rank's share of a
    /// heal that did not fully heal.
    pub fn failed(&self, ranks: u32) -> u64 {
        let heal = if self.heal.healed() {
            0
        } else {
            u64::from(ranks)
        };
        self.dump.failed + heal + self.restore.failed + self.restore.wrong
    }
}

fn delta(after: RankTraffic, before: RankTraffic) -> RankTraffic {
    RankTraffic {
        p2p_sent: after.p2p_sent - before.p2p_sent,
        p2p_recv: after.p2p_recv - before.p2p_recv,
        coll_sent: after.coll_sent - before.coll_sent,
        coll_recv: after.coll_recv - before.coll_recv,
        rma_put: after.rma_put - before.rma_put,
        rma_got: after.rma_got - before.rma_got,
        rma_recv: after.rma_recv - before.rma_recv,
        msgs_sent: after.msgs_sent - before.msgs_sent,
    }
}

/// Run `op` as the program's tracer sees it when `traced`, returning its
/// result and the events it recorded.
fn traced_call<T>(
    comm: &mut Comm,
    traced: bool,
    op: impl FnOnce(&mut Comm) -> T,
) -> (T, Vec<Event>) {
    comm.set_tracing(traced);
    let out = op(comm);
    let events = comm.take_trace_events();
    comm.set_tracing(false);
    (out, events)
}

/// Run one strategy's step of the cycle for `generation` in one world: dump
/// a new generation, collect the superseded one, `damage` the cluster,
/// heal to done, then restore and verify. Each collective is timed on rank
/// 0 from a barrier to the barrier after it, so its wall time is when every
/// rank has returned; storage bookkeeping happens on rank 0 between them.
pub fn run_lane(
    bed: &Bed,
    lane: usize,
    generation: u64,
    traced: bool,
    damage: &(dyn Fn(&Cluster) + Sync),
) -> LaneResult {
    let spec = bed.spec;
    let cluster = &bed.clusters[lane];
    let repl = bed.replicator(lane);
    let bufs = bed.inputs.generation(generation);
    let ranks = world()
        .launch(spec.ranks, |comm| {
            let me = comm.rank() as usize;
            let root = me == 0;
            let mut r = RootRun::default();
            if root {
                r.device_before = cluster.total_device_bytes();
                r.parity_bytes = cluster.total_parity_bytes();
                r.bytes_copied = process_bytes_copied();
            }
            comm.barrier();

            let t = Instant::now();
            let traffic = comm.traffic();
            let ((dump_secs, dump), dump_events) = traced_call(comm, traced, |comm| {
                let t = Instant::now();
                let out = repl.dump(comm, generation, bufs[me].clone());
                (t.elapsed().as_secs_f64(), out.map_err(|e| e.to_string()))
            });
            let dump_traffic = delta(comm.traffic(), traffic);
            comm.barrier();
            if root {
                r.dump_wall = t.elapsed().as_secs_f64();
                r.bytes_copied = process_bytes_copied().saturating_sub(r.bytes_copied);
                r.device_after_dump = cluster.total_device_bytes();
                r.parity_bytes = cluster.total_parity_bytes().saturating_sub(r.parity_bytes);
                let t = Instant::now();
                cluster.gc_superseded(generation);
                r.gc_secs = t.elapsed().as_secs_f64();
                r.device_bytes = cluster.total_device_bytes();
                damage(cluster);
            }
            comm.barrier();

            let t = Instant::now();
            let mut cursor = HealCursor::new(generation);
            let mut report = HealReport::default();
            let mut heal_steps = Vec::new();
            let heal = loop {
                let stage = cursor.stage;
                let t = Instant::now();
                let more = repl.heal_step(comm, &mut cursor, &mut report);
                heal_steps.push((stage, t.elapsed().as_secs_f64()));
                match more {
                    Ok(true) => {}
                    Ok(false) => break Ok(report),
                    Err(e) => break Err(e.to_string()),
                }
            };
            comm.barrier();
            if root {
                r.heal_wall = t.elapsed().as_secs_f64();
            }
            comm.barrier();

            let t = Instant::now();
            let ((restore_secs, restore), restore_events) = traced_call(comm, traced, |comm| {
                let t = Instant::now();
                let out = repl.restore(comm, generation);
                let secs = t.elapsed().as_secs_f64();
                (secs, out.map(|c| c == bufs[me]).map_err(|e| e.to_string()))
            });
            comm.barrier();
            if root {
                r.restore_wall = t.elapsed().as_secs_f64();
            }
            RankRun {
                dump_secs,
                dump,
                dump_traffic,
                dump_events,
                heal,
                heal_steps,
                restore_secs,
                restore,
                restore_events,
                root: root.then_some(r),
            }
        })
        .expect_all()
        .results;
    collect(bed, lane, generation, traced, &bufs, ranks)
}

fn collect(
    bed: &Bed,
    lane: usize,
    generation: u64,
    traced: bool,
    bufs: &[Chunk],
    ranks: Vec<RankRun>,
) -> LaneResult {
    let (label, strategy) = STRATEGIES[lane];
    let root = ranks[0].root.as_ref().expect("rank 0 records the walls");
    let mut dump = DumpOp {
        wall: root.dump_wall,
        rank_secs: ranks.iter().map(|r| r.dump_secs).collect(),
        stats: Vec::new(),
        failed: 0,
        first_error: None,
        traffic: TrafficReport {
            ranks: ranks.iter().map(|r| r.dump_traffic).collect(),
        },
        trace: traced.then(|| {
            WorldTrace::from_rank_events(ranks.iter().map(|r| r.dump_events.clone()).collect())
        }),
        bytes_copied: root.bytes_copied,
    };
    let mut heal = HealOp {
        wall: root.heal_wall,
        report: None,
        first_error: None,
        stage_secs: ranks[0].heal_steps.clone(),
    };
    let mut restore = RestoreOp {
        wall: root.restore_wall,
        rank_secs: ranks.iter().map(|r| r.restore_secs).collect(),
        failed: 0,
        wrong: 0,
        first_error: None,
        trace: traced.then(|| {
            WorldTrace::from_rank_events(ranks.iter().map(|r| r.restore_events.clone()).collect())
        }),
    };
    let mut reports = Vec::new();
    for r in &ranks {
        match &r.dump {
            Ok(stats) => dump.stats.push(stats.clone()),
            Err(e) => {
                dump.failed += 1;
                dump.first_error.get_or_insert_with(|| e.clone());
            }
        }
        match &r.heal {
            Ok(report) => reports.push(report),
            Err(e) => {
                heal.first_error.get_or_insert_with(|| e.clone());
            }
        }
        match &r.restore {
            Ok(true) => {}
            Ok(false) => restore.wrong += 1,
            Err(e) => {
                restore.failed += 1;
                restore.first_error.get_or_insert_with(|| e.clone());
            }
        }
    }
    if reports.len() == ranks.len() {
        heal.report = reports.first().map(|r| (*r).clone());
    }

    let mut violations = Vec::new();
    let wire_bytes: u64 = dump
        .traffic
        .ranks
        .iter()
        .map(|r| r.p2p_sent + r.rma_put)
        .sum();
    if dump.failed == 0 {
        if root.device_after_dump <= root.device_before {
            violations.push(format!(
                "{label} generation {generation}: the dump wrote no new device bytes"
            ));
        }
        let cfg = bed.spec.config(strategy);
        let stats = WorldDumpStats::from_ranks(strategy, cfg.chunk_size, dump.stats.clone());
        let m = DumpMeasurement::from_stats(&stats, cfg.f_threshold as u64);
        let pred = ClusterModel::default().predicted_traffic(&m);
        if !pred.within_band(wire_bytes, root.parity_bytes, SIM_BAND_PCT) {
            violations.push(format!(
                "{label} generation {generation}: traffic {wire_bytes} B wire + {} B parity is {:.1}% off the sim prediction",
                root.parity_bytes,
                pred.deviation_pct(wire_bytes, root.parity_bytes)
            ));
        }
    }
    if restore.wrong > 0 {
        violations.push(format!(
            "{label} generation {generation}: {} ranks restored wrong bytes",
            restore.wrong
        ));
    }
    LaneResult {
        dump,
        heal,
        restore,
        gc_secs: root.gc_secs,
        device_bytes: root.device_bytes,
        input_bytes: bufs.iter().map(|b| b.len() as u64).sum(),
        parity_bytes: root.parity_bytes,
        wire_bytes,
        violations,
    }
}
