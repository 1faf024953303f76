//! Per-layer metrics of the traced run. Isolated layer times come from
//! calls into each layer's public functions made here, on the workload's
//! own inputs; in-situ spans are read as-is from the program's tracer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use replidedup_core::{
    plan_chunks, rank_shuffle, try_reduce_global_view, window_plan, GlobalView, HealStage,
    LocalIndex, Strategy, WorldDumpStats, DUMP_PHASES,
};
use replidedup_ec::RsCode;
use replidedup_hash::{
    fingerprint_buffer, Chunker, FixedChunker, GearChunker, GearParams, Sha1ChunkHasher,
};
use replidedup_mpi::{Comm, WorldTrace};
use replidedup_storage::{Cluster, Placement};

use crate::metrics::{HEAL_STAGES, RESTORE_PHASES};
use crate::stats::median;
use crate::workload::{world, Bed, LaneResult, CHUNK_SIZE, COLL};

const MIB: f64 = 1024.0 * 1024.0;

/// Bytes of workload content fed to the per-chunk micro-benchmarks
/// (erasure coding, storage puts and gets).
const SAMPLE_BYTES: usize = 8 << 20;

/// Timed repetitions of each collective inside one world.
const COLLECTIVE_REPS: usize = 20;

/// One measured cycle: the three strategies' results and whether the
/// program's tracer was on.
pub struct Cycle {
    pub traced: bool,
    pub lanes: Vec<LaneResult>,
}

/// One rank's isolated run of the coll-dedup planning layers.
struct Planned {
    hmerge_s: f64,
    plan_s: f64,
    allgather_s: f64,
    view_entries: usize,
    view_bytes: usize,
    send_load: Vec<Vec<u64>>,
}

/// Median seconds per call of `f`, repeated for at least `min_secs` and
/// three calls.
fn per_call(min_secs: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 3 || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median over `cycles` of `f`, skipping cycles where it yields `None`.
fn over<'a>(cycles: impl Iterator<Item = &'a Cycle>, f: impl Fn(&Cycle) -> Option<f64>) -> f64 {
    let xs: Vec<f64> = cycles.filter_map(f).collect();
    median(&xs).unwrap_or(0.0)
}

fn coll(c: &Cycle) -> &LaneResult {
    &c.lanes[COLL]
}

/// Median seconds of `op`, a collective every rank of `comm` calls
/// [`COLLECTIVE_REPS`] times after a barrier.
fn time_collective(comm: &mut Comm, mut op: impl FnMut(&mut Comm)) -> f64 {
    comm.barrier();
    let secs: Vec<f64> = (0..COLLECTIVE_REPS)
        .map(|_| {
            let t = Instant::now();
            op(comm);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs).unwrap_or(0.0)
}

/// World median and max seconds of phase `name` in `trace`.
fn span(trace: &WorldTrace, name: &str) -> Option<(f64, f64)> {
    trace
        .aggregate()
        .into_iter()
        .find(|p| p.name == name)
        .map(|p| (p.median_ns as f64 * 1e-9, p.max_ns as f64 * 1e-9))
}

fn stage_name(stage: HealStage) -> Option<&'static str> {
    Some(match stage {
        HealStage::Gc => "gc",
        HealStage::Scrub => "scrub",
        HealStage::Chunks => "chunks",
        HealStage::Manifests => "manifests",
        HealStage::Blobs => "blobs",
        HealStage::Stripes => "stripes",
        _ => return None,
    })
}

/// Measure every per-layer metric on the inputs of `generation`.
pub fn measure(bed: &Bed, cycles: &[Cycle], generation: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    let spec = bed.spec;
    let n = spec.ranks;
    let bufs = bed.inputs.generation(generation);
    let total_bytes: usize = bufs.iter().map(|b| b.len()).sum();
    let plain = || cycles.iter().filter(|c| !c.traced);
    let traced = || cycles.iter().filter(|c| c.traced);
    let all = || cycles.iter();

    // hash
    let sha1 = per_call(0.2, || {
        for b in &bufs {
            black_box(fingerprint_buffer(&Sha1ChunkHasher, b, CHUNK_SIZE));
        }
    });
    put("hash.sha1_mib_s", ratio(total_bytes as f64 / MIB, sha1));
    let gear = GearChunker::new(GearParams::default());
    let gear_s = per_call(0.2, || {
        for b in &bufs {
            black_box(gear.chunks(b));
        }
    });
    put("hash.gear_mib_s", ratio(total_bytes as f64 / MIB, gear_s));
    put(
        "hash.bytes_hashed",
        over(all(), |c| {
            Some(
                coll(c)
                    .dump
                    .stats
                    .iter()
                    .map(|s| s.bytes_hashed)
                    .sum::<u64>() as f64,
            )
        }),
    );

    // core::local
    let fixed = FixedChunker::new(CHUNK_SIZE);
    let mut build_secs = Vec::new();
    let indexes: Vec<LocalIndex> = bufs
        .iter()
        .map(|b| {
            let t = Instant::now();
            let idx = LocalIndex::build(&Sha1ChunkHasher, b, &fixed, false);
            build_secs.push(t.elapsed().as_secs_f64());
            idx
        })
        .collect();
    let local_build = median(&build_secs).unwrap_or(0.0);
    put("local.build_s", local_build);
    let unique: usize = indexes.iter().map(LocalIndex::unique_count).sum();
    let chunks: usize = indexes.iter().map(LocalIndex::chunk_count).sum();
    put("local.unique_ratio", ratio(unique as f64, chunks as f64));

    // core::global, core::plan, core::shuffle (load allgather)
    let cfg = spec.config(Strategy::CollDedup);
    let k = cfg.policy.hmerge_k(cfg.replication);
    let f = cfg.f_threshold;
    let run = world()
        .launch(n, |comm| {
            let me = comm.rank();
            let local = &indexes[me as usize];
            comm.barrier();
            let t = Instant::now();
            let leaf = GlobalView::from_local(me, local.unique.keys().copied(), f);
            let view = try_reduce_global_view(comm, leaf, k, f)
                .expect("a fault-free world completes the reduction");
            let hmerge_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let plan = plan_chunks(me, local, &view, k);
            let plan_s = t.elapsed().as_secs_f64();
            let mut load = vec![plan.keep.len() as u64];
            load.extend(plan.send_lists.iter().map(|l| l.len() as u64));
            comm.barrier();
            let t = Instant::now();
            let send_load = comm.allgather(load);
            let allgather_s = t.elapsed().as_secs_f64();
            Planned {
                hmerge_s,
                plan_s,
                allgather_s,
                view_entries: view.len(),
                view_bytes: view.wire_size(),
                send_load,
            }
        })
        .expect_all()
        .results;
    let med =
        |f: fn(&Planned) -> f64| median(&run.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let hmerge = med(|r| r.hmerge_s);
    let load_allgather = med(|r| r.allgather_s);
    put("global.hmerge_s", hmerge);
    put("plan.plan_chunks_s", med(|r| r.plan_s));
    put("global.view_entries", run[0].view_entries as f64);
    put("global.view_bytes", run[0].view_bytes as f64);
    put("shuffle.load_allgather_s", load_allgather);
    let send_load = &run[0].send_load;
    let shuffle_s = per_call(0.05, || {
        black_box(rank_shuffle(send_load, k));
    });
    put("shuffle.rank_shuffle_s", shuffle_s);
    let shuffle = rank_shuffle(send_load, k);
    let window_s = per_call(0.05, || {
        black_box(window_plan(&shuffle, send_load, k));
    });
    put("offsets.window_plan_s", window_s);
    put(
        "shuffle.max_recv_bytes",
        over(all(), |c| {
            let d = &coll(c).dump;
            let stats = WorldDumpStats::from_ranks(cfg.strategy, cfg.chunk_size, d.stats.clone());
            Some(stats.max_recv_bytes() as f64)
        }),
    );
    put(
        "plan.chunks_discarded",
        over(all(), |c| {
            Some(
                coll(c)
                    .dump
                    .stats
                    .iter()
                    .map(|s| s.chunks_discarded)
                    .sum::<u64>() as f64,
            )
        }),
    );

    // mpi
    let w = world();
    put(
        "mpi.launch_s",
        per_call(0.2, || {
            w.launch(n, |_| ()).expect_all();
        }),
    );
    let collective_secs = w
        .launch(n, |comm| {
            let me = u64::from(comm.rank());
            [
                time_collective(comm, |c| c.barrier()),
                time_collective(comm, |c| {
                    black_box(c.allgather(me));
                }),
                time_collective(comm, |c| {
                    black_box(c.allreduce(me, |a, b| a + b));
                }),
                time_collective(comm, |c| {
                    black_box(c.win_create(CHUNK_SIZE));
                }),
            ]
        })
        .expect_all()
        .results;
    for (i, name) in [
        "mpi.barrier_s",
        "mpi.allgather_u64_s",
        "mpi.allreduce_u64_s",
        "mpi.win_create_s",
    ]
    .iter()
    .enumerate()
    {
        put(
            name,
            median(&collective_secs.iter().map(|r| r[i]).collect::<Vec<_>>()).unwrap_or(0.0),
        );
    }
    put(
        "mpi.msgs_per_op",
        over(all(), |c| {
            Some(
                coll(c)
                    .dump
                    .traffic
                    .ranks
                    .iter()
                    .map(|r| r.msgs_sent)
                    .sum::<u64>() as f64,
            )
        }),
    );
    put(
        "mpi.bytes_per_op",
        over(all(), |c| Some(coll(c).dump.traffic.total_sent() as f64)),
    );

    // ec: one stripe per 4 KiB chunk of content, as the dump codes them.
    let sample: Vec<Bytes> = bufs
        .iter()
        .flat_map(|b| {
            b.as_bytes()
                .chunks(CHUNK_SIZE)
                .map(Bytes::copy_from_slice)
                .collect::<Vec<_>>()
        })
        .take(SAMPLE_BYTES / CHUNK_SIZE)
        .collect();
    let sample_mib = sample.iter().map(Bytes::len).sum::<usize>() as f64 / MIB;
    let rs = RsCode::new(4, 2).expect("4+2 is a valid code");
    let encode_s = per_call(0.2, || {
        for c in &sample {
            black_box(rs.encode(c));
        }
    });
    put("ec.encode_mib_s", ratio(sample_mib, encode_s));
    let stripes: Vec<Vec<Bytes>> = sample.iter().map(|c| rs.encode(c)).collect();
    let rebuild_s = per_call(0.2, || {
        for (c, shards) in sample.iter().zip(&stripes) {
            let survivors: Vec<(u8, &[u8])> =
                (1..=4u8).map(|i| (i, &shards[i as usize][..])).collect();
            black_box(
                rs.reconstruct_shard(&survivors, 0, c.len())
                    .expect("k survivors decode"),
            );
        }
    });
    put("ec.reconstruct_mib_s", ratio(sample_mib, rebuild_s));
    put(
        "ec.parity_bytes",
        over(all(), |c| Some(coll(c).parity_bytes as f64)),
    );

    // storage
    let fps: Vec<_> = indexes
        .iter()
        .flat_map(|idx| idx.in_order.iter().copied())
        .zip(sample.iter().cloned())
        .collect();
    let put_s = per_call(0.2, || {
        let c = Cluster::new(Placement::one_per_node(1));
        for (fp, data) in &fps {
            black_box(c.put_chunk(0, *fp, data.clone()).expect("node 0 is alive"));
        }
    });
    put("storage.put_chunk_us", ratio(put_s * 1e6, fps.len() as f64));
    let store = Cluster::new(Placement::one_per_node(1));
    for (fp, data) in &fps {
        store
            .put_chunk(0, *fp, data.clone())
            .expect("node 0 is alive");
    }
    let get_s = per_call(0.2, || {
        for (fp, _) in &fps {
            black_box(store.get_chunk(0, fp).expect("stored above"));
        }
    });
    put("storage.get_chunk_us", ratio(get_s * 1e6, fps.len() as f64));
    put("storage.gc_s", over(plain(), |c| Some(coll(c).gc_secs)));
    put(
        "storage.device_bytes",
        over(all(), |c| Some(coll(c).device_bytes as f64)),
    );

    // buf
    put(
        "buf.bytes_copied",
        over(all(), |c| Some(coll(c).dump.bytes_copied as f64)),
    );

    // core::heal: per cycle, summed over the three strategies' heals.
    for stage in HEAL_STAGES {
        put(
            &format!("heal.stage_s.{stage}"),
            over(plain(), |c| {
                Some(
                    c.lanes
                        .iter()
                        .flat_map(|l| &l.heal.stage_secs)
                        .filter(|(s, _)| stage_name(*s) == Some(stage))
                        .map(|(_, secs)| secs)
                        .sum(),
                )
            }),
        );
    }
    let heal_sum = |f: fn(&replidedup_core::HealReport) -> u64| {
        over(all(), move |c| {
            Some(
                c.lanes
                    .iter()
                    .filter_map(|l| l.heal.report.as_ref())
                    .map(f)
                    .sum::<u64>() as f64,
            )
        })
    };
    put("heal.steps", heal_sum(|r| r.steps));
    put("heal.bytes", heal_sum(|r| r.heal_bytes()));
    put("heal.shards_rebuilt", heal_sum(|r| r.shards_rebuilt));
    put(
        "heal.unrepairable_chunks",
        heal_sum(|r| r.unrepairable_chunks.len() as u64),
    );

    // In-situ spans of coll-dedup, world median and max per traced cycle.
    let spans = |scope: &str, phases: &[&str], get: &dyn Fn(&Cycle) -> Option<&WorldTrace>| {
        let mut m = BTreeMap::new();
        for p in phases {
            let mid = over(traced(), |c| get(c).and_then(|t| span(t, p)).map(|s| s.0));
            let max = over(traced(), |c| get(c).and_then(|t| span(t, p)).map(|s| s.1));
            m.insert(format!("{scope}.span_s.{p}.median"), mid);
            m.insert(format!("{scope}.span_s.{p}.max"), max);
        }
        m
    };
    let dump_spans = spans("dump", &DUMP_PHASES, &|c| coll(c).dump.trace.as_ref());
    let restore_spans = spans("restore", &RESTORE_PHASES, &|c| {
        coll(c).restore.trace.as_ref()
    });
    let span_mid = |p: &str| dump_spans[&format!("dump.span_s.{p}.median")];
    let wait = |isolated: f64, span: f64| {
        if span == 0.0 {
            0.0
        } else {
            1.0 - isolated / span
        }
    };
    put(
        "local.wait_share",
        wait(local_build, span_mid("local_dedup")),
    );
    put("global.wait_share", wait(hmerge, span_mid("hmerge_reduce")));
    put(
        "shuffle.wait_share",
        wait(load_allgather, span_mid("load_allgather")),
    );
    put("offsets.wait_share", wait(window_s, span_mid("calc_off")));
    out.extend(dump_spans);
    out.extend(restore_spans);

    // Tracing cost: a traced cycle's wall time against an untraced one's.
    let cycle_wall = |c: &Cycle| {
        Some(
            c.lanes
                .iter()
                .map(|l| l.dump.wall + l.heal.wall + l.restore.wall)
                .sum::<f64>(),
        )
    };
    let overhead = 100.0 * (ratio(over(traced(), cycle_wall), over(plain(), cycle_wall)) - 1.0);
    out.insert("trace.overhead_pct".to_string(), overhead);
    out
}
