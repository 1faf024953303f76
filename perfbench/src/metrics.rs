//! The metric vocabulary: every name and unit the benchmark prints, in
//! the order `BENCHMARK.json` lists them.

use replidedup_core::DUMP_PHASES;

use crate::workload::STRATEGIES;

/// Restore phases the program's tracer records on a coll-dedup restore.
pub const RESTORE_PHASES: [&str; 3] = ["manifest_recovery", "chunk_recovery", "reassemble"];

/// Heal stages as metric suffixes, in cursor order.
pub const HEAL_STAGES: [&str; 6] = ["gc", "scrub", "chunks", "manifests", "blobs", "stripes"];

/// End-to-end metrics (`--trace 0`), all lower-is-better.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m = vec![("setup_s".to_string(), "s")];
    for op in ["dump_s", "restore_s", "heal_s"] {
        m.extend(STRATEGIES.iter().map(|(l, _)| (format!("{op}.{l}"), "s")));
    }
    m.extend([
        ("dump_tail_s.coll-dedup".to_string(), "s"),
        ("restore_tail_s.coll-dedup".to_string(), "s"),
        ("wire_bytes.coll-dedup".to_string(), "B"),
        ("stored_ratio.coll-dedup".to_string(), "ratio"),
        ("peak_rss_mib".to_string(), "MiB"),
    ]);
    m
}

/// Per-layer metrics (`--trace 1`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &'static str)] = &[
        ("hash.sha1_mib_s", "MiB/s"),
        ("hash.gear_mib_s", "MiB/s"),
        ("hash.bytes_hashed", "B"),
        ("local.build_s", "s"),
        ("local.unique_ratio", "ratio"),
        ("local.wait_share", "ratio"),
        ("global.hmerge_s", "s"),
        ("global.view_entries", "count"),
        ("global.view_bytes", "B"),
        ("global.wait_share", "ratio"),
        ("shuffle.load_allgather_s", "s"),
        ("shuffle.rank_shuffle_s", "s"),
        ("shuffle.max_recv_bytes", "B"),
        ("shuffle.wait_share", "ratio"),
        ("offsets.window_plan_s", "s"),
        ("offsets.wait_share", "ratio"),
        ("plan.plan_chunks_s", "s"),
        ("plan.chunks_discarded", "count"),
        ("mpi.launch_s", "s"),
        ("mpi.barrier_s", "s"),
        ("mpi.allgather_u64_s", "s"),
        ("mpi.allreduce_u64_s", "s"),
        ("mpi.win_create_s", "s"),
        ("mpi.msgs_per_op", "count"),
        ("mpi.bytes_per_op", "B"),
        ("ec.encode_mib_s", "MiB/s"),
        ("ec.reconstruct_mib_s", "MiB/s"),
        ("ec.parity_bytes", "B"),
        ("storage.put_chunk_us", "us"),
        ("storage.get_chunk_us", "us"),
        ("storage.gc_s", "s"),
        ("storage.device_bytes", "B"),
        ("buf.bytes_copied", "B"),
        ("buf.pool_hit_ratio", "ratio"),
    ];
    let mut m: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    m.extend(
        HEAL_STAGES
            .iter()
            .map(|s| (format!("heal.stage_s.{s}"), "s")),
    );
    m.extend([
        ("heal.steps".to_string(), "count"),
        ("heal.bytes".to_string(), "B"),
        ("heal.shards_rebuilt".to_string(), "count"),
        ("heal.unrepairable_chunks".to_string(), "count"),
    ]);
    for (scope, phases) in [("dump", &DUMP_PHASES[..]), ("restore", &RESTORE_PHASES[..])] {
        for p in phases {
            for stat in ["median", "max"] {
                m.push((format!("{scope}.span_s.{p}.{stat}"), "s"));
            }
        }
    }
    m.extend([
        ("trace.overhead_pct".to_string(), "%"),
        ("failed_share".to_string(), "ratio"),
    ]);
    m
}
