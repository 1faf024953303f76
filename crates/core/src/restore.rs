//! Collective restore: reconstruct every rank's buffer after failures.
//!
//! The paper's evaluation exercises checkpoint *writing*; restart is left
//! implicit. A replication library is only useful if the replicas are
//! reachable again, so this module adds the missing half as a collective
//! protocol that uses only messages (no shared-memory shortcuts). Each
//! step is planned once, at a fixed planner rank ([`RESTORE_PLANNER`]):
//! every rank sends its inputs there with a gather, the planner assigns
//! servers and broadcasts the assignment, and every rank then fetches,
//! serves and verifies its own data.
//!
//! 1. **Manifest recovery** — each rank sends whether it lost its
//!    manifest, which manifests its node holds (its own plus the ones
//!    replicated to it as a partner) and its node's tombstones; the
//!    planner gives each needy rank the lowest-ranked other advertiser as
//!    its server.
//! 2. **Chunk recovery** — each rank sends the manifest chunks missing
//!    from its local store, and each node leader its node's chunk
//!    inventory; the planner names, per requested chunk, the lowest rank
//!    whose node holds it. Restored chunks are written back to the local
//!    store, so a revived node is re-seeded as a side effect.
//!
//! `no-dedup` dumps restore the raw blob through the same
//! gather/assign/broadcast plan as step 1, at blob granularity.
//!
//! When the dump ran under an erasure-coding redundancy policy, a payload
//! whose replicas are all gone gets one last chance: Reed-Solomon
//! reconstruction from any `k` surviving shards of its stripe
//! ([`replidedup_storage::Cluster::reconstruct_payload`]). Reconstructed
//! payloads are hash-verified and re-seeded locally, exactly like replica
//! rescues.
//!
//! Every rank participates in every collective step even when its own
//! restore already failed (e.g. manifest unrecoverable), so one lost rank
//! can never deadlock the others.

use std::collections::hash_map::Entry;

use bytes::Bytes;
use replidedup_buf::{global_pool, record_copy, Chunk};
use replidedup_hash::{Fingerprint, FpHashMap, FpHashSet};
use replidedup_mpi::wire::{FrameReader, FrameWriter};
use replidedup_mpi::{Comm, CommError, Tag};
use replidedup_storage::{Cluster, DumpId, NodeId, StorageError, StripeKey};

use crate::config::Strategy;
use crate::dump::DumpContext;
use crate::repair::leader_of;
use crate::retry::RetryPolicy;

const TAG_RESTORE_MANIFEST: Tag = 0x5250_0002;
const TAG_RESTORE_CHUNKS: Tag = 0x5250_0003;
const TAG_RESTORE_BLOB: Tag = 0x5250_0004;

/// Failures of a collective restore (per rank).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// Local node refused I/O.
    Storage(StorageError),
    /// No live node holds this rank's manifest: more than `K-1` of its
    /// replica holders failed.
    ManifestLost {
        /// The rank whose manifest is gone.
        rank: u32,
    },
    /// No live node holds this rank's raw blob (`no-dedup`).
    BlobLost {
        /// The rank whose blob is gone.
        rank: u32,
    },
    /// A chunk referenced by the manifest has no live holder.
    ChunkLost(Fingerprint),
    /// The dump this restore targets committed in degraded mode while this
    /// rank was dead: its data was never written anywhere. Distinct from
    /// [`RestoreError::ManifestLost`], where the data existed but every
    /// replica holder has since failed.
    AbsentAtDump {
        /// The rank whose data was absent.
        rank: u32,
        /// The degraded dump generation.
        dump_id: DumpId,
    },
    /// A rank died (or a deadlock was suspected) during one of the restore
    /// protocol's collective steps.
    Comm(CommError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Storage(e) => write!(f, "storage failure during restore: {e}"),
            RestoreError::ManifestLost { rank } => write!(f, "manifest of rank {rank} lost"),
            RestoreError::BlobLost { rank } => write!(f, "blob of rank {rank} lost"),
            RestoreError::ChunkLost(fp) => write!(f, "chunk {fp} lost on all nodes"),
            RestoreError::AbsentAtDump { rank, dump_id } => write!(
                f,
                "rank {rank}'s data was absent when dump {dump_id} committed (degraded dump)"
            ),
            RestoreError::Comm(e) => write!(f, "communication failure during restore: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Storage(e) => Some(e),
            RestoreError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for RestoreError {
    fn from(e: StorageError) -> Self {
        RestoreError::Storage(e)
    }
}

impl From<CommError> for RestoreError {
    fn from(e: CommError) -> Self {
        RestoreError::Comm(e)
    }
}

pub(crate) fn restore_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    strategy: Strategy,
    policy: &RetryPolicy,
) -> Result<Chunk, RestoreError> {
    match strategy {
        Strategy::NoDedup => restore_blob(comm, ctx, policy),
        Strategy::LocalDedup | Strategy::CollDedup => restore_chunks(comm, ctx, policy),
    }
}

/// Run one storage read under the restore retry policy. Retries are only
/// taken on [`StorageError::is_transient`] failures; when any happen, a
/// zero-length `restore.retry` span marks the spot in the phase trace and
/// the `restore_retries` counter records how many attempts it cost.
fn fetch_with_retry<T>(
    comm: &mut Comm,
    policy: &RetryPolicy,
    op: impl FnMut() -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let (out, retries) = policy.run(op);
    if retries > 0 {
        comm.tracer().enter("restore.retry");
        comm.tracer().exit("restore.retry");
        comm.tracer().counter("restore_retries", u64::from(retries));
    }
    out
}

/// Verified chunk fetch for the reassemble step: read the local copy,
/// re-hash it against its fingerprint, and on corruption (or a local copy
/// that is missing / past its retry budget) fall back to any intact live
/// replica through [`replidedup_storage::Cluster::find_chunk`]'s repair
/// index — a deliberate storage-layer escape hatch outside the restore
/// message protocol, taken only when the protocol's own recovery already
/// ran and the local device still cannot produce intact bytes. Corrupt
/// copies are quarantined wherever they are found; a rescued chunk is
/// re-seeded locally so the next read is clean.
fn fetch_verified(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    policy: &RetryPolicy,
    node: replidedup_storage::NodeId,
    fp: &Fingerprint,
) -> Result<Bytes, RestoreError> {
    match fetch_with_retry(comm, policy, || ctx.cluster.get_chunk(node, fp)) {
        Ok(data) if ctx.hasher.fingerprint(&data) == *fp => return Ok(data),
        Ok(_) => {
            // Bit rot slipped past the dump: drop the bad copy so it can
            // never be served again, then go hunting for a good one.
            ctx.cluster.quarantine_chunk(node, fp).ok();
        }
        // Anything else (missing, node down, retries exhausted): the
        // replica scan below is the last line before declaring loss.
        Err(_) => {}
    }
    comm.tracer().counter("restore_replica_fallback", 1);
    for nd in 0..ctx.cluster.node_count() {
        if nd == node || !ctx.cluster.has_chunk(nd, fp) {
            continue;
        }
        if let Ok(data) = fetch_with_retry(comm, policy, || ctx.cluster.get_chunk(nd, fp)) {
            if ctx.hasher.fingerprint(&data) == *fp {
                ctx.cluster.put_chunk(node, *fp, data.clone()).ok();
                return Ok(data);
            }
            ctx.cluster.quarantine_chunk(nd, fp).ok();
        }
    }
    // Last line of defence: the chunk was erasure-coded and any `k` of its
    // stripe's shards survive somewhere in the cluster.
    if let Some(data) = ctx.cluster.reconstruct_payload(StripeKey::Chunk(*fp)) {
        if ctx.hasher.fingerprint(&data) == *fp {
            comm.tracer().counter("restore_rs_reconstructed", 1);
            ctx.cluster.put_chunk(node, *fp, data.clone()).ok();
            return Ok(data);
        }
    }
    Err(RestoreError::ChunkLost(*fp))
}

/// The rank that plans every restore step. Fixed rather than
/// [`crate::repair::planner_rank`]: restore planning reads no storage at
/// the planner, so a node dying mid-step cannot split the choice.
const RESTORE_PLANNER: u32 = 0;

/// Replica service assignment, computed once at the planner: for each
/// needy rank, the lowest-ranked advertiser other than itself serves.
/// `holders[s]` lists (sorted) the owners whose replica rank `s` can read
/// from its node; returns `server_of[r]` = server of rank `r` (`None` when
/// no one can).
fn assign_servers(world: u32, needs: &[bool], holders: &[Vec<u32>]) -> Vec<Option<u32>> {
    (0..world)
        .map(|r| {
            if !needs[r as usize] {
                return None;
            }
            (0..world).find(|&s| s != r && holders[s as usize].binary_search(&r).is_ok())
        })
        .collect()
}

/// Chunk service assignment, computed once at the planner. `node_of[r]`
/// is rank `r`'s node, `held[nd]` node `nd`'s sorted chunk inventory
/// (empty for a dead node) and `missing[r]` the chunks rank `r` requests.
/// Returns, aligned with `missing`, the lowest rank whose node holds each
/// chunk, or `None` when no node does.
fn assign_chunk_servers(
    node_of: &[NodeId],
    held: &[Vec<Fingerprint>],
    missing: &[Vec<Fingerprint>],
) -> Vec<Vec<Option<u32>>> {
    // The lowest rank on a node (its leader) is the first of that node's
    // ranks a rank-order scan reaches, so only leaders need checking.
    let mut seen = vec![false; held.len()];
    let mut leaders: Vec<(u32, &[Fingerprint])> = Vec::new();
    for (r, &nd) in (0u32..).zip(node_of) {
        let nd = nd as usize;
        if nd < held.len() && !seen[nd] {
            seen[nd] = true;
            leaders.push((r, &held[nd]));
        }
    }
    missing
        .iter()
        .map(|fps| {
            fps.iter()
                .map(|fp| {
                    leaders
                        .iter()
                        .find(|(_, inv)| inv.binary_search(fp).is_ok())
                        .map(|&(s, _)| s)
                })
                .collect()
        })
        .collect()
}

/// Plan one replica service step (manifests or blobs) at the planner.
/// Each rank sends whether it needs its replica, the owners whose
/// replicas its node holds and the ranks its node tombstoned for the
/// dump; every rank gets back `(server, absent)` per rank, where
/// `absent` says some node tombstoned that rank.
fn plan_replica_service(
    comm: &mut Comm,
    need: bool,
    owners: Vec<u32>,
    tombstoned: Vec<u32>,
) -> Result<Vec<(Option<u32>, bool)>, CommError> {
    let n = comm.size();
    let plan = comm
        .try_gather(RESTORE_PLANNER, (need, owners, tombstoned))?
        .map(|info| {
            let needs: Vec<bool> = info.iter().map(|(need, _, _)| *need).collect();
            let mut absent = vec![false; n as usize];
            for r in info.iter().flat_map(|(_, _, a)| a) {
                if let Some(slot) = absent.get_mut(*r as usize) {
                    *slot = true;
                }
            }
            let holders: Vec<Vec<u32>> = info.into_iter().map(|(_, h, _)| h).collect();
            assign_servers(n, &needs, &holders)
                .into_iter()
                .zip(absent)
                .collect()
        });
    comm.try_bcast(RESTORE_PLANNER, plan)
}

/// Ranks that `me` serves under a replica service plan, ascending.
fn served_by(plan: &[(Option<u32>, bool)], me: u32) -> impl Iterator<Item = u32> + '_ {
    (0u32..)
        .zip(plan)
        .filter(move |(_, (server, _))| *server == Some(me))
        .map(|(r, _)| r)
}

/// Every rank's chunk requests, each with the rank that serves it (`None`
/// when no live node holds the chunk).
type ChunkPlan = Vec<Vec<(Fingerprint, Option<u32>)>>;

/// Plan the chunk step at the planner. Each rank sends its sorted
/// missing chunks and, if it leads its node, the node's sorted chunk
/// inventory (a dead node's is empty); every rank gets back each rank's
/// requests with their servers aligned to them.
fn plan_chunk_service(
    comm: &mut Comm,
    cluster: &Cluster,
    missing: Vec<Fingerprint>,
) -> Result<ChunkPlan, CommError> {
    let me = comm.rank();
    let n = comm.size();
    let node = cluster.node_of(me);
    let inventory = if leader_of(cluster, node, n) == Some(me) {
        cluster.chunk_fps(node).unwrap_or_default()
    } else {
        Vec::new()
    };
    let plan = comm
        .try_gather(RESTORE_PLANNER, (missing, inventory))?
        .map(|all| {
            let node_of: Vec<NodeId> = (0..n).map(|r| cluster.node_of(r)).collect();
            let mut held = vec![Vec::new(); cluster.node_count() as usize];
            let mut missing = Vec::with_capacity(all.len());
            for (r, (wanted, inv)) in (0u32..).zip(all) {
                if leader_of(cluster, node_of[r as usize], n) == Some(r) {
                    held[node_of[r as usize] as usize] = inv;
                }
                missing.push(wanted);
            }
            let servers = assign_chunk_servers(&node_of, &held, &missing);
            missing
                .into_iter()
                .zip(servers)
                .map(|(fps, s)| fps.into_iter().zip(s).collect())
                .collect()
        });
    comm.try_bcast(RESTORE_PLANNER, plan)
}

fn restore_blob(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    policy: &RetryPolicy,
) -> Result<Chunk, RestoreError> {
    let me = comm.rank();
    let node = ctx.cluster.node_of(me);
    comm.tracer().enter("blob_recovery");
    let local = fetch_with_retry(comm, policy, || ctx.cluster.get_blob(node, me, ctx.dump_id)).ok();
    let advertised = ctx
        .cluster
        .blob_owners(node, ctx.dump_id)
        .unwrap_or_default();
    let tombstoned = ctx
        .cluster
        .absent_ranks(node, ctx.dump_id)
        .unwrap_or_default();
    let plan = plan_replica_service(comm, local.is_none(), advertised, tombstoned)?;
    let (server, absent) = plan[me as usize];
    for r in served_by(&plan, me) {
        // The served blob travels as the stored allocation itself — no
        // length-prefixed re-encode, no copy.
        let blob = fetch_with_retry(comm, policy, || ctx.cluster.get_blob(node, r, ctx.dump_id))?;
        comm.try_send_bytes(r, TAG_RESTORE_BLOB, blob)?;
    }
    let result = match local {
        Some(b) => Ok(Chunk::from(b)),
        None => match server {
            Some(s) => {
                let data = comm.try_recv_chunk(s, TAG_RESTORE_BLOB)?;
                // Re-seed the local device so this node serves next time
                // (refcount bump — the stored blob is the received one).
                ctx.cluster
                    .put_blob(node, me, ctx.dump_id, data.as_bytes().clone())
                    .ok();
                Ok(data)
            }
            None => {
                // No live replica — but a blob dumped under an `Rs` policy
                // was striped instead of replicated, so any `k` surviving
                // shards can still rebuild it.
                if let Some(data) = ctx.cluster.reconstruct_payload(StripeKey::Blob {
                    owner: me,
                    dump_id: ctx.dump_id,
                }) {
                    comm.tracer().counter("restore_rs_reconstructed", 1);
                    ctx.cluster
                        .put_blob(node, me, ctx.dump_id, data.clone())
                        .ok();
                    Ok(Chunk::from(data))
                } else if absent {
                    Err(RestoreError::AbsentAtDump {
                        rank: me,
                        dump_id: ctx.dump_id,
                    })
                } else {
                    Err(RestoreError::BlobLost { rank: me })
                }
            }
        },
    };
    comm.try_barrier()?;
    comm.tracer().exit("blob_recovery");
    result
}

fn restore_chunks(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    policy: &RetryPolicy,
) -> Result<Chunk, RestoreError> {
    let me = comm.rank();
    let node = ctx.cluster.node_of(me);

    // ---- Step 1: manifest recovery --------------------------------------
    comm.tracer().enter("manifest_recovery");
    let mut manifest = fetch_with_retry(comm, policy, || {
        ctx.cluster.get_manifest(node, me, ctx.dump_id)
    })
    .ok();
    let advertised = ctx
        .cluster
        .manifest_owners(node, ctx.dump_id)
        .unwrap_or_default();
    let tombstoned = ctx
        .cluster
        .absent_ranks(node, ctx.dump_id)
        .unwrap_or_default();
    let plan = plan_replica_service(comm, manifest.is_none(), advertised, tombstoned)?;
    let (server, absent) = plan[me as usize];
    for r in served_by(&plan, me) {
        let m = fetch_with_retry(comm, policy, || {
            ctx.cluster.get_manifest(node, r, ctx.dump_id)
        })?;
        comm.try_send_val(r, TAG_RESTORE_MANIFEST, &m)?;
    }
    if manifest.is_none() {
        if let Some(s) = server {
            let m: replidedup_storage::Manifest = comm.try_recv_val(s, TAG_RESTORE_MANIFEST)?;
            ctx.cluster.put_manifest(node, m.clone()).ok();
            manifest = Some(m);
        }
    }
    let manifest_lost = manifest.is_none();
    comm.tracer().exit("manifest_recovery");

    // ---- Step 2: chunk recovery ------------------------------------------
    comm.tracer().enter("chunk_recovery");
    // Missing = manifest chunks absent from my node (deduplicated).
    let mut missing: Vec<Fingerprint> = Vec::new();
    if let Some(m) = &manifest {
        let mut seen = FpHashSet::default();
        for fp in &m.chunks {
            if seen.insert(*fp) && !ctx.cluster.has_chunk(node, fp) {
                missing.push(*fp);
            }
        }
        missing.sort_unstable();
    }
    let requests = plan_chunk_service(comm, ctx.cluster, missing)?;

    // Serve: group my outgoing chunks per requester into one scatter-gather
    // frame — fingerprints in the header segments, chunk bodies attached as
    // zero-copy slices of the store's own allocations.
    for (r, wanted) in (0u32..).zip(&requests) {
        if r == me {
            continue;
        }
        let mut batch = FrameWriter::new();
        let mut batched = 0usize;
        for (fp, _) in wanted.iter().filter(|(_, s)| *s == Some(me)) {
            let data = fetch_with_retry(comm, policy, || ctx.cluster.get_chunk(node, fp))?;
            batch.put(fp);
            batch.attach(data);
            batched += 1;
        }
        if batched > 0 {
            comm.try_send_frame(r, TAG_RESTORE_CHUNKS, batch.finish())?;
        }
    }

    // Receive: I know exactly which servers owe me a batch.
    let mine = &requests[me as usize];
    let mut lost: Option<Fingerprint> = None;
    let mut expected_servers: Vec<u32> = Vec::new();
    for (fp, server) in mine {
        match *server {
            Some(s) if s != me => expected_servers.push(s),
            Some(_) => {} // cannot happen: missing means I do not have it
            None => {
                // No live holder anywhere — try Reed-Solomon reconstruction
                // from surviving shards before declaring the chunk lost.
                // A rescued chunk is seeded locally so the reassemble step
                // (and every later restore) reads it like any other copy.
                let rebuilt = ctx
                    .cluster
                    .reconstruct_payload(StripeKey::Chunk(*fp))
                    .filter(|data| ctx.hasher.fingerprint(data) == *fp);
                match rebuilt {
                    Some(data) => {
                        comm.tracer().counter("restore_rs_reconstructed", 1);
                        ctx.cluster.put_chunk(node, *fp, data).ok();
                    }
                    None => lost = lost.or(Some(*fp)),
                }
            }
        }
    }
    expected_servers.sort_unstable();
    expected_servers.dedup();
    for s in expected_servers {
        let mut batch = FrameReader::new(comm.try_recv_frame(s, TAG_RESTORE_CHUNKS)?);
        while batch.remaining() > 0 {
            let fp: Fingerprint = batch
                .get()
                .unwrap_or_else(|e| panic!("rank {me}: corrupt chunk batch from {s}: {e}"));
            let data = batch
                .take_payload()
                .unwrap_or_else(|e| panic!("rank {me}: corrupt chunk batch from {s}: {e}"));
            // Write back: restores the failed node's share of the data
            // (zero-copy — the stored chunk is a slice of the frame).
            ctx.cluster.put_chunk(node, fp, data.into_bytes()).ok();
        }
    }

    comm.tracer().exit("chunk_recovery");
    comm.tracer().counter("chunks_recovered", mine.len() as u64);

    // ---- Step 3: reassemble ----------------------------------------------
    comm.tracer().enter("reassemble");
    let result = if manifest_lost && absent {
        Err(RestoreError::AbsentAtDump {
            rank: me,
            dump_id: ctx.dump_id,
        })
    } else if manifest_lost {
        Err(RestoreError::ManifestLost { rank: me })
    } else if let Some(fp) = lost {
        Err(RestoreError::ChunkLost(fp))
    } else {
        let m = manifest.expect("checked above");
        // Pool-recycled reassembly buffer; the gather below is the one
        // unavoidable copy of a chunked restore (scattered chunks into a
        // contiguous buffer), so it is charged to the copy accounting. The
        // filled buffer freezes into the returned `Chunk` without another
        // copy.
        let mut buf = global_pool().take(m.total_len as usize);
        let mut err = None;
        // Verified reassemble: every distinct chunk is re-hashed against
        // its fingerprint on first use, so silent bit rot can never leak
        // into a restored buffer. Later occurrences reuse the immutable
        // handle that passed, so each distinct chunk is hashed once per
        // restore call; the map dies with the call.
        let mut verified: FpHashMap<Bytes> = FpHashMap::default();
        for (i, fp) in m.chunks.iter().enumerate() {
            let data = match verified.entry(*fp) {
                Entry::Occupied(hit) => hit.into_mut(),
                Entry::Vacant(slot) => match fetch_verified(comm, ctx, policy, node, fp) {
                    Ok(data) => slot.insert(data),
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                },
            };
            debug_assert_eq!(data.len(), m.chunk_len(i), "chunk {i} length mismatch");
            buf.extend_from_slice(data);
            record_copy(data.len());
        }
        match err {
            Some(e) => Err(e),
            None => Ok(Chunk::from(buf)),
        }
    };
    comm.try_barrier()?;
    comm.tracer().exit("reassemble");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DumpConfig, Strategy};
    use crate::dump::dump_impl;
    use replidedup_buf::Chunk;
    use replidedup_hash::Sha1ChunkHasher;
    use replidedup_mpi::WorldConfig;
    use replidedup_storage::{Cluster, Placement};

    fn buffer_of(rank: u32) -> Vec<u8> {
        // Mixed shared/private content with a tail chunk.
        let mut buf = vec![0xAB; 64]; // shared across ranks
        buf.extend_from_slice(&[rank as u8 + 1; 64]);
        buf.extend_from_slice(&[0xCD; 20]); // tail
        buf
    }

    fn dump_then<T: Send>(
        n: u32,
        strategy: Strategy,
        k: u32,
        between: impl Fn(&Cluster) + Sync,
        after: impl Fn(&mut Comm, &DumpContext<'_>) -> T + Sync,
    ) -> Vec<T> {
        let cluster = Cluster::new(Placement::one_per_node(n));
        let cfg = DumpConfig::paper_defaults(strategy)
            .with_replication(k)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(n, |comm| {
                let ctx = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                let buf = buffer_of(comm.rank());
                dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg).expect("dump");
                comm.barrier();
                if comm.rank() == 0 {
                    between(&cluster);
                }
                comm.barrier();
                after(comm, &ctx)
            })
            .expect_all();
        out.results
    }

    #[test]
    fn restore_without_failures_roundtrips_all_strategies() {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            let results = dump_then(
                4,
                strategy,
                3,
                |_| {},
                |comm, ctx| {
                    let buf = restore_impl(comm, ctx, strategy, &RetryPolicy::default_restore())
                        .map(Vec::from)
                        .expect("restore");
                    (comm.rank(), buf)
                },
            );
            for (rank, buf) in results {
                assert_eq!(buf, buffer_of(rank), "{strategy:?} rank {rank}");
            }
        }
    }

    #[test]
    fn restore_survives_k_minus_1_failures() {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            let results = dump_then(
                5,
                strategy,
                3,
                |cluster| {
                    // Fail K-1 = 2 nodes; revive as blank replacements.
                    cluster.fail_node(1);
                    cluster.fail_node(3);
                    cluster.revive_node(1);
                    cluster.revive_node(3);
                },
                |comm, ctx| {
                    let buf = restore_impl(comm, ctx, strategy, &RetryPolicy::default_restore())
                        .map(Vec::from)
                        .expect("restore after failures");
                    (comm.rank(), buf)
                },
            );
            for (rank, buf) in results {
                assert_eq!(buf, buffer_of(rank), "{strategy:?} rank {rank}");
            }
        }
    }

    #[test]
    fn restore_reseeds_revived_nodes() {
        let results = dump_then(
            4,
            Strategy::CollDedup,
            2,
            |cluster| {
                cluster.fail_node(2);
                cluster.revive_node(2);
            },
            |comm, ctx| {
                restore_impl(
                    comm,
                    ctx,
                    Strategy::CollDedup,
                    &RetryPolicy::default_restore(),
                )
                .map(Vec::from)
                .expect("restore");
                comm.barrier();
                // After restore, node 2 must again hold rank 2's chunks.
                if comm.rank() == 2 {
                    let m = ctx
                        .cluster
                        .get_manifest(2, 2, 1)
                        .expect("manifest re-seeded");
                    m.chunks.iter().all(|fp| ctx.cluster.has_chunk(2, fp))
                } else {
                    true
                }
            },
        );
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn too_many_failures_report_loss_without_deadlock() {
        // K=2 but both copies of rank 1's data die (its own node plus its
        // partner's). Rank 1 must get a loss error; everyone else restores.
        let results = dump_then(
            4,
            Strategy::CollDedup,
            2,
            |cluster| {
                // With identity shuffle (no-shuffle default is shuffle=true
                // for coll; partners depend on loads — fail rank 1's node
                // and every other node that could hold its manifest: for
                // K=2 exactly one partner holds it. Failing all nodes but
                // one that holds nothing of rank 1 is fiddly; instead fail
                // every node except node 0 and revive them, guaranteeing
                // loss unless node 0 happens to hold everything of rank 1.
                for nd in 1..4 {
                    cluster.fail_node(nd);
                    cluster.revive_node(nd);
                }
            },
            |comm, ctx| {
                (
                    comm.rank(),
                    restore_impl(
                        comm,
                        ctx,
                        Strategy::CollDedup,
                        &RetryPolicy::default_restore(),
                    )
                    .map(Vec::from),
                )
            },
        );
        // Node 0 alone cannot hold all four ranks' data for K=2: at least
        // one rank must report loss — as a typed error, not a deadlock or
        // panic (which is the property under test).
        let losses = results.iter().filter(|(_, r)| r.is_err()).count();
        assert!(losses >= 1, "expected at least one loss, got {results:?}");
        // Whatever did restore must be byte-correct.
        for (rank, r) in &results {
            if let Ok(buf) = r {
                assert_eq!(*buf, buffer_of(*rank), "rank {rank} restored corrupt data");
            }
        }
    }

    #[test]
    fn repeated_corrupt_chunk_is_verified_quarantined_and_rescued_once() {
        use replidedup_hash::ChunkHasher;
        use replidedup_trace::EventKind;
        // Rank 1's manifest references one private chunk sixteen times, and
        // its node's copy is bit-rotted. Hashing each distinct chunk once
        // must still catch the rot on first use: the restore stays
        // byte-exact, the bad copy is quarantined, and the replica fallback
        // runs exactly once (later occurrences reuse the verified handle).
        let private = [0x5Au8; 64];
        let fp = Sha1ChunkHasher.fingerprint(&private);
        let buffer = |rank: u32| {
            if rank == 1 {
                let mut buf = private.repeat(16);
                buf.extend_from_slice(&[0xCD; 20]);
                buf
            } else {
                buffer_of(rank)
            }
        };
        for strategy in [Strategy::LocalDedup, Strategy::CollDedup] {
            let cluster = Cluster::new(Placement::one_per_node(4));
            let cfg = DumpConfig::paper_defaults(strategy)
                .with_replication(3)
                .with_chunk_size(64);
            let out = WorldConfig::traced()
                .launch(4, |comm| {
                    let ctx = DumpContext {
                        cluster: &cluster,
                        hasher: &Sha1ChunkHasher,
                        dump_id: 1,
                    };
                    let buf = buffer(comm.rank());
                    dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg).expect("dump");
                    comm.barrier();
                    if comm.rank() == 1 {
                        let rotted = cluster.corrupt_chunk(cluster.node_of(1), &fp);
                        assert_eq!(rotted, Ok(true), "rank 1's node holds its chunk");
                    }
                    comm.barrier();
                    comm.take_trace_events();
                    let restored =
                        restore_impl(comm, &ctx, strategy, &RetryPolicy::default_restore())
                            .map(Vec::from);
                    let fallbacks: u64 = comm
                        .take_trace_events()
                        .iter()
                        .filter(|e| e.name == "restore_replica_fallback")
                        .map(|e| match e.kind {
                            EventKind::Counter(v) => v,
                            _ => 0,
                        })
                        .sum();
                    (comm.rank(), restored, fallbacks)
                })
                .expect_all();
            for (rank, restored, fallbacks) in out.results {
                assert_eq!(
                    restored,
                    Ok(buffer(rank)),
                    "{strategy:?} rank {rank} byte-exact"
                );
                assert_eq!(
                    fallbacks,
                    u64::from(rank == 1),
                    "{strategy:?} rank {rank} replica fallbacks"
                );
            }
            // Re-seeding alone cannot overwrite a stored copy, so an intact
            // copy on node 1 means the rotted one was quarantined first.
            let reseeded = cluster.get_chunk(1, &fp).expect("re-seeded on node 1");
            assert_eq!(Sha1ChunkHasher.fingerprint(&reseeded), fp, "{strategy:?}");
        }
    }

    #[test]
    fn assign_servers_picks_lowest_and_skips_self() {
        let needs = vec![true, false, true, false];
        let holders = vec![
            vec![0, 2], // rank 0 holds 0 and 2 (but needs 0 itself)
            vec![0, 1], // rank 1 holds 0
            vec![2],    // rank 2 holds 2 (itself, needy)
            vec![2, 3], // rank 3 holds 2
        ];
        let server_of = assign_servers(4, &needs, &holders);
        assert_eq!(server_of[0], Some(1), "lowest non-self holder of 0");
        assert_eq!(server_of[2], Some(0));
        assert_eq!(server_of[1], None, "rank 1 needs nothing");
        assert_eq!(server_of[3], None, "rank 3 needs nothing");
    }

    #[test]
    fn assign_servers_reports_unservable() {
        let needs = vec![true, false];
        let holders = vec![vec![], vec![]];
        let server_of = assign_servers(2, &needs, &holders);
        assert_eq!(server_of, vec![None, None]);
    }

    /// The chunk-server choice the planner replaced: ask every rank
    /// whether its node holds the chunk and take the lowest that does.
    fn lowest_holder_by_scan(
        node_of: &[NodeId],
        held: &[Vec<Fingerprint>],
        fp: &Fingerprint,
    ) -> Option<u32> {
        (0u32..)
            .zip(node_of)
            .find(|(_, &nd)| held[nd as usize].binary_search(fp).is_ok())
            .map(|(s, _)| s)
    }

    proptest::proptest! {
        #[test]
        fn assign_chunk_servers_matches_the_lowest_holder_scan(
            nodes in 1u32..8,
            max_per_node in 1u32..5,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut rand = move |below: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % below
            };
            // A small fingerprint universe so inventories and requests
            // overlap often, plus chunks no node holds.
            let universe: Vec<Fingerprint> =
                (0u8..24).map(|b| Fingerprint::synthetic(u64::from(b))).collect();
            // Ranks in node-major order, each node hosting 0..=max ranks
            // (a node without ranks can hold chunks but never serve).
            let mut node_of = Vec::new();
            for nd in 0..nodes {
                for _ in 0..rand(u64::from(max_per_node) + 1) {
                    node_of.push(nd);
                }
            }
            // Some nodes are dead: their leader reports nothing.
            let held: Vec<Vec<Fingerprint>> = (0..nodes)
                .map(|_| {
                    if rand(4) == 0 {
                        return Vec::new();
                    }
                    let mut inv: Vec<Fingerprint> =
                        universe.iter().filter(|_| rand(3) == 0).copied().collect();
                    inv.sort_unstable();
                    inv
                })
                .collect();
            let missing: Vec<Vec<Fingerprint>> = node_of
                .iter()
                .map(|_| {
                    let mut fps: Vec<Fingerprint> =
                        universe.iter().filter(|_| rand(4) == 0).copied().collect();
                    fps.sort_unstable();
                    fps
                })
                .collect();
            let servers = assign_chunk_servers(&node_of, &held, &missing);
            proptest::prop_assert_eq!(servers.len(), missing.len());
            for (wanted, got) in missing.iter().zip(&servers) {
                proptest::prop_assert_eq!(wanted.len(), got.len());
                for (fp, server) in wanted.iter().zip(got) {
                    proptest::prop_assert_eq!(*server, lowest_holder_by_scan(&node_of, &held, fp));
                }
            }
        }
    }

    #[test]
    fn assign_chunk_servers_prefers_the_lowest_leader_and_skips_dead_nodes() {
        let fp = |b: u8| Fingerprint::synthetic(u64::from(b));
        // Ranks 0-1 on node 0 (dead), 2-3 on node 1, 4 on node 2.
        let node_of = [0, 0, 1, 1, 2];
        let held = vec![vec![], vec![fp(1), fp(2)], vec![fp(2), fp(3)]];
        let missing = vec![vec![fp(1), fp(2), fp(3), fp(4)], vec![], vec![fp(3)]];
        let servers = assign_chunk_servers(&node_of, &held, &missing);
        assert_eq!(
            servers,
            vec![vec![Some(2), Some(2), Some(4), None], vec![], vec![Some(4)]]
        );
    }

    #[test]
    fn second_generation_dump_restores_independently() {
        let cluster = Cluster::new(Placement::one_per_node(3));
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(2)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let rank = comm.rank();
                let ctx1 = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                dump_impl(comm, &ctx1, &Chunk::from(&[rank as u8; 100][..]), &cfg).unwrap();
                let ctx2 = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 2,
                };
                dump_impl(
                    comm,
                    &ctx2,
                    &Chunk::from(&[rank as u8 + 100; 100][..]),
                    &cfg,
                )
                .unwrap();
                let b1 = restore_impl(
                    comm,
                    &ctx1,
                    Strategy::CollDedup,
                    &RetryPolicy::default_restore(),
                )
                .map(Vec::from)
                .unwrap();
                let b2 = restore_impl(
                    comm,
                    &ctx2,
                    Strategy::CollDedup,
                    &RetryPolicy::default_restore(),
                )
                .map(Vec::from)
                .unwrap();
                (b1, b2, rank)
            })
            .expect_all();
        for (b1, b2, rank) in out.results {
            assert_eq!(b1, vec![rank as u8; 100]);
            assert_eq!(b2, vec![rank as u8 + 100; 100]);
        }
    }

    #[test]
    fn rs_coded_dump_restores_via_reconstruction() {
        use crate::config::RedundancyPolicy;
        // Under Rs(4+2) the private chunks exist only as stripe shards —
        // no replicas anywhere — so a successful restore proves the
        // decode-from-any-k reconstruction path end to end.
        let n = 6;
        let cluster = Cluster::new(Placement::one_per_node(n));
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(3)
            .with_chunk_size(64)
            .with_policy(RedundancyPolicy::Rs { k: 4, m: 2 });
        let out = WorldConfig::default()
            .launch(n, |comm| {
                let ctx = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                let buf = buffer_of(comm.rank());
                dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg).expect("dump");
                comm.barrier();
                restore_impl(
                    comm,
                    &ctx,
                    Strategy::CollDedup,
                    &RetryPolicy::default_restore(),
                )
                .map(Vec::from)
                .expect("restore reconstructs coded chunks")
            })
            .expect_all();
        for (rank, buf) in out.results.into_iter().enumerate() {
            assert_eq!(buf, buffer_of(rank as u32), "rank {rank} byte-exact");
        }
    }
}
