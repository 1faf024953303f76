//! Collective replication repair: heal a degraded cluster back to `K`
//! copies of everything a dump still needs.
//!
//! The paper replicates at dump time; a node that fails afterwards leaves
//! every chunk it held one copy short. Restore tolerates that (up to
//! `K-1` losses), but tolerance is not healing: a second failure eats into
//! margin that was never rebuilt. This collective closes the loop — run it
//! after reviving (or replacing) a failed node and the cluster converges
//! back to full replication:
//!
//! 1. **Scrub** (`repair.scrub`) — every node leader re-hashes its node's
//!    chunks ([`replidedup_storage::Cluster::scrub`]) and quarantines
//!    corrupt copies, so the planning phase only ever counts intact
//!    replicas.
//! 2. **Plan** (`repair.plan`) — leaders send their chunk inventory and a
//!    per-node inventory (manifest owners, blob owners, referenced
//!    fingerprints, tombstones, shards) to one planner rank, the lowest
//!    live leader ([`plan_at_planner`]). The planner folds the chunk
//!    inventories with the dump's `HMERGE` operator
//!    ([`crate::GlobalView::merge`], `F = ∞`). Run with `k = K`, the
//!    folded view gives each fingerprint's live-copy count, and — the key
//!    observation — any entry with `freq < K` carries its *complete,
//!    untruncated* holder list (truncation only triggers past `K`), which
//!    is exactly the set of fingerprints repair cares about. The planner
//!    derives the transfer plan once and broadcasts it, so every rank acts
//!    on the identical plan: under-replicated chunks go to the
//!    least-loaded live non-holders, lost manifests/blobs are
//!    re-materialized from any surviving copy (the owner's own node
//!    first).
//! 3. **Transfer** (`repair.transfer`) — leaders execute the plan over the
//!    fallible point-to-point layer, then allreduce the healing counts so
//!    every rank returns the same [`RepairStats`].
//!
//! Dumps taken under an erasure-coding redundancy policy add a fourth
//! concern: coded payloads live as Reed-Solomon stripes, not replicas, so
//! the plan treats a referenced chunk (or blob) with no replica as healthy
//! as long as its stripe keeps at least `k` shards, and a dedicated
//! **stripe phase** (`repair.stripes`) rebuilds every missing shard on its
//! home node from any `k` survivors
//! ([`replidedup_storage::Cluster::rebuild_shard`]). Stripe parity
//! verification is inherently cluster-wide — a stripe's shards span nodes
//! — so the lowest live node leader runs it once and quarantines flagged
//! shard copies before planning.
//!
//! The collective is **idempotent**: the plan is derived from the current
//! cluster state and chunk/shard puts are content-addressed, so re-running
//! a repair that crashed half-way (every crash surfaces as
//! [`RepairError::Comm`]) simply finds less work and converges. Data with
//! zero surviving copies — or a stripe with fewer than `k` shards — is
//! beyond repair by construction; it is reported in [`RepairStats`]
//! instead of failing the collective, so one unrecoverable buffer does not
//! block healing everything else.

use std::collections::{BTreeMap, HashMap, HashSet};

use replidedup_ec::shard_nodes;
use replidedup_hash::{Fingerprint, FpHashSet};
use replidedup_mpi::wire::{FrameReader, FrameWriter, Wire, WireResult};
use replidedup_mpi::{Comm, CommError, Tag};
use replidedup_storage::{
    Cluster, DumpId, Manifest, NodeId, ScrubReport, ShardMeta, StorageError, StripeKey,
};

use crate::config::Strategy;
use crate::dump::DumpContext;
use crate::global::GlobalView;

const TAG_REPAIR_MANIFEST: Tag = 0x5250_0005;
const TAG_REPAIR_CHUNKS: Tag = 0x5250_0006;
const TAG_REPAIR_BLOB: Tag = 0x5250_0007;

/// Phases of the repair collective, in execution order (trace span names).
pub const REPAIR_PHASES: [&str; 4] = [
    "repair.scrub",
    "repair.plan",
    "repair.stripes",
    "repair.transfer",
];

/// What a repair collective did. Identical on every rank (healing counts
/// are allreduced; the unrepairable lists come from the one broadcast
/// plan).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RepairStats {
    /// Chunk copies written to bring fingerprints back to `K` live copies.
    pub chunks_healed: u64,
    /// Bytes moved for those chunk copies.
    pub bytes_re_replicated: u64,
    /// Manifest copies re-materialized on nodes that lost them.
    pub manifests_rematerialized: u64,
    /// Raw blob copies re-materialized (`no-dedup` dumps).
    pub blobs_rematerialized: u64,
    /// Corrupt chunks the scrub phase quarantined before planning.
    pub corrupt_quarantined: u64,
    /// Erasure-coded shards reconstructed from `k` survivors and re-homed
    /// (the coded policies' analogue of `chunks_healed`).
    pub shards_rebuilt: u64,
    /// Bytes of reconstructed shard payloads written back.
    pub bytes_reconstructed: u64,
    /// Parity-inconsistent shard copies the stripe scrub quarantined
    /// before rebuilding (the coded analogue of `corrupt_quarantined`).
    pub shards_quarantined: u64,
    /// Referenced fingerprints with zero intact live copies (and, for
    /// coded chunks, no viable stripe): beyond repair.
    pub unrepairable_chunks: Vec<Fingerprint>,
    /// Ranks whose manifest for this dump has no surviving copy.
    pub unrepairable_manifests: Vec<u32>,
    /// Ranks whose raw blob for this dump has no surviving copy (and no
    /// viable stripe).
    pub unrepairable_blobs: Vec<u32>,
    /// Stripes with fewer than `k` surviving shards: beyond
    /// reconstruction. Disjoint per policy from the replica lists — a
    /// payload appears here exactly when it was *coded*, there when it was
    /// *replicated* — so [`RepairStats::is_fully_healed`] stays meaningful
    /// under mixed `Auto` policies.
    pub unrepairable_stripes: Vec<StripeKey>,
}

impl RepairStats {
    /// Did this repair leave the dump fully healed — nothing lost for
    /// good, whether it was replicated or erasure-coded?
    pub fn is_fully_healed(&self) -> bool {
        self.unrepairable_chunks.is_empty()
            && self.unrepairable_manifests.is_empty()
            && self.unrepairable_blobs.is_empty()
            && self.unrepairable_stripes.is_empty()
    }
}

/// Failures of a collective repair or scrub.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RepairError {
    /// A node refused I/O while scrubbing or moving data.
    Storage(StorageError),
    /// A rank died (or a deadlock was suspected) during one of the
    /// collective steps. Re-running the repair after reviving converges:
    /// the plan is recomputed from whatever state the crashed run left.
    Comm(CommError),
    /// A healing transfer frame from `from` failed to decode — the batch
    /// was truncated or malformed in flight. The step fails cleanly
    /// instead of panicking; a resumed heal re-plans the window and
    /// re-requests the data.
    CorruptFrame {
        /// Rank whose batch failed to decode.
        from: u32,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Storage(e) => write!(f, "storage failure during repair: {e}"),
            RepairError::Comm(e) => write!(f, "communication failure during repair: {e}"),
            RepairError::CorruptFrame { from } => {
                write!(f, "corrupt healing frame from rank {from}")
            }
        }
    }
}

impl std::error::Error for RepairError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepairError::Storage(e) => Some(e),
            RepairError::Comm(e) => Some(e),
            RepairError::CorruptFrame { .. } => None,
        }
    }
}

impl From<StorageError> for RepairError {
    fn from(e: StorageError) -> Self {
        RepairError::Storage(e)
    }
}

impl From<CommError> for RepairError {
    fn from(e: CommError) -> Self {
        RepairError::Comm(e)
    }
}

/// One node's repair inventory, sent to the planner by its leader rank
/// (every other rank, and leaders of dead nodes, send the default).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NodeInventory {
    /// True only in the entry of a live node's leader rank.
    pub(crate) leads_live_node: bool,
    /// Owner ranks whose manifests for the dump this node holds (sorted).
    pub(crate) manifest_owners: Vec<u32>,
    /// Owner ranks whose raw blobs for the dump this node holds (sorted).
    pub(crate) blob_owners: Vec<u32>,
    /// Fingerprints referenced by this node's manifests for the dump
    /// (sorted, deduplicated).
    pub(crate) referenced: Vec<Fingerprint>,
    /// Ranks tombstoned as absent when the dump committed (sorted).
    pub(crate) absent: Vec<u32>,
    /// Erasure-coded shards this node holds, as `(stripe, meta)` pairs
    /// sorted by stripe then shard index.
    pub(crate) shards: Vec<(StripeKey, ShardMeta)>,
}

impl Wire for NodeInventory {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.leads_live_node.encode(buf);
        self.manifest_owners.encode(buf);
        self.blob_owners.encode(buf);
        self.referenced.encode(buf);
        self.absent.encode(buf);
        self.shards.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(NodeInventory {
            leads_live_node: bool::decode(input)?,
            manifest_owners: Vec::decode(input)?,
            blob_owners: Vec::decode(input)?,
            referenced: Vec::decode(input)?,
            absent: Vec::decode(input)?,
            shards: Vec::decode(input)?,
        })
    }
}

/// The deterministic transfer plan. The planner rank computes it once
/// from the gathered inputs and broadcasts it, so every rank acts on the
/// identical plan; moves name leader ranks.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct RepairPlan {
    /// `(src_leader, dst_leader, fp)`: src serves the chunk, dst stores it.
    pub(crate) chunk_moves: Vec<(u32, u32, Fingerprint)>,
    /// `(src_leader, dst_leader, owner_rank)` manifest re-materializations.
    pub(crate) manifest_moves: Vec<(u32, u32, u32)>,
    /// `(src_leader, dst_leader, owner_rank)` blob re-materializations.
    pub(crate) blob_moves: Vec<(u32, u32, u32)>,
    /// `(dst_leader, stripe, shard index)`: dst reconstructs the shard
    /// from any `k` survivors and re-homes it on its node.
    pub(crate) shard_rebuilds: Vec<(u32, StripeKey, u8)>,
    pub(crate) unrepairable_chunks: Vec<Fingerprint>,
    pub(crate) unrepairable_manifests: Vec<u32>,
    pub(crate) unrepairable_blobs: Vec<u32>,
    pub(crate) unrepairable_stripes: Vec<StripeKey>,
}

impl Wire for RepairPlan {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.chunk_moves.encode(buf);
        self.manifest_moves.encode(buf);
        self.blob_moves.encode(buf);
        self.shard_rebuilds.encode(buf);
        self.unrepairable_chunks.encode(buf);
        self.unrepairable_manifests.encode(buf);
        self.unrepairable_blobs.encode(buf);
        self.unrepairable_stripes.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(RepairPlan {
            chunk_moves: Vec::decode(input)?,
            manifest_moves: Vec::decode(input)?,
            blob_moves: Vec::decode(input)?,
            shard_rebuilds: Vec::decode(input)?,
            unrepairable_chunks: Vec::decode(input)?,
            unrepairable_manifests: Vec::decode(input)?,
            unrepairable_blobs: Vec::decode(input)?,
            unrepairable_stripes: Vec::decode(input)?,
        })
    }
}

/// Pick up to `deficit` destinations among live non-holder leaders,
/// preferring `home` (the owner's own node leader) and then the least
/// planned load, ties broken by rank for cross-rank determinism.
pub(crate) fn pick_destinations(
    live: &[u32],
    holders: &[u32],
    deficit: usize,
    home: Option<u32>,
    load: &mut HashMap<u32, u64>,
) -> Vec<u32> {
    let mut cands: Vec<u32> = live
        .iter()
        .copied()
        .filter(|r| !holders.contains(r))
        .collect();
    cands.sort_by_key(|r| {
        let is_home = Some(*r) == home;
        (!is_home, load.get(r).copied().unwrap_or(0), *r)
    });
    cands.truncate(deficit);
    for dst in &cands {
        *load.entry(*dst).or_insert(0) += 1;
    }
    cands
}

/// Derive the transfer plan. Pure: the same reduced view and inventory
/// always give the same plan. Only [`plan_at_planner`] calls it, once per
/// plan step, on the planner rank.
///
/// `home_leader[r]` is the leader rank of rank `r`'s own node — the
/// preferred destination when re-materializing `r`'s manifest or blob, so
/// a healed cluster restores without network recovery.
pub(crate) fn build_plan(
    k: u32,
    strategy: Strategy,
    dump_id: DumpId,
    global: &GlobalView,
    inv: &[NodeInventory],
    home_leader: &[u32],
    leader_of_node: &[Option<u32>],
) -> RepairPlan {
    let mut plan = RepairPlan::default();
    let live: Vec<u32> = inv
        .iter()
        .enumerate()
        .filter(|(_, i)| i.leads_live_node)
        .map(|(r, _)| r as u32)
        .collect();
    let target = (k as usize).min(live.len());
    let tombstoned = |r: u32| inv.iter().any(|i| i.absent.binary_search(&r).is_ok());

    // Cluster-wide stripe map from the allgathered shard inventories:
    // geometry (from any shard's self-describing meta) plus surviving
    // indices, and which leader holds which shard.
    let mut stripes: BTreeMap<StripeKey, (ShardMeta, Vec<u8>)> = BTreeMap::new();
    let mut held: HashSet<(u32, StripeKey, u8)> = HashSet::new();
    for (r, i) in inv.iter().enumerate() {
        for (key, meta) in &i.shards {
            held.insert((r as u32, *key, meta.index));
            let e = stripes.entry(*key).or_insert((*meta, Vec::new()));
            if !e.1.contains(&meta.index) {
                e.1.push(meta.index);
            }
        }
    }
    // A coded payload is healthy — no replicas required — as long as its
    // stripe keeps at least `k` shards; the stripe pass heals the rest.
    let stripe_viable = |key: &StripeKey| {
        stripes
            .get(key)
            .is_some_and(|(meta, have)| have.len() >= meta.k as usize)
    };

    if strategy != Strategy::NoDedup {
        // ---- chunks: every fingerprint a surviving manifest references --
        let mut required: Vec<Fingerprint> = inv
            .iter()
            .flat_map(|i| i.referenced.iter().copied())
            .collect();
        required.sort_unstable();
        required.dedup();
        let mut load: HashMap<u32, u64> = HashMap::new();
        for fp in required {
            match global.lookup(&fp) {
                None => {
                    if !stripe_viable(&StripeKey::Chunk(fp)) {
                        plan.unrepairable_chunks.push(fp);
                    }
                }
                // freq >= K: at least K intact copies survive, nothing to do
                // (the holder list may be truncated, but is not needed).
                Some(e) if e.freq >= u64::from(k) => {}
                Some(e) => {
                    // freq < K: `ranks` is the complete live holder set.
                    let deficit = target.saturating_sub(e.ranks.len());
                    for (i, dst) in pick_destinations(&live, &e.ranks, deficit, None, &mut load)
                        .into_iter()
                        .enumerate()
                    {
                        let src = e.ranks[i % e.ranks.len()];
                        plan.chunk_moves.push((src, dst, fp));
                    }
                }
            }
        }

        // ---- manifests: one recipe per rank must survive K times --------
        let mut mload: HashMap<u32, u64> = HashMap::new();
        for r in 0..home_leader.len() as u32 {
            if tombstoned(r) {
                continue; // legitimately absent from this (degraded) dump
            }
            let holders: Vec<u32> = live
                .iter()
                .copied()
                .filter(|l| inv[*l as usize].manifest_owners.binary_search(&r).is_ok())
                .collect();
            if holders.is_empty() {
                plan.unrepairable_manifests.push(r);
                continue;
            }
            let deficit = target.saturating_sub(holders.len());
            let home = Some(home_leader[r as usize]);
            for (i, dst) in pick_destinations(&live, &holders, deficit, home, &mut mload)
                .into_iter()
                .enumerate()
            {
                plan.manifest_moves
                    .push((holders[i % holders.len()], dst, r));
            }
        }
    } else {
        // ---- blobs: the no-dedup storage format ------------------------
        let mut bload: HashMap<u32, u64> = HashMap::new();
        for r in 0..home_leader.len() as u32 {
            if tombstoned(r) {
                continue;
            }
            let holders: Vec<u32> = live
                .iter()
                .copied()
                .filter(|l| inv[*l as usize].blob_owners.binary_search(&r).is_ok())
                .collect();
            if holders.is_empty() {
                if !stripe_viable(&StripeKey::Blob { owner: r, dump_id }) {
                    plan.unrepairable_blobs.push(r);
                }
                continue;
            }
            let deficit = target.saturating_sub(holders.len());
            let home = Some(home_leader[r as usize]);
            for (i, dst) in pick_destinations(&live, &holders, deficit, home, &mut bload)
                .into_iter()
                .enumerate()
            {
                plan.blob_moves.push((holders[i % holders.len()], dst, r));
            }
        }
    }

    // ---- stripes: every viable stripe healed back to full k+m shards on
    // their home nodes (a stripe below k survivors is beyond rebuild) ----
    let node_count = leader_of_node.len() as u32;
    for (key, (meta, have)) in &stripes {
        if have.len() < meta.k as usize {
            plan.unrepairable_stripes.push(*key);
            continue;
        }
        let shards = meta.k + meta.m;
        let homes = shard_nodes(key.seed(), shards, node_count);
        for index in 0..shards {
            // Dead (or unpopulated) home nodes have nowhere to re-home the
            // shard; a later repair after reviving picks them up.
            let Some(leader) = leader_of_node[homes[index as usize] as usize] else {
                continue;
            };
            if !held.contains(&(leader, *key, index)) {
                plan.shard_rebuilds.push((leader, *key, index));
            }
        }
    }
    plan
}

/// Leader rank of `node`: the lowest rank placed on it.
pub(crate) fn leader_of(cluster: &Cluster, node: NodeId, world: u32) -> Option<u32> {
    let ranks = cluster.placement().ranks_on(node, world);
    if ranks.is_empty() {
        None
    } else {
        Some(ranks.start)
    }
}

/// The lowest rank leading a live node: the one rank that runs the
/// cluster-wide stripe verification (a stripe's shards span nodes, so no
/// single node's leader can check parity consistency alone).
pub(crate) fn lowest_live_leader(cluster: &Cluster, world: u32) -> Option<u32> {
    (0..world).find(|&r| {
        let nd = cluster.node_of(r);
        leader_of(cluster, nd, world) == Some(r) && cluster.is_alive(nd)
    })
}

/// The rank that plans every heal and repair step: the lowest live
/// leader, or rank 0 when no node is alive. A function of the cluster's
/// liveness alone, so every rank names the same planner without a
/// collective.
pub(crate) fn planner_rank(cluster: &Cluster, world: u32) -> u32 {
    lowest_live_leader(cluster, world).unwrap_or(0)
}

/// Plan one step once. Every rank sends its chunk view and inventory to
/// the planner (non-leaders send empty ones); the planner folds the views
/// with `HMERGE`, runs [`build_plan`] and broadcasts the plan.
/// Collective: every rank returns the identical plan, so cursors and
/// reports stay identical.
///
/// A rank death fails the gather at the planner or the broadcast
/// everywhere else, so no survivor waits on a plan that never comes.
pub(crate) fn plan_at_planner(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    strategy: Strategy,
    k: u32,
    view: GlobalView,
    inv: NodeInventory,
) -> Result<RepairPlan, RepairError> {
    let cluster = ctx.cluster;
    let n = comm.size();
    let planner = planner_rank(cluster, n);
    let plan = comm.try_gather(planner, (view, inv))?.map(|all| {
        let (views, world_inv): (Vec<GlobalView>, Vec<NodeInventory>) = all.into_iter().unzip();
        // Each view is one rank's leaf, so the fold merges disjoint
        // blocks as HMERGE requires. Holder lists are truncated only past
        // `k`, and the plan reads only the lists of entries below `k`, so
        // the fold order cannot change the plan.
        let global = views
            .into_iter()
            .filter(|v| !v.is_empty())
            .reduce(|a, b| GlobalView::merge(a, b, k, usize::MAX))
            .unwrap_or_default();
        let home_leader: Vec<u32> = (0..n)
            .map(|r| leader_of(cluster, cluster.node_of(r), n).unwrap_or(r))
            .collect();
        let leader_of_node: Vec<Option<u32>> = (0..cluster.node_count())
            .map(|nd| leader_of(cluster, nd, n).filter(|_| cluster.is_alive(nd)))
            .collect();
        build_plan(
            k,
            strategy,
            ctx.dump_id,
            &global,
            &world_inv,
            &home_leader,
            &leader_of_node,
        )
    });
    Ok(comm.try_bcast(planner, plan)?)
}

/// Collective scrub: every live node is scrubbed by its leader rank and
/// the per-node reports are merged, so all ranks return the identical
/// cluster-wide [`ScrubReport`]. Read-only — corrupt chunks are reported,
/// not quarantined (that is the repair collective's first phase).
///
/// Node-local findings are resolved against cluster-wide knowledge before
/// the report is returned: a manifest on one node legitimately references
/// chunks that live on *other* nodes (that is how coll-dedup distributes
/// data), so a reference is only **dangling** if no live node holds the
/// chunk, and a chunk is only an **orphan** if no manifest anywhere
/// references it. Corruption is intrinsic to the bytes and passes through
/// unfiltered.
pub(crate) fn scrub_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
) -> Result<ScrubReport, RepairError> {
    let me = comm.rank();
    let n = comm.size();
    let node = ctx.cluster.node_of(me);
    comm.enter_phase("scrub.collect");
    let mut contribution =
        if leader_of(ctx.cluster, node, n) == Some(me) && ctx.cluster.is_alive(node) {
            (
                ctx.cluster.scrub(node, ctx.hasher)?,
                ctx.cluster.chunk_fps(node)?,
                ctx.cluster.referenced_fps(node)?,
            )
        } else {
            (ScrubReport::default(), Vec::new(), Vec::new())
        };
    if lowest_live_leader(ctx.cluster, n) == Some(me) {
        // Parity consistency is a property of whole stripes, not single
        // nodes: exactly one rank verifies every stripe cluster-wide and
        // folds the findings into its contribution.
        contribution.0.merge(&ctx.cluster.scrub_stripes(ctx.hasher));
    }
    let all = comm.try_allgather(contribution);
    comm.exit_phase("scrub.collect");
    let all = all?;
    let mut merged = ScrubReport::default();
    let mut present = FpHashSet::default();
    let mut referenced = FpHashSet::default();
    for (report, fps, refs) in &all {
        merged.merge(report);
        present.extend(fps.iter().copied());
        referenced.extend(refs.iter().copied());
    }
    merged
        .dangling
        .retain(|(_, _, _, fp)| !present.contains(fp));
    merged.orphans.retain(|(_, fp)| !referenced.contains(fp));
    comm.tracer()
        .counter("scrub_corrupt_chunks", merged.corrupt.len() as u64);
    Ok(merged)
}

pub(crate) fn repair_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    strategy: Strategy,
    k: u32,
) -> Result<RepairStats, RepairError> {
    let me = comm.rank();
    let n = comm.size();
    let cluster = ctx.cluster;
    let node = cluster.node_of(me);
    let i_lead = leader_of(cluster, node, n) == Some(me);

    // ---- Phase 1: scrub + quarantine ------------------------------------
    comm.enter_phase("repair.scrub");
    let mut corrupt_quarantined = 0u64;
    let mut shards_quarantined = 0u64;
    if i_lead && cluster.is_alive(node) {
        let report = cluster.scrub(node, ctx.hasher)?;
        for (nd, fp) in &report.corrupt {
            if cluster.quarantine_chunk(*nd, fp)? {
                corrupt_quarantined += 1;
            }
        }
    }
    if lowest_live_leader(cluster, n) == Some(me) {
        // Cluster-wide stripe verification, run once: quarantine every
        // parity-inconsistent shard copy so the stripe phase below rebuilds
        // it from intact survivors instead of propagating rot.
        let report = cluster.scrub_stripes(ctx.hasher);
        for (nd, key, index) in &report.stripe_mismatches {
            if cluster.quarantine_shard(*nd, *key, *index)? {
                shards_quarantined += 1;
            }
        }
    }
    comm.exit_phase("repair.scrub");

    // ---- Phase 2: inventory + plan --------------------------------------
    comm.enter_phase("repair.plan");
    let view = if i_lead && cluster.is_alive(node) {
        GlobalView::from_local(me, cluster.chunk_fps(node)?, usize::MAX)
    } else {
        GlobalView::default()
    };
    let mut inv = NodeInventory::default();
    if i_lead && cluster.is_alive(node) {
        inv.leads_live_node = true;
        inv.manifest_owners = cluster.manifest_owners(node, ctx.dump_id)?;
        inv.blob_owners = cluster.blob_owners(node, ctx.dump_id)?;
        inv.absent = cluster.absent_ranks(node, ctx.dump_id)?;
        inv.shards = cluster.shard_inventory(node)?;
        let mut refs = FpHashSet::default();
        for m in cluster.manifests_for(node, ctx.dump_id)? {
            refs.extend(m.chunks.iter().copied());
        }
        let mut referenced: Vec<Fingerprint> = refs.into_iter().collect();
        referenced.sort_unstable();
        inv.referenced = referenced;
    }
    let plan = plan_at_planner(comm, ctx, strategy, k, view, inv);
    comm.exit_phase("repair.plan");
    let plan = plan?;

    // ---- Phase 3: rebuild erasure-coded shards ---------------------------
    comm.enter_phase("repair.stripes");
    let mut shards_rebuilt = 0u64;
    let mut bytes_reconstructed = 0u64;
    for (leader, key, index) in &plan.shard_rebuilds {
        if *leader != me {
            continue;
        }
        // Reconstruction reads any `k` survivors through the storage
        // repair index — the same escape hatch restore's last-resort path
        // uses — and the content-addressed put keeps re-runs idempotent.
        if let Some(shard) = cluster.rebuild_shard(*key, *index) {
            let len = shard.data.len() as u64;
            if cluster.put_shard(node, *key, shard.meta, shard.data)? {
                shards_rebuilt += 1;
                bytes_reconstructed += len;
            }
        }
    }
    comm.exit_phase("repair.stripes");

    // ---- Phase 4: execute the transfer plan ------------------------------
    comm.enter_phase("repair.transfer");
    let mut healed = 0u64;
    let mut bytes = 0u64;
    let mut manifests_remat = 0u64;
    let mut blobs_remat = 0u64;
    let result = (|| -> Result<(), RepairError> {
        // Sends first (point-to-point sends are buffered, never blocking),
        // one batch per (src, dst) pair so recv counts are derivable.
        let mut chunk_out: BTreeMap<u32, Vec<Fingerprint>> = BTreeMap::new();
        let mut manifest_out: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut blob_out: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (src, dst, fp) in &plan.chunk_moves {
            if *src == me {
                chunk_out.entry(*dst).or_default().push(*fp);
            }
        }
        for (src, dst, owner) in &plan.manifest_moves {
            if *src == me {
                manifest_out.entry(*dst).or_default().push(*owner);
            }
        }
        for (src, dst, owner) in &plan.blob_moves {
            if *src == me {
                blob_out.entry(*dst).or_default().push(*owner);
            }
        }
        for (dst, fps) in &chunk_out {
            // Frame the batch: fingerprint headers interleaved with the
            // stored payloads, which ride along by reference — the stored
            // chunk is never copied into a staging buffer.
            let mut batch = FrameWriter::new();
            for fp in fps {
                batch.put(fp);
                batch.attach(cluster.get_chunk(node, fp)?);
            }
            comm.try_send_frame(*dst, TAG_REPAIR_CHUNKS, batch.finish())?;
        }
        for (dst, owners) in &manifest_out {
            let mut batch: Vec<Manifest> = Vec::with_capacity(owners.len());
            for owner in owners {
                batch.push(cluster.get_manifest(node, *owner, ctx.dump_id)?);
            }
            comm.try_send_val(*dst, TAG_REPAIR_MANIFEST, &batch)?;
        }
        for (dst, owners) in &blob_out {
            let mut batch = FrameWriter::new();
            for owner in owners {
                batch.put(owner);
                batch.attach(cluster.get_blob(node, *owner, ctx.dump_id)?);
            }
            comm.try_send_frame(*dst, TAG_REPAIR_BLOB, batch.finish())?;
        }

        // Receives: the plan tells me exactly which sources owe me what.
        let srcs_for = |moves: &[(u32, u32, Fingerprint)]| -> Vec<u32> {
            let mut srcs: Vec<u32> = moves
                .iter()
                .filter(|(_, dst, _)| *dst == me)
                .map(|(src, _, _)| *src)
                .collect();
            srcs.sort_unstable();
            srcs.dedup();
            srcs
        };
        for src in srcs_for(&plan.chunk_moves) {
            let mut batch = FrameReader::new(comm.try_recv_frame(src, TAG_REPAIR_CHUNKS)?);
            while batch.remaining() > 0 {
                let fp: Fingerprint = batch
                    .get()
                    .unwrap_or_else(|e| panic!("rank {me}: corrupt repair batch from {src}: {e}"));
                let data = batch
                    .take_payload()
                    .unwrap_or_else(|e| panic!("rank {me}: corrupt repair batch from {src}: {e}"));
                bytes += data.len() as u64;
                if cluster.put_chunk(node, fp, data.into_bytes())? {
                    healed += 1;
                }
            }
        }
        let owner_srcs = |moves: &[(u32, u32, u32)]| -> Vec<u32> {
            let mut srcs: Vec<u32> = moves
                .iter()
                .filter(|(_, dst, _)| *dst == me)
                .map(|(src, _, _)| *src)
                .collect();
            srcs.sort_unstable();
            srcs.dedup();
            srcs
        };
        for src in owner_srcs(&plan.manifest_moves) {
            let batch: Vec<Manifest> = comm.try_recv_val(src, TAG_REPAIR_MANIFEST)?;
            for m in batch {
                cluster.put_manifest(node, m)?;
                manifests_remat += 1;
            }
        }
        for src in owner_srcs(&plan.blob_moves) {
            let mut batch = FrameReader::new(comm.try_recv_frame(src, TAG_REPAIR_BLOB)?);
            while batch.remaining() > 0 {
                let owner: u32 = batch
                    .get()
                    .unwrap_or_else(|e| panic!("rank {me}: corrupt blob batch from {src}: {e}"));
                let data = batch
                    .take_payload()
                    .unwrap_or_else(|e| panic!("rank {me}: corrupt blob batch from {src}: {e}"));
                bytes += data.len() as u64;
                cluster.put_blob(node, owner, ctx.dump_id, data.into_bytes())?;
                blobs_remat += 1;
            }
        }
        Ok(())
    })();
    comm.exit_phase("repair.transfer");
    result?;

    // All ranks agree on what the repair did before anyone returns.
    let sums = comm.try_allreduce(
        vec![
            healed,
            bytes,
            manifests_remat,
            blobs_remat,
            corrupt_quarantined,
            shards_rebuilt,
            bytes_reconstructed,
            shards_quarantined,
        ],
        |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect(),
    )?;
    comm.tracer().counter("repair_chunks_healed", sums[0]);
    comm.tracer().counter("repair_bytes_re_replicated", sums[1]);
    comm.tracer()
        .counter("repair_manifests_rematerialized", sums[2]);
    comm.tracer().counter("scrub_corrupt_chunks", sums[4]);
    comm.tracer().counter("repair_shards_rebuilt", sums[5]);
    Ok(RepairStats {
        chunks_healed: sums[0],
        bytes_re_replicated: sums[1],
        manifests_rematerialized: sums[2],
        blobs_rematerialized: sums[3],
        corrupt_quarantined: sums[4],
        shards_rebuilt: sums[5],
        bytes_reconstructed: sums[6],
        shards_quarantined: sums[7],
        unrepairable_chunks: plan.unrepairable_chunks,
        unrepairable_manifests: plan.unrepairable_manifests,
        unrepairable_blobs: plan.unrepairable_blobs,
        unrepairable_stripes: plan.unrepairable_stripes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    fn entry(n: u64, ranks: Vec<u32>) -> crate::global::GlobalEntry {
        crate::global::GlobalEntry {
            fp: fp(n),
            freq: ranks.len() as u64,
            ranks,
        }
    }

    fn inv(live: bool, manifests: Vec<u32>, referenced: Vec<u64>) -> NodeInventory {
        NodeInventory {
            leads_live_node: live,
            manifest_owners: manifests,
            blob_owners: Vec::new(),
            referenced: referenced.into_iter().map(fp).collect(),
            absent: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// `build_plan` over a one-rank-per-node world: home leaders are the
    /// ranks themselves and live leaders fall out of the inventory.
    fn plan_for(
        k: u32,
        strategy: Strategy,
        global: &GlobalView,
        inv: &[NodeInventory],
    ) -> RepairPlan {
        let home: Vec<u32> = (0..inv.len() as u32).collect();
        let leaders: Vec<Option<u32>> = inv
            .iter()
            .enumerate()
            .map(|(r, i)| i.leads_live_node.then_some(r as u32))
            .collect();
        build_plan(k, strategy, 1, global, inv, &home, &leaders)
    }

    #[test]
    fn node_inventory_wire_roundtrip() {
        let i = NodeInventory {
            leads_live_node: true,
            manifest_owners: vec![0, 2],
            blob_owners: vec![1],
            referenced: vec![fp(9), fp(11)],
            absent: vec![3],
            shards: vec![(StripeKey::Chunk(fp(9)), meta(4, 2, 5))],
        };
        assert_eq!(NodeInventory::from_bytes(&i.to_bytes()).unwrap(), i);
    }

    #[test]
    fn repair_plan_wire_roundtrip() {
        let p = RepairPlan {
            chunk_moves: vec![(0, 2, fp(1))],
            manifest_moves: vec![(1, 3, 4)],
            blob_moves: vec![(2, 0, 5)],
            shard_rebuilds: vec![(
                3,
                StripeKey::Blob {
                    owner: 6,
                    dump_id: 7,
                },
                5,
            )],
            unrepairable_chunks: vec![fp(8)],
            unrepairable_manifests: vec![9],
            unrepairable_blobs: vec![10],
            unrepairable_stripes: vec![StripeKey::Chunk(fp(11))],
        };
        assert_eq!(RepairPlan::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    /// Every rank must name the same planner from cluster state alone:
    /// the lowest leader of a live node, and rank 0 when none is live.
    #[test]
    fn planner_is_the_lowest_live_leader_or_rank_zero() {
        let c = Cluster::new(replidedup_storage::Placement::pack(6, 2));
        assert_eq!(planner_rank(&c, 6), 0);
        c.fail_node(0);
        assert_eq!(
            planner_rank(&c, 6),
            2,
            "node 0 is down: node 1's leader plans"
        );
        c.fail_node(1);
        c.fail_node(2);
        assert_eq!(planner_rank(&c, 6), 0, "no live node: rank 0 plans");
    }

    #[test]
    fn plan_heals_under_replicated_chunks_to_target() {
        // 4 one-rank nodes, K=3. Chunk 1 has one live copy (node 0),
        // chunk 2 already has three, chunk 3 is referenced but gone.
        let global = GlobalView {
            entries: vec![entry(1, vec![0]), entry(2, vec![0, 1, 2])],
        };
        let world_inv = vec![
            inv(true, vec![0], vec![1, 2, 3]),
            inv(true, vec![1], vec![]),
            inv(true, vec![2], vec![]),
            inv(true, vec![3], vec![]),
        ];
        let plan = plan_for(3, Strategy::CollDedup, &global, &world_inv);
        let for_one: Vec<_> = plan
            .chunk_moves
            .iter()
            .filter(|(_, _, f)| *f == fp(1))
            .collect();
        assert_eq!(for_one.len(), 2, "deficit of chunk 1 is 3-1=2");
        assert!(for_one.iter().all(|(src, dst, _)| *src == 0 && *dst != 0));
        assert!(
            plan.chunk_moves.iter().all(|(_, _, f)| *f != fp(2)),
            "healthy chunks are left alone"
        );
        assert_eq!(plan.unrepairable_chunks, vec![fp(3)]);
        assert!(plan.unrepairable_manifests.is_empty());
    }

    #[test]
    fn plan_caps_target_at_live_node_count() {
        // K=3 but only 2 live nodes: target is 2, one extra copy suffices.
        let global = GlobalView {
            entries: vec![entry(1, vec![0])],
        };
        let world_inv = vec![
            inv(true, vec![0, 1], vec![1]),
            inv(true, vec![0, 1], vec![]),
            inv(false, vec![], vec![]),
        ];
        let plan = plan_for(3, Strategy::CollDedup, &global, &world_inv);
        assert_eq!(plan.chunk_moves, vec![(0, 1, fp(1))]);
    }

    #[test]
    fn plan_rematerializes_manifest_on_owner_home_node_first() {
        // Rank 2's manifest survives only on node 0; its home node 2 is
        // live and empty — it must be the first destination.
        let world_inv = vec![
            inv(true, vec![0, 1, 2], vec![]),
            inv(true, vec![0, 1], vec![]),
            inv(true, vec![], vec![]),
        ];
        let plan = plan_for(2, Strategy::CollDedup, &GlobalView::default(), &world_inv);
        assert!(
            plan.manifest_moves.contains(&(0, 2, 2)),
            "rank 2's manifest must land on its own node: {:?}",
            plan.manifest_moves
        );
    }

    #[test]
    fn plan_skips_tombstoned_ranks_and_flags_truly_lost_manifests() {
        let mut absent_inv = inv(true, vec![0], vec![]);
        absent_inv.absent = vec![1];
        let world_inv = vec![absent_inv, inv(true, vec![0], vec![])];
        let plan = plan_for(2, Strategy::CollDedup, &GlobalView::default(), &world_inv);
        // Rank 1 is tombstoned (degraded dump): not unrepairable, just
        // absent. Rank 0's manifest already has 2 copies: nothing to do.
        assert!(plan.unrepairable_manifests.is_empty());
        assert!(plan.manifest_moves.is_empty());
    }

    #[test]
    fn no_dedup_plan_repairs_blobs_not_manifests() {
        let mut a = inv(true, vec![], vec![]);
        a.blob_owners = vec![0, 1];
        let b = inv(true, vec![], vec![]);
        let world_inv = vec![a, b];
        let plan = plan_for(2, Strategy::NoDedup, &GlobalView::default(), &world_inv);
        assert_eq!(plan.blob_moves, vec![(0, 1, 0), (0, 1, 1)]);
        assert!(plan.manifest_moves.is_empty() && plan.chunk_moves.is_empty());
    }

    #[test]
    fn plan_is_deterministic_and_idempotent_on_healthy_state() {
        let global = GlobalView {
            entries: vec![entry(1, vec![0, 1])],
        };
        let world_inv = vec![
            inv(true, vec![0, 1], vec![1]),
            inv(true, vec![0, 1], vec![]),
        ];
        let p1 = plan_for(2, Strategy::CollDedup, &global, &world_inv);
        let p2 = plan_for(2, Strategy::CollDedup, &global, &world_inv);
        assert_eq!(p1, p2);
        assert!(p1.chunk_moves.is_empty(), "healthy state plans no work");
        assert!(p1.unrepairable_chunks.is_empty());
    }

    #[test]
    fn destinations_spread_by_planned_load() {
        // Two one-copy chunks on node 0, three spare nodes, K=2: the two
        // new copies must land on different nodes.
        let global = GlobalView {
            entries: vec![entry(1, vec![0]), entry(2, vec![0])],
        };
        let world_inv = vec![
            inv(true, vec![0], vec![1, 2]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
        ];
        let plan = plan_for(2, Strategy::CollDedup, &global, &world_inv);
        assert_eq!(plan.chunk_moves.len(), 2);
        assert_ne!(
            plan.chunk_moves[0].1, plan.chunk_moves[1].1,
            "load balancing must spread new copies: {:?}",
            plan.chunk_moves
        );
    }

    fn meta(k: u8, m: u8, index: u8) -> ShardMeta {
        ShardMeta {
            k,
            m,
            index,
            total_len: 64,
        }
    }

    #[test]
    fn plan_rebuilds_missing_shards_on_their_home_leaders() {
        let key = StripeKey::Chunk(fp(7));
        let homes = shard_nodes(key.seed(), 3, 4);
        let mut world_inv = vec![
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
        ];
        // Indices 0 and 1 sit on their home nodes; index 2 is lost.
        for index in [0u8, 1] {
            world_inv[homes[index as usize] as usize]
                .shards
                .push((key, meta(2, 1, index)));
        }
        let plan = plan_for(2, Strategy::CollDedup, &GlobalView::default(), &world_inv);
        assert_eq!(
            plan.shard_rebuilds,
            vec![(homes[2], key, 2)],
            "exactly the lost shard is rebuilt, on its home node's leader"
        );
        assert!(plan.unrepairable_stripes.is_empty());
    }

    #[test]
    fn plan_flags_stripes_below_k_survivors() {
        let key = StripeKey::Chunk(fp(9));
        let mut world_inv = vec![inv(true, vec![], vec![]), inv(true, vec![], vec![])];
        world_inv[0].shards.push((key, meta(2, 1, 0)));
        let plan = plan_for(2, Strategy::CollDedup, &GlobalView::default(), &world_inv);
        assert_eq!(plan.unrepairable_stripes, vec![key]);
        assert!(
            plan.shard_rebuilds.is_empty(),
            "a dead stripe plans no rebuilds"
        );
    }

    #[test]
    fn coded_chunks_with_viable_stripes_are_not_unrepairable() {
        // fp 7 has no replica anywhere but a viable 2-survivor stripe;
        // fp 8 has neither replicas nor shards.
        let key = StripeKey::Chunk(fp(7));
        let mut world_inv = vec![
            inv(true, vec![0], vec![7, 8]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
        ];
        world_inv[0].shards.push((key, meta(2, 1, 0)));
        world_inv[1].shards.push((key, meta(2, 1, 1)));
        let plan = plan_for(2, Strategy::CollDedup, &GlobalView::default(), &world_inv);
        assert_eq!(plan.unrepairable_chunks, vec![fp(8)]);
        assert!(plan.unrepairable_stripes.is_empty());
    }

    #[test]
    fn coded_blob_with_viable_stripe_is_not_unrepairable() {
        // Neither rank has a stored blob; rank 1's was striped at dump
        // time (dump_id 1 — the one `plan_for` plans for), rank 0's is
        // truly gone.
        let key = StripeKey::Blob {
            owner: 1,
            dump_id: 1,
        };
        let mut world_inv = vec![inv(true, vec![], vec![]), inv(true, vec![], vec![])];
        world_inv[0].shards.push((key, meta(1, 1, 0)));
        let plan = plan_for(2, Strategy::NoDedup, &GlobalView::default(), &world_inv);
        assert_eq!(plan.unrepairable_blobs, vec![0]);
    }
}
