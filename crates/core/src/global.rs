//! Phase two of the deduplication: the global fingerprint view and the
//! `HMERGE` reduction operator.
//!
//! "We propose an efficient (logarithmic in the number of processes)
//! reduction-based algorithm that performs both the selection and the
//! frequency counting in a hierarchic bottom-up fashion. [...] it is based
//! on a merge step that given two sets of fingerprints and the frequency of
//! their appearance, outputs the F most frequent fingerprints of the union
//! [...]. Besides counting the frequency, the merge step also associates at
//! most K processes for each fingerprint (the *designated ranks*)."
//! (Section III-B)
//!
//! Load balancing is embedded in the merge exactly as the paper describes:
//! "for each process we count the number of fingerprints it was designated
//! for. Whenever we need to merge two fingerprints, if the combined list of
//! ranks is larger than K, we truncate it in such way that the most loaded
//! ranks are eliminated first."
//!
//! Entries are kept sorted by fingerprint so the merge is a linear
//! merge-join and the post-broadcast lookup is a binary search. The
//! reduction runs as the runtime's `allreduce`: a binomial tree reduce to
//! rank 0 whose every merge joins two *disjoint*, adjacent rank blocks —
//! which is what makes frequency addition exact and designated-rank lists
//! duplicate-free — followed by a broadcast of the final view. The tree
//! presents operands in the same bracket as a recursive-doubling
//! allreduce, so the view is the same one, and N ranks run N−1 merges.

use replidedup_hash::Fingerprint;
use replidedup_mpi::wire::{Wire, WireError, WireResult};
use replidedup_mpi::{Comm, CommError, Rank};
use std::collections::HashMap;

/// One fingerprint's global record: frequency and designated ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalEntry {
    /// The chunk fingerprint.
    pub fp: Fingerprint,
    /// Number of ranks observed holding this chunk (each rank counts once,
    /// local duplicates were already collapsed).
    pub freq: u64,
    /// Designated ranks (ascending, at most `K`, all actual holders). These
    /// ranks keep the chunk; everyone else may discard their copy once
    /// `freq >= K`.
    pub ranks: Vec<Rank>,
}

/// The (partial or final) global view: entries sorted by fingerprint,
/// at most `F` of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalView {
    /// Entries sorted ascending by fingerprint.
    pub entries: Vec<GlobalEntry>,
}

impl GlobalView {
    /// Leaf view of one rank: every locally unique fingerprint with
    /// frequency 1 and itself as the sole designated rank. When the rank
    /// holds more than `F` unique fingerprints, only the first `F` in
    /// fingerprint order enter the view — "we select only a maximum of F
    /// fingerprints [...] while considering the rest of them unique even if
    /// they are not"; correctness is unaffected, only dedup quality.
    pub fn from_local<I>(rank: Rank, fps: I, f_threshold: usize) -> Self
    where
        I: IntoIterator<Item = Fingerprint>,
    {
        let mut fps: Vec<Fingerprint> = fps.into_iter().collect();
        fps.sort_unstable();
        fps.dedup();
        fps.truncate(f_threshold);
        Self {
            entries: fps
                .into_iter()
                .map(|fp| GlobalEntry {
                    fp,
                    freq: 1,
                    ranks: vec![rank],
                })
                .collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Binary-search lookup by fingerprint.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<&GlobalEntry> {
        self.entries
            .binary_search_by(|e| e.fp.cmp(fp))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// `HMERGE`: combine two partial views into the `F` most frequent
    /// fingerprints of their union, with load-balanced designated-rank
    /// truncation.
    ///
    /// The two inputs must come from disjoint rank blocks (guaranteed by
    /// the allreduce's tree), so frequencies add and rank lists union
    /// without double counting.
    pub fn merge(a: GlobalView, b: GlobalView, k: u32, f_threshold: usize) -> GlobalView {
        debug_assert!(k >= 1);
        // Pass 1: merge-join the fingerprint-sorted entry lists.
        let mut merged: Vec<GlobalEntry> = Vec::with_capacity(a.len() + b.len());
        let mut ia = a.entries.into_iter().peekable();
        let mut ib = b.entries.into_iter().peekable();
        loop {
            match (ia.peek(), ib.peek()) {
                (Some(ea), Some(eb)) => match ea.fp.cmp(&eb.fp) {
                    std::cmp::Ordering::Less => merged.push(ia.next().expect("peeked")),
                    std::cmp::Ordering::Greater => merged.push(ib.next().expect("peeked")),
                    std::cmp::Ordering::Equal => {
                        let ea = ia.next().expect("peeked");
                        let eb = ib.next().expect("peeked");
                        let mut ranks = ea.ranks;
                        ranks.extend(eb.ranks);
                        merged.push(GlobalEntry {
                            fp: ea.fp,
                            freq: ea.freq + eb.freq,
                            ranks,
                        });
                    }
                },
                (Some(_), None) => merged.push(ia.next().expect("peeked")),
                (None, Some(_)) => merged.push(ib.next().expect("peeked")),
                (None, None) => break,
            }
        }
        // Pass 2: keep only the F most frequent fingerprints (ties broken
        // by fingerprint for cross-rank determinism).
        if merged.len() > f_threshold {
            merged.sort_unstable_by(|x, y| y.freq.cmp(&x.freq).then(x.fp.cmp(&y.fp)));
            merged.truncate(f_threshold);
            merged.sort_unstable_by_key(|x| x.fp);
        }
        // Pass 3: load-balanced truncation of designated-rank lists over
        // the surviving entries, in fingerprint order. `loads[r]` counts
        // how many surviving fingerprints rank r is designated for so far;
        // when a combined list exceeds K we keep the K least-loaded ranks.
        let mut loads: HashMap<Rank, u32> = HashMap::new();
        for entry in &mut merged {
            if entry.ranks.len() > k as usize {
                entry
                    .ranks
                    .sort_unstable_by_key(|r| (loads.get(r).copied().unwrap_or(0), *r));
                entry.ranks.truncate(k as usize);
            }
            entry.ranks.sort_unstable();
            debug_assert!(
                entry.ranks.windows(2).all(|w| w[0] < w[1]),
                "designated ranks must be distinct"
            );
            for &r in &entry.ranks {
                *loads.entry(r).or_insert(0) += 1;
            }
        }
        GlobalView { entries: merged }
    }

    /// Exact size in bytes of this view's [`Wire`] encoding, computed by
    /// arithmetic instead of encoding the view a second time just to
    /// measure it (the reduction already paid for the real encodes).
    pub fn wire_size(&self) -> usize {
        // Vec length prefix + per entry: fingerprint, u64 freq, ranks
        // length prefix, 4 bytes per u32 rank.
        8 + self
            .entries
            .iter()
            .map(|e| Fingerprint::SIZE + 8 + 8 + 4 * e.ranks.len())
            .sum::<usize>()
    }

    /// Per-rank designation counts of this view (diagnostics / tests).
    pub fn designation_loads(&self) -> HashMap<Rank, u32> {
        let mut loads: HashMap<Rank, u32> = HashMap::new();
        for e in &self.entries {
            for &r in &e.ranks {
                *loads.entry(r).or_insert(0) += 1;
            }
        }
        loads
    }
}

impl Wire for GlobalEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.fp.encode(buf);
        self.freq.encode(buf);
        self.ranks.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(GlobalEntry {
            fp: Fingerprint::decode(input)?,
            freq: u64::decode(input)?,
            ranks: Vec::decode(input)?,
        })
    }
}

impl Wire for GlobalView {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.entries.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        let entries: Vec<GlobalEntry> = Vec::decode(input)?;
        if !entries.windows(2).all(|w| w[0].fp < w[1].fp) {
            return Err(WireError::Malformed {
                what: "GlobalView (unsorted)",
            });
        }
        Ok(GlobalView { entries })
    }
}

/// Run the collective fingerprint reduction: every rank contributes its
/// leaf view; all ranks receive the identical final view of at most
/// `f_threshold` entries (the paper's `ALLREDUCE(HMERGE, LHashes)`).
pub fn reduce_global_view(
    comm: &mut Comm,
    local: GlobalView,
    k: u32,
    f_threshold: usize,
) -> GlobalView {
    comm.allreduce(local, |a, b| GlobalView::merge(a, b, k, f_threshold))
}

/// Fallible [`reduce_global_view`]: surfaces rank deaths during the
/// reduction as [`CommError`] instead of panicking.
pub fn try_reduce_global_view(
    comm: &mut Comm,
    local: GlobalView,
    k: u32,
    f_threshold: usize,
) -> Result<GlobalView, CommError> {
    comm.try_allreduce(local, |a, b| GlobalView::merge(a, b, k, f_threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use replidedup_mpi::WorldConfig;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    fn leaf(rank: Rank, ids: &[u64]) -> GlobalView {
        GlobalView::from_local(rank, ids.iter().map(|&n| fp(n)), usize::MAX)
    }

    #[test]
    fn leaf_view_is_sorted_deduped_and_truncated() {
        let v = GlobalView::from_local(3, [fp(5), fp(1), fp(5), fp(2)], 2);
        assert_eq!(v.len(), 2);
        assert!(v.entries[0].fp < v.entries[1].fp);
        assert!(v.entries.iter().all(|e| e.freq == 1 && e.ranks == vec![3]));
    }

    #[test]
    fn merge_sums_frequencies_of_shared_fingerprints() {
        let a = leaf(0, &[1, 2, 3]);
        let b = leaf(1, &[2, 3, 4]);
        let m = GlobalView::merge(a, b, 3, usize::MAX);
        assert_eq!(m.len(), 4);
        assert_eq!(m.lookup(&fp(1)).unwrap().freq, 1);
        assert_eq!(m.lookup(&fp(2)).unwrap().freq, 2);
        assert_eq!(m.lookup(&fp(2)).unwrap().ranks, vec![0, 1]);
        assert_eq!(m.lookup(&fp(4)).unwrap().ranks, vec![1]);
    }

    #[test]
    fn merge_truncates_to_k_designated_ranks() {
        let mut acc = leaf(0, &[7]);
        for r in 1..6 {
            acc = GlobalView::merge(acc, leaf(r, &[7]), 3, usize::MAX);
        }
        let e = acc.lookup(&fp(7)).unwrap();
        assert_eq!(e.freq, 6, "frequency keeps counting past K");
        assert_eq!(e.ranks.len(), 3, "designated ranks capped at K");
        assert!(e.ranks.windows(2).all(|w| w[0] < w[1]), "ranks sorted");
    }

    #[test]
    fn top_f_selection_keeps_most_frequent() {
        // fp 10 appears on both ranks, fps 1..=3 on one each.
        let a = leaf(0, &[10, 1, 2]);
        let b = leaf(1, &[10, 3]);
        let m = GlobalView::merge(a, b, 3, 2);
        assert_eq!(m.len(), 2);
        assert!(m.lookup(&fp(10)).is_some(), "most frequent must survive");
        // The tie among freq-1 entries breaks by fingerprint order.
        let survivors: Vec<u64> = m.entries.iter().map(|e| e.freq).collect();
        assert_eq!(survivors.iter().max(), Some(&2));
    }

    #[test]
    fn load_balanced_truncation_spreads_designations() {
        // All 6 ranks hold the same 12 chunks; K=3 means each chunk keeps 3
        // designated ranks — load balance should give every rank 12*3/6 = 6
        // designations, never the naive "first 3 ranks get everything".
        let chunks: Vec<u64> = (0..12).collect();
        let mut acc = leaf(0, &chunks);
        for r in 1..6 {
            acc = GlobalView::merge(acc, leaf(r, &chunks), 3, usize::MAX);
        }
        let loads = acc.designation_loads();
        assert_eq!(loads.len(), 6, "every rank must be designated somewhere");
        for (r, l) in &loads {
            assert!(
                (4..=8).contains(l),
                "rank {r} got {l} designations; expected ~6 (even spread)"
            );
        }
        let total: u32 = loads.values().sum();
        assert_eq!(total, 12 * 3);
    }

    #[test]
    fn merge_is_deterministic() {
        let a = leaf(0, &[1, 2, 3, 4, 5]);
        let b = leaf(1, &[3, 4, 5, 6, 7]);
        let m1 = GlobalView::merge(a.clone(), b.clone(), 2, 4);
        let m2 = GlobalView::merge(a, b, 2, 4);
        assert_eq!(m1, m2);
    }

    #[test]
    fn merged_view_stays_sorted() {
        let a = leaf(0, &[9, 1, 5]);
        let b = leaf(1, &[2, 8]);
        let m = GlobalView::merge(a, b, 3, usize::MAX);
        assert!(m.entries.windows(2).all(|w| w[0].fp < w[1].fp));
    }

    #[test]
    fn wire_roundtrip() {
        let a = leaf(0, &[1, 2]);
        let b = leaf(1, &[2, 3]);
        let m = GlobalView::merge(a, b, 3, usize::MAX);
        let bytes = m.to_bytes();
        assert_eq!(GlobalView::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn wire_size_matches_actual_encoding() {
        for view in [
            GlobalView::default(),
            leaf(0, &[1, 2, 3]),
            GlobalView::merge(leaf(0, &[1, 2, 3]), leaf(1, &[2, 3, 4]), 3, usize::MAX),
            GlobalView::merge(leaf(0, &[7]), leaf(1, &[7]), 1, usize::MAX),
        ] {
            assert_eq!(view.wire_size(), view.to_bytes().len());
        }
    }

    #[test]
    fn wire_rejects_unsorted_view() {
        let bad = GlobalView {
            entries: vec![
                GlobalEntry {
                    fp: fp(5),
                    freq: 1,
                    ranks: vec![0],
                },
                GlobalEntry {
                    fp: fp(1),
                    freq: 1,
                    ranks: vec![1],
                },
            ],
        };
        let mut buf = Vec::new();
        bad.entries.encode(&mut buf);
        assert!(GlobalView::from_bytes(&buf).is_err());
    }

    #[test]
    fn reduction_counts_exactly_across_world() {
        // 8 ranks; rank r holds chunks {r, r+1, 100}: chunk 100 is on all 8,
        // interior chunks on exactly 2 ranks, endpoints on 1.
        let out = WorldConfig::default()
            .launch(8, |comm| {
                let me = comm.rank();
                let local = GlobalView::from_local(
                    me,
                    [fp(u64::from(me)), fp(u64::from(me) + 1), fp(100)],
                    usize::MAX,
                );
                reduce_global_view(comm, local, 3, usize::MAX)
            })
            .expect_all();
        let first = &out.results[0];
        for r in &out.results {
            assert_eq!(r, first, "all ranks must hold the identical view");
        }
        assert_eq!(first.lookup(&fp(100)).unwrap().freq, 8);
        assert_eq!(first.lookup(&fp(100)).unwrap().ranks.len(), 3);
        assert_eq!(first.lookup(&fp(0)).unwrap().freq, 1);
        for mid in 1..8u64 {
            assert_eq!(first.lookup(&fp(mid)).unwrap().freq, 2, "chunk {mid}");
        }
    }

    #[test]
    fn reduction_respects_f_threshold() {
        let out = WorldConfig::default()
            .launch(5, |comm| {
                let me = comm.rank();
                // Every rank holds chunk 0 (freq 5) plus 10 private chunks.
                let mut ids = vec![0u64];
                ids.extend((0..10).map(|i| 1000 + u64::from(me) * 100 + i));
                let local = GlobalView::from_local(me, ids.into_iter().map(fp), 4);
                reduce_global_view(comm, local, 2, 4)
            })
            .expect_all();
        for view in &out.results {
            assert!(view.len() <= 4);
            assert_eq!(
                view.lookup(&fp(0)).unwrap().freq,
                5,
                "the genuinely frequent chunk must survive selection"
            );
        }
    }

    #[test]
    fn designated_ranks_are_actual_holders() {
        let out = WorldConfig::default()
            .launch(6, |comm| {
                let me = comm.rank();
                // Even ranks hold chunk 42; odd ranks hold chunk 43.
                let id = if me % 2 == 0 { 42 } else { 43 };
                let local = GlobalView::from_local(me, [fp(id)], usize::MAX);
                reduce_global_view(comm, local, 2, usize::MAX)
            })
            .expect_all();
        let view = &out.results[0];
        for &r in &view.lookup(&fp(42)).unwrap().ranks {
            assert_eq!(r % 2, 0, "designated rank {r} does not hold chunk 42");
        }
        for &r in &view.lookup(&fp(43)).unwrap().ranks {
            assert_eq!(r % 2, 1, "designated rank {r} does not hold chunk 43");
        }
    }

    /// The operand bracket of a recursive-doubling allreduce over `leaves`
    /// (ranks ≥ p2 fold into rank − p2, then each doubling round combines
    /// partners lower rank first), evaluated sequentially.
    fn doubling_bracket<T: Clone>(leaves: &[T], op: impl Fn(T, T) -> T) -> T {
        let p2 = 1 << leaves.len().ilog2();
        let mut acc = leaves[..p2].to_vec();
        for (i, upper) in leaves[p2..].iter().enumerate() {
            acc[i] = op(acc[i].clone(), upper.clone());
        }
        let mut dist = 1;
        while dist < p2 {
            acc = (0..p2)
                .map(|i| {
                    let (lo, hi) = (i.min(i ^ dist), i.max(i ^ dist));
                    op(acc[lo].clone(), acc[hi].clone())
                })
                .collect();
            dist <<= 1;
        }
        acc.swap_remove(0)
    }

    #[test]
    fn reduction_at_96_ranks_equals_the_sequential_doubling_bracket() {
        // Overlapping holdings under a small K and F: top-F selection and
        // load-balanced truncation make HMERGE order-sensitive, so only
        // the exact bracket reproduces the view.
        let (n, k, f) = (96u32, 2, 48);
        let leaves: Vec<GlobalView> = (0..n)
            .map(|r| {
                let ids = (0..24u64).map(|i| fp((u64::from(r) * 7 + i * 13) % 211));
                GlobalView::from_local(r, ids, f)
            })
            .collect();
        let merge = |a, b| GlobalView::merge(a, b, k, f);
        let expect = doubling_bracket(&leaves, merge);
        let left_fold = leaves.iter().cloned().reduce(merge).unwrap();
        assert_ne!(expect, left_fold, "the test views must be order-sensitive");
        for workers in [1, 2, 4] {
            let out = WorldConfig::default()
                .with_workers(workers)
                .launch(n, |comm| {
                    let local = leaves[comm.rank() as usize].clone();
                    reduce_global_view(comm, local, k, f)
                })
                .expect_all();
            for (rank, view) in out.results.iter().enumerate() {
                assert_eq!(view, &expect, "{workers} workers, rank {rank}");
            }
        }
    }
}
