//! One-sided communication (MPI-style RMA windows).
//!
//! The paper's exchange phase avoids receive-side buffering by having every
//! partner `put` its chunks directly at a precomputed offset in the
//! target's window ("expose a designated memory region to each partner in a
//! consistent fashion"). The window is sized exactly from the gathered load
//! information, "avoiding any waste" — important because the application
//! occupies most of the memory at checkpoint time.
//!
//! Semantics mirror `MPI_Win_create` / `MPI_Put` / `MPI_Win_fence`:
//! creation is collective, `put` is one-sided and completes at the next
//! fence, and local reads are only valid after a fence. In this runtime a
//! `put` is a locked `memcpy` into the target buffer, so the fence reduces
//! to a barrier.
//!
//! Creation exchanges no messages of its own. All ranks share one process,
//! so a world-wide registration table (`WinRegistry`) stands in for the
//! handle exchange a distributed MPI implementation runs over the network:
//! each rank deposits its exposure under the window's sequence number, and
//! after the opening barrier every rank reads the complete set of handles.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use replidedup_buf::{global_pool, Chunk};

use crate::comm::{Comm, Rank};
use crate::fault::{CommError, FaultRuntime};

/// Shared backing buffer of one rank's window. Backed by the global
/// [`BufferPool`](replidedup_buf::BufferPool): creation takes a recycled
/// buffer, and dropping the window returns it — unless
/// [`Window::take_local`] already froze it into long-lived [`Bytes`].
pub struct WinBuf {
    data: Mutex<Vec<u8>>,
    size: usize,
}

impl Drop for WinBuf {
    fn drop(&mut self) {
        if let Ok(buf) = self.data.get_mut() {
            global_pool().put_back(std::mem::take(buf));
        }
    }
}

impl std::fmt::Debug for WinBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WinBuf").field("size", &self.size).finish()
    }
}

/// One window's registration, keyed by its sequence number.
enum Registration {
    /// The handles deposited so far, by rank; `unread` ranks have not
    /// picked the set up yet.
    Open {
        handles: Vec<Option<Arc<WinBuf>>>,
        unread: u32,
    },
    /// Some rank failed this creation. Holds no exposure; later readers
    /// fail with the same error.
    Failed(CommError),
}

/// The world-wide window registration table. An entry lives from the
/// first deposit until the last rank picks the handles up; a rank that
/// fails the creation (error return or crash) replaces it with a
/// [`Registration::Failed`] marker that pins no exposure.
#[derive(Default)]
pub(crate) struct WinRegistry {
    entries: Mutex<HashMap<u64, Registration>>,
}

impl WinRegistry {
    fn entries(&self) -> MutexGuard<'_, HashMap<u64, Registration>> {
        // Every update is one insert, remove or field write, so the table
        // stays consistent even if a panic poisoned the lock.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deposit `rank`'s exposure for window `seq` of a world of `n`.
    fn deposit(self: &Arc<Self>, seq: u64, rank: Rank, n: u32, mine: Arc<WinBuf>) -> Deposit {
        let mut entries = self.entries();
        let entry = entries.entry(seq).or_insert_with(|| Registration::Open {
            handles: vec![None; n as usize],
            unread: n,
        });
        // A failed entry stays failed; a late rank's exposure just drops.
        if let Registration::Open { handles, .. } = entry {
            handles[rank as usize] = Some(mine);
        }
        Deposit {
            registry: Arc::clone(self),
            seq,
            failure: Some(CommError::RankFailed { rank }),
        }
    }

    /// Number of exposures the table still holds, over all entries.
    #[cfg(test)]
    pub(crate) fn pinned_exposures(&self) -> usize {
        self.entries()
            .values()
            .map(|entry| match entry {
                Registration::Open { handles, .. } => handles.iter().flatten().count(),
                Registration::Failed(_) => 0,
            })
            .sum()
    }
}

/// One rank's pending deposit in the [`WinRegistry`].
struct Deposit {
    registry: Arc<WinRegistry>,
    seq: u64,
    /// What dropping the deposit records for the ranks still to read it:
    /// the depositor's own death (a crash unwinding through `win_create`)
    /// unless [`Deposit::fail`] names the error or [`Deposit::pick_up`]
    /// clears it.
    failure: Option<CommError>,
}

impl Deposit {
    /// Read every rank's handle after the opening barrier; the last reader
    /// removes the entry.
    fn pick_up(mut self) -> Result<Vec<Arc<WinBuf>>, CommError> {
        self.failure = None;
        let mut entries = self.registry.entries();
        match entries.get_mut(&self.seq) {
            Some(Registration::Open { handles, unread }) => {
                let all = handles
                    .iter()
                    .map(|h| {
                        let h = h.as_ref();
                        Arc::clone(h.expect("every rank deposits before the opening barrier"))
                    })
                    .collect();
                *unread -= 1;
                if *unread == 0 {
                    entries.remove(&self.seq);
                }
                Ok(all)
            }
            Some(Registration::Failed(e)) => Err(e.clone()),
            None => unreachable!("the entry outlives every rank that has not picked it up"),
        }
    }

    /// Fail the creation with `e` for every rank that has not picked it
    /// up yet.
    fn fail(mut self, e: CommError) {
        self.failure = Some(e);
    }
}

impl Drop for Deposit {
    fn drop(&mut self) {
        if let Some(e) = self.failure.take() {
            self.registry
                .entries()
                .insert(self.seq, Registration::Failed(e));
        }
    }
}

/// A collectively created RMA window: every rank exposes `local_size` bytes
/// and can `put` into (or `get` from) any peer's exposure.
pub struct Window {
    rank: Rank,
    handles: Vec<Arc<WinBuf>>,
    counters: Arc<Vec<crate::stats::RankCounters>>,
    fault_rt: Option<Arc<FaultRuntime>>,
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("rank", &self.rank)
            .field("world", &self.handles.len())
            .finish()
    }
}

impl Comm {
    /// Collectively create a window exposing `local_size` bytes on this
    /// rank (sizes may differ per rank). Must be called by every rank.
    pub fn win_create(&mut self, local_size: usize) -> Window {
        self.try_win_create(local_size)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::win_create`]: the entry guard and the opening
    /// barrier detect rank deaths and fail with [`CommError`] instead of
    /// timing out.
    pub fn try_win_create(&mut self, local_size: usize) -> Result<Window, CommError> {
        self.enter_phase("win_create");
        let out = self.try_win_create_inner(local_size);
        self.exit_phase("win_create");
        out
    }

    fn try_win_create_inner(&mut self, local_size: usize) -> Result<Window, CommError> {
        self.tracer()
            .gauge_bytes("win_local_bytes", local_size as u64);
        // Pool-backed exposure: recycled buffers arrive cleared, so the
        // resize zero-fills and every window starts all-zero (put offsets
        // may leave gaps that readers expect to be zero).
        let mut backing = global_pool().take(local_size);
        backing.resize(local_size, 0);
        let mine = Arc::new(WinBuf {
            data: Mutex::new(backing),
            size: local_size,
        });
        // The window and collective sequence numbers advance exactly once
        // per call on every rank, failed or not (the barrier's entry guard
        // refuses a world with a dead rank), so survivors stay in step.
        self.win_seq += 1;
        let deposit = self
            .win_registry()
            .deposit(self.win_seq, self.rank(), self.size(), mine);
        // Opening barrier: every rank has deposited before any rank reads
        // the handles, and no rank may put before every rank has exposed.
        if let Err(e) = self.try_barrier() {
            deposit.fail(e.clone());
            return Err(e);
        }
        Ok(Window {
            rank: self.rank(),
            handles: deposit.pick_up()?,
            counters: Arc::clone(self.counters()),
            fault_rt: self.fault_rt().cloned(),
        })
    }
}

impl Window {
    /// Size of `rank`'s exposure in bytes.
    pub fn size_of(&self, rank: Rank) -> usize {
        self.handles[rank as usize].size
    }

    /// Size of the local exposure.
    pub fn local_size(&self) -> usize {
        self.size_of(self.rank)
    }

    /// One-sided write of `data` into `target`'s window at `offset`.
    ///
    /// # Panics
    /// If the write would overrun the target's exposure — an out-of-bounds
    /// RMA access corrupts unrelated memory on real hardware, so the
    /// simulated runtime fails fast instead.
    pub fn put(&self, target: Rank, offset: usize, data: &[u8]) {
        self.try_put(target, offset, data)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Window::put`]: a put to a crashed rank's exposure fails
    /// fast with [`CommError::RankFailed`] (the memory behind a dead
    /// node's window is gone).
    pub fn try_put(&self, target: Rank, offset: usize, data: &[u8]) -> Result<(), CommError> {
        self.try_put_vectored(target, offset, &[data])
    }

    /// One-sided write of a [`Chunk`] into `target`'s window at `offset`.
    /// The local side performs no staging copy: the chunk's bytes are the
    /// RMA transfer's source buffer.
    pub fn put_chunk(&self, target: Rank, offset: usize, chunk: &Chunk) {
        self.try_put_chunk(target, offset, chunk)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Window::put_chunk`].
    pub fn try_put_chunk(
        &self,
        target: Rank,
        offset: usize,
        chunk: &Chunk,
    ) -> Result<(), CommError> {
        self.try_put_vectored(target, offset, &[chunk])
    }

    /// Scatter-gather one-sided write: `parts` land back-to-back at
    /// `offset` in `target`'s window under a single exposure lock. This is
    /// how a record header on the stack and a payload still inside the
    /// application buffer travel as *one* RMA transfer with no local
    /// coalescing copy.
    pub fn put_vectored(&self, target: Rank, offset: usize, parts: &[&[u8]]) {
        self.try_put_vectored(target, offset, parts)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Window::put_vectored`].
    pub fn try_put_vectored(
        &self,
        target: Rank,
        offset: usize,
        parts: &[&[u8]],
    ) -> Result<(), CommError> {
        if let Some(rt) = &self.fault_rt {
            if rt.is_dead(target) {
                return Err(CommError::RankFailed { rank: target });
            }
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let buf = &self.handles[target as usize];
        assert!(
            offset + total <= buf.size,
            "rank {}: put of {total} bytes at offset {offset} overruns window of {} on rank {target}",
            self.rank,
            buf.size
        );
        let mut guard = buf.data.lock().unwrap();
        let mut at = offset;
        for part in parts {
            guard[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        drop(guard);
        if target != self.rank {
            self.counters[self.rank as usize]
                .count_send(crate::stats::Transport::Rma, total as u64);
            self.counters[target as usize].count_recv(crate::stats::Transport::Rma, total as u64);
        }
        Ok(())
    }

    /// One-sided read of `len` bytes from `target`'s window at `offset` as
    /// an owned [`Chunk`]. The one memcpy out of the exposure *is* the
    /// modelled RMA transfer; no second local copy happens.
    pub fn get_chunk(&self, target: Rank, offset: usize, len: usize) -> Chunk {
        self.try_get_chunk(target, offset, len)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Window::get_chunk`].
    pub fn try_get_chunk(
        &self,
        target: Rank,
        offset: usize,
        len: usize,
    ) -> Result<Chunk, CommError> {
        self.get_vec(target, offset, len).map(Chunk::from)
    }

    fn get_vec(&self, target: Rank, offset: usize, len: usize) -> Result<Vec<u8>, CommError> {
        if let Some(rt) = &self.fault_rt {
            if rt.is_dead(target) {
                return Err(CommError::RankFailed { rank: target });
            }
        }
        let buf = &self.handles[target as usize];
        assert!(
            offset + len <= buf.size,
            "rank {}: get of {len} bytes at offset {offset} overruns window of {} on rank {target}",
            self.rank,
            buf.size
        );
        let out = buf.data.lock().unwrap()[offset..offset + len].to_vec();
        if target != self.rank {
            self.counters[self.rank as usize].count_rma_get(len as u64);
        }
        Ok(out)
    }

    /// Synchronization fence: completes all outstanding one-sided accesses
    /// in this epoch. Local reads of data put by peers are valid only after
    /// a fence. Must be called by every rank.
    pub fn fence(&self, comm: &mut Comm) {
        self.try_fence(comm).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Window::fence`]: fails with [`CommError::RankFailed`]
    /// when a rank died before or during the fence.
    pub fn try_fence(&self, comm: &mut Comm) -> Result<(), CommError> {
        comm.enter_phase("win_fence");
        let out = comm.try_barrier();
        comm.exit_phase("win_fence");
        out
    }

    /// Steal the local exposure as frozen [`Bytes`] without copying (valid
    /// after the *closing* fence — no further puts may target this rank).
    /// The window's backing buffer moves into the returned `Bytes`; the
    /// exposure is left empty, so later RMA access to this rank's window
    /// is a bounds violation by construction.
    pub fn take_local(&self) -> Bytes {
        Bytes::from(std::mem::take(
            &mut *self.handles[self.rank as usize].data.lock().unwrap(),
        ))
    }

    /// Run `f` over the local exposure without copying (valid after fence).
    pub fn with_local<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.handles[self.rank as usize].data.lock().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::WorldConfig;

    #[test]
    fn put_lands_at_offset() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(8);
                if comm.rank() == 0 {
                    win.put(1, 2, &[1, 2, 3]);
                }
                win.fence(comm);
                win.with_local(|d| d.to_vec())
            })
            .expect_all();
        assert_eq!(out.results[1], vec![0, 0, 1, 2, 3, 0, 0, 0]);
        assert_eq!(out.results[0], vec![0; 8]);
    }

    #[test]
    fn heterogeneous_window_sizes() {
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let me = comm.rank() as usize;
                let win = comm.win_create(me * 4);
                assert_eq!(win.local_size(), me * 4);
                assert_eq!(win.size_of(2), 8);
                // Everyone writes one byte into rank 2's window, disjointly.
                if me < 2 {
                    win.put(2, me, &[me as u8 + 10]);
                }
                win.fence(comm);
                win.with_local(|d| d.to_vec())
            })
            .expect_all();
        assert_eq!(out.results[2][..2], [10, 11]);
    }

    #[test]
    fn disjoint_concurrent_puts_all_land() {
        let out = WorldConfig::default()
            .launch(8, |comm| {
                let n = comm.size() as usize;
                let win = comm.win_create(if comm.rank() == 0 { n } else { 0 });
                win.put(0, comm.rank() as usize, &[comm.rank() as u8 + 1]);
                win.fence(comm);
                win.with_local(|d| d.to_vec())
            })
            .expect_all();
        assert_eq!(out.results[0], (1..=8u8).collect::<Vec<_>>());
    }

    #[test]
    fn get_reads_remote_exposure() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(4);
                if comm.rank() == 1 {
                    win.put(1, 0, &[9, 8, 7, 6]); // local put
                }
                win.fence(comm);
                let data = if comm.rank() == 0 {
                    Vec::from(win.get_chunk(1, 1, 2))
                } else {
                    Vec::new()
                };
                win.fence(comm);
                data
            })
            .expect_all();
        assert_eq!(out.results[0], vec![8, 7]);
    }

    #[test]
    fn self_put_is_not_counted_as_traffic() {
        let out = WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(4);
                win.put(0, 0, &[1, 2, 3, 4]);
                win.fence(comm);
                win.with_local(|d| d.to_vec())
            })
            .expect_all();
        assert_eq!(out.results[0], vec![1, 2, 3, 4]);
        assert_eq!(out.traffic.ranks[0].rma_put, 0);
        assert_eq!(out.traffic.ranks[0].rma_recv, 0);
    }

    #[test]
    fn rma_traffic_is_attributed_to_both_sides() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(100);
                if comm.rank() == 0 {
                    win.put(1, 0, &[0xAA; 64]);
                }
                win.fence(comm);
            })
            .expect_all();
        assert_eq!(out.traffic.ranks[0].rma_put, 64);
        assert_eq!(out.traffic.ranks[1].rma_recv, 64);
        assert_eq!(out.traffic.ranks[1].rma_put, 0);
    }

    #[test]
    fn successive_windows_do_not_cross_talk() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let w1 = comm.win_create(2);
                let w2 = comm.win_create(2);
                if comm.rank() == 0 {
                    w1.put(1, 0, &[1, 1]);
                    w2.put(1, 0, &[2, 2]);
                }
                w1.fence(comm);
                w2.fence(comm);
                (w1.with_local(|d| d.to_vec()), w2.with_local(|d| d.to_vec()))
            })
            .expect_all();
        assert_eq!(out.results[1].0, vec![1, 1]);
        assert_eq!(out.results[1].1, vec![2, 2]);
    }

    #[test]
    fn with_local_avoids_copy() {
        let out = WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(3);
                win.put(0, 0, &[5, 6, 7]);
                win.fence(comm);
                win.with_local(|d| d.iter().map(|&b| u32::from(b)).sum::<u32>())
            })
            .expect_all();
        assert_eq!(out.results[0], 18);
    }

    #[test]
    #[should_panic(expected = "overruns window")]
    fn out_of_bounds_put_panics() {
        WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(4);
                win.put(0, 2, &[0; 4]);
            })
            .expect_all();
    }

    #[test]
    fn vectored_put_lands_parts_back_to_back() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(8);
                if comm.rank() == 0 {
                    win.put_vectored(1, 1, &[&[1, 2], &[3], &[4, 5]]);
                }
                win.fence(comm);
                win.with_local(|d| d.to_vec())
            })
            .expect_all();
        assert_eq!(out.results[1], vec![0, 1, 2, 3, 4, 5, 0, 0]);
        // The vectored put counts once, as the sum of its parts.
        assert_eq!(out.traffic.ranks[0].rma_put, 5);
        assert_eq!(out.traffic.ranks[1].rma_recv, 5);
    }

    #[test]
    fn chunk_put_and_get_roundtrip() {
        use replidedup_buf::Chunk;
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(4);
                if comm.rank() == 0 {
                    let app_buffer = Chunk::from(vec![7u8, 8, 9, 10]);
                    win.put_chunk(1, 0, &app_buffer.slice(1..3));
                }
                win.fence(comm);
                let got = if comm.rank() == 1 {
                    win.get_chunk(1, 0, 2)
                } else {
                    Chunk::new()
                };
                win.fence(comm);
                got.to_vec()
            })
            .expect_all();
        assert_eq!(out.results[1], vec![8, 9]);
    }

    #[test]
    fn take_local_is_zero_copy_and_empties_the_exposure() {
        let out = WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(4);
                win.put(0, 0, &[1, 2, 3, 4]);
                win.fence(comm);
                let copied_before = replidedup_buf::thread_bytes_copied();
                let frozen = win.take_local();
                let copied = replidedup_buf::thread_bytes_copied() - copied_before;
                (frozen.to_vec(), win.with_local(|d| d.len()), copied)
            })
            .expect_all();
        let (frozen, left, copied_by_steal) = &out.results[0];
        assert_eq!(*frozen, vec![1, 2, 3, 4]);
        assert_eq!(*left, 0, "exposure stolen");
        // The steal records no copy: the backing Vec moves into the Bytes.
        assert_eq!(*copied_by_steal, 0);
    }

    #[test]
    fn dropped_windows_recycle_their_backing() {
        use replidedup_buf::global_pool;
        // Warm the shelf, then show a same-sized window reuses it.
        let size = 1 << 16;
        WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(size);
                win.fence(comm);
            })
            .expect_all();
        let before = global_pool().stats();
        WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(size);
                win.fence(comm);
            })
            .expect_all();
        let after = global_pool().stats();
        assert!(
            after.hits > before.hits,
            "second window must come from the pool shelf"
        );
    }

    #[test]
    fn zero_sized_window_is_legal() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(0);
                win.fence(comm);
                win.local_size()
            })
            .expect_all();
        assert_eq!(out.results, vec![0, 0]);
    }

    #[test]
    fn rma_to_dead_rank_fails_fast() {
        use crate::comm::WorldConfig;
        use crate::fault::{CommError, FaultPlan, FaultTrigger};
        use std::time::Duration;

        let plan = FaultPlan::new(21).crash(1, FaultTrigger::PhaseStart("doomed".into()));
        let config = WorldConfig::default()
            .with_recv_timeout(Duration::from_secs(2))
            .with_faults(plan);
        let out = config.launch(3, |comm| {
            let win = comm.try_win_create(8).expect("all ranks alive at create");
            if comm.rank() == 1 {
                // Wait for explicit acks so the crash strictly follows every
                // rank finishing win_create (otherwise a survivor still in
                // the opening fence would see the death and fail creation).
                comm.recv(0, 99);
                comm.recv(2, 99);
                comm.enter_phase("doomed");
                comm.exit_phase("doomed");
                return (Ok(()), Ok(()));
            }
            comm.send_bytes(1, 99, bytes::Bytes::from_static(b"ok"));
            while !comm.any_failed() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let put = win.try_put(1, 0, &[1, 2]);
            let fence = win.try_fence(comm);
            (put, fence)
        });
        assert_eq!(out.crashed_ranks(), vec![1]);
        for rank in [0usize, 2] {
            let (put, fence) = out.outcomes[rank].as_completed().unwrap();
            assert_eq!(*put, Err(CommError::RankFailed { rank: 1 }), "rank {rank}");
            assert_eq!(
                *fence,
                Err(CommError::RankFailed { rank: 1 }),
                "rank {rank}"
            );
        }
    }
}
