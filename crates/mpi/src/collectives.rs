//! MPI-style collectives built on matched point-to-point messages.
//!
//! The paper relies on three collectives: an `ALLREDUCE` with a user-defined
//! merge operator (the fingerprint reduction, "efficient — logarithmic in
//! the number of processes"), an `ALLGATHER` (load dissemination for the
//! rank shuffle), and an implicit barrier/fence around the RMA exchange.
//!
//! Every collective here sends O(N) messages, with one algorithm each:
//!
//! * barrier — binomial fan-in to position 0, then binomial fan-out:
//!   2(N−1) messages;
//! * broadcast — binomial tree from the root: N−1;
//! * reduce/allreduce — ranks ≥ p2 (the largest power of two ≤ N) fold
//!   into rank − p2, then a binomial fan-in to rank 0 combines aligned
//!   rank blocks lower block first (exactly the bracket recursive doubling
//!   evaluates, so order-sensitive operators give the same result), then
//!   allreduce broadcasts the encoded result down a binomial tree:
//!   N−1 merges and N−1 messages for reduce, 2(N−1) for allreduce;
//! * gather — flat, root-bound by construction: N−1;
//! * allgather — gather at position 0, then a binomial broadcast of one
//!   length-prefixed concatenation that every rank slices without copying:
//!   2(N−1);
//! * alltoallv — direct pairwise exchange.
//!
//! Why message count and not depth: ranks run on a bounded worker pool
//! (`crate::sched`), and a receive that has to wait parks its rank and
//! unparks it again when the message lands. That round trip through the
//! pool, not link latency, is the cost of a message here, so the total
//! count decides a collective's cost. The latency-optimal
//! algorithms an MPI library picks for real links — dissemination barrier,
//! recursive doubling, ring or Bruck allgather — send N·⌈log₂ N⌉ or
//! N(N−1) messages and lose on the pool.
//!
//! All internal messages are tagged under the reserved tag space and
//! namespaced by the per-rank collective sequence number, so a collective
//! can never consume a message belonging to an earlier or later operation.
//!
//! Every collective has a fallible `try_*` twin that surfaces rank deaths
//! as [`CommError`] instead of panicking. Failure semantics: at entry each
//! rank snapshots the death epoch and refuses to start if any relevant
//! rank is already dead; a death *during* the collective fails every
//! blocked receive. Survivors of an interrupted collective may diverge
//! (some completed it, some got an error — exactly like real MPI), but all
//! of them fail deterministically at the *next* collective's entry guard,
//! so divergence never propagates further than one operation.

use bytes::Bytes;

use crate::comm::{Comm, Rank};
use crate::fault::CommError;
use crate::stats::Transport;
use crate::wire::{Chunk, Frame, FrameReader, Wire, WireResult};

/// Tag rounds inside one collective: each phase gets its own, so no two
/// messages of one operation share a `(source, tag)` pair.
const FOLD: u32 = 0;
const FAN_IN: u32 = 1;
const FAN_OUT: u32 = 2;
const TO_ROOT: u32 = 3;

/// The world's ranks in position order from `root`. Every tree below
/// runs over such a member list (or an explicit group) and is rooted at
/// position 0.
fn rotated(n: u32, root: Rank) -> Vec<Rank> {
    (0..n).map(|pos| (pos + root) % n).collect()
}

/// `rank`'s position in `members`.
fn position(members: &[Rank], rank: Rank) -> u32 {
    members
        .iter()
        .position(|&r| r == rank)
        .unwrap_or_else(|| panic!("rank {rank} called a group collective it is not part of"))
        as u32
}

impl Comm {
    /// Block until every rank has entered the barrier.
    pub fn barrier(&mut self) {
        self.try_barrier().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Comm::barrier`]: fails with [`CommError::RankFailed`]
    /// when a rank is dead at entry or dies while the barrier runs.
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        self.enter_phase("coll_barrier");
        let op = self.next_op();
        let world = rotated(self.size(), 0);
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.barrier_impl(&world, op, epoch));
        self.exit_phase("coll_barrier");
        out
    }

    /// Broadcast `value` from `root` to every rank; `value` is only read at
    /// the root (other ranks pass `None`).
    ///
    /// # Panics
    /// If the root passes `None` or `root` is out of range.
    pub fn bcast<T: Wire>(&mut self, root: Rank, value: Option<T>) -> T {
        self.try_bcast(root, value)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::bcast`].
    pub fn try_bcast<T: Wire>(&mut self, root: Rank, value: Option<T>) -> Result<T, CommError> {
        self.enter_phase("coll_bcast");
        let op = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.bcast_impl(root, value, op, epoch));
        self.exit_phase("coll_bcast");
        out
    }

    /// All-reduce with a user operator; see the `allreduce_impl` internals
    /// in this module for algorithm and determinism guarantees.
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.try_allreduce(value, op)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allreduce`].
    pub fn try_allreduce<T, F>(&mut self, value: T, op: F) -> Result<T, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.enter_phase("coll_allreduce");
        let seq = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.allreduce_impl(value, &op, seq, epoch));
        self.exit_phase("coll_allreduce");
        out
    }

    /// Reduce to `root`; non-root ranks get `None`.
    pub fn reduce<T, F>(&mut self, root: Rank, value: T, op: F) -> Option<T>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.try_reduce(root, value, op)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::reduce`]: the reduce half of
    /// [`Comm::try_allreduce`] (same operand order, so the same result),
    /// plus one hand-off from rank 0 when `root` is another rank.
    ///
    /// # Panics
    /// If `root` is out of range.
    pub fn try_reduce<T, F>(&mut self, root: Rank, value: T, op: F) -> Result<Option<T>, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.enter_phase("coll_reduce");
        let seq = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.reduce_impl(root, value, &op, seq, epoch));
        self.exit_phase("coll_reduce");
        out
    }

    /// Gather one value per rank at `root` (rank order). Non-roots get `None`.
    pub fn gather<T: Wire>(&mut self, root: Rank, value: T) -> Option<Vec<T>> {
        self.try_gather(root, value)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::gather`].
    pub fn try_gather<T: Wire>(
        &mut self,
        root: Rank,
        value: T,
    ) -> Result<Option<Vec<T>>, CommError> {
        self.enter_phase("coll_gather");
        let op = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.gather_impl(root, value, op, epoch));
        self.exit_phase("coll_gather");
        out
    }

    /// All-gather: every rank contributes one value and receives the full
    /// rank-ordered vector.
    pub fn allgather<T: Wire>(&mut self, value: T) -> Vec<T> {
        self.try_allgather(value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allgather`].
    pub fn try_allgather<T: Wire>(&mut self, value: T) -> Result<Vec<T>, CommError> {
        self.enter_phase("coll_allgather");
        let op = self.next_op();
        let world = rotated(self.size(), 0);
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.allgather_impl(&world, value, op, epoch));
        self.exit_phase("coll_allgather");
        out
    }

    /// Personalized all-to-all of raw buffers: `sends[d]` goes to rank `d`;
    /// returns the buffer received from each rank.
    pub fn alltoallv(&mut self, sends: Vec<Bytes>) -> Vec<Bytes> {
        self.try_alltoallv(sends).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::alltoallv`].
    pub fn try_alltoallv(&mut self, sends: Vec<Bytes>) -> Result<Vec<Bytes>, CommError> {
        self.enter_phase("coll_alltoallv");
        let op = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.alltoallv_impl(sends, op, epoch));
        self.exit_phase("coll_alltoallv");
        out
    }

    /// Barrier over an explicit rank group (e.g. the survivors of a
    /// faulted dump). Every group member must call this with the same
    /// group, ascending and containing the caller; only deaths of group
    /// members fail it.
    pub fn try_barrier_group(&mut self, group: &[Rank]) -> Result<(), CommError> {
        self.enter_phase("coll_barrier");
        let op = self.next_op();
        let out = self
            .group_entry_guard(group)
            .and_then(|epoch| self.barrier_impl(group, op, epoch));
        self.exit_phase("coll_barrier");
        out
    }

    /// All-gather over an explicit rank group: returns one value per group
    /// member, in group order. Same calling convention as
    /// [`Comm::try_barrier_group`].
    pub fn try_allgather_group<T: Wire>(
        &mut self,
        group: &[Rank],
        value: T,
    ) -> Result<Vec<T>, CommError> {
        self.enter_phase("coll_allgather");
        let op = self.next_op();
        let out = self
            .group_entry_guard(group)
            .and_then(|epoch| self.allgather_impl(group, value, op, epoch));
        self.exit_phase("coll_allgather");
        out
    }
}

impl Comm {
    /// Binomial fan-in then fan-out of empty messages over `members`.
    fn barrier_impl(
        &mut self,
        members: &[Rank],
        op: u64,
        epoch: Option<u64>,
    ) -> Result<(), CommError> {
        let pos = position(members, self.rank());
        let arrived = self.fan_in(members, pos, (), &|(), ()| (), op, epoch)?;
        let release = arrived.map(|()| Bytes::new());
        self.fan_out(members, pos, release, op, epoch)?;
        Ok(())
    }

    /// Binomial tree from `root` (at position 0 of the rotated world).
    fn bcast_impl<T: Wire>(
        &mut self,
        root: Rank,
        value: Option<T>,
        op: u64,
        epoch: Option<u64>,
    ) -> Result<T, CommError> {
        let n = self.size();
        let me = self.rank();
        assert!(root < n, "bcast root {root} out of range for world of {n}");
        let members = rotated(n, root);
        if me == root {
            let value = value.expect("bcast root must supply a value");
            self.fan_out(&members, 0, Some(value.to_bytes()), op, epoch)?;
            return Ok(value);
        }
        let pos = position(&members, me);
        let payload = self.fan_out(&members, pos, None, op, epoch)?;
        Ok(decode(me, "bcast payload", &payload))
    }

    /// All-reduce: [`Comm::reduce_to_zero`], then a binomial broadcast of
    /// the result encoded once at rank 0. Every rank holds the identical
    /// result: rank 0 the value it reduced, the others its decoding.
    fn allreduce_impl<T, F>(
        &mut self,
        value: T,
        op: &F,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<T, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let n = self.size();
        if n == 1 {
            return Ok(value);
        }
        let me = self.rank();
        let world = rotated(n, 0);
        let reduced = self.reduce_to_zero(&world, value, op, seq, epoch)?;
        let encoded = reduced.as_ref().map(Wire::to_bytes);
        let payload = self.fan_out(&world, me, encoded, seq, epoch)?;
        Ok(match reduced {
            Some(result) => result,
            None => decode(me, "allreduce result", &payload),
        })
    }

    /// Reduce to `root`: [`Comm::reduce_to_zero`], then rank 0 hands the
    /// result to `root` if that is another rank.
    fn reduce_impl<T, F>(
        &mut self,
        root: Rank,
        value: T,
        op: &F,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Option<T>, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let n = self.size();
        let me = self.rank();
        assert!(root < n, "reduce root {root} out of range for world of {n}");
        let reduced = self.reduce_to_zero(&rotated(n, 0), value, op, seq, epoch)?;
        if root == 0 {
            return Ok(reduced);
        }
        let tag = Self::coll_tag(seq, TO_ROOT);
        if let Some(result) = reduced {
            self.try_send_raw(root, tag, result.to_bytes(), Transport::Collective)?;
            Ok(None)
        } else if me == root {
            let payload = self.try_recv_raw_guarded(0, tag, Transport::Collective, epoch)?;
            Ok(Some(decode(me, "reduce result", &payload)))
        } else {
            Ok(None)
        }
    }

    /// Reduce every rank's value to rank 0 (which gets `Some`) in the
    /// bracket recursive doubling evaluates: ranks ≥ p2, the largest power
    /// of two ≤ N, fold into rank − p2 (lower rank's operand first), then a
    /// binomial fan-in over ranks `0..p2` combines aligned blocks. N−1
    /// messages, N−1 applications of `op`. `world` lists the ranks in
    /// order.
    fn reduce_to_zero<T, F>(
        &mut self,
        world: &[Rank],
        value: T,
        op: &F,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Option<T>, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let n = self.size();
        let me = self.rank();
        let p2 = 1u32 << (u32::BITS - 1 - n.leading_zeros());
        let fold = Self::coll_tag(seq, FOLD);
        if me >= p2 {
            self.try_send_raw(me - p2, fold, value.to_bytes(), Transport::Collective)?;
            return Ok(None);
        }
        let mut acc = value;
        if me + p2 < n {
            let payload = self.try_recv_raw_guarded(me + p2, fold, Transport::Collective, epoch)?;
            acc = op(acc, decode(me, "fold operand", &payload));
        }
        self.fan_in(&world[..p2 as usize], me, acc, op, seq, epoch)
    }

    /// Binomial fan-in to position 0. For each bit below its lowest set
    /// bit, a position folds in the partial result of the child at
    /// `pos + bit`, then hands its own to the parent `pos − lowest bit`.
    /// Each combination joins two aligned, adjacent blocks of positions,
    /// lower block first. Position 0 gets `Some(result)`, the others
    /// `None`. N−1 messages.
    fn fan_in<T, F>(
        &mut self,
        members: &[Rank],
        pos: u32,
        mut acc: T,
        op: &F,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Option<T>, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let n = members.len() as u32;
        let tag = Self::coll_tag(seq, FAN_IN);
        let me = self.rank();
        let mut bit = 1u32;
        while bit < n {
            if pos & bit != 0 {
                let parent = members[(pos - bit) as usize];
                self.try_send_raw(parent, tag, acc.to_bytes(), Transport::Collective)?;
                return Ok(None);
            }
            if pos + bit < n {
                let child = members[(pos + bit) as usize];
                let payload =
                    self.try_recv_raw_guarded(child, tag, Transport::Collective, epoch)?;
                acc = op(acc, decode(me, "fan-in operand", &payload));
            }
            bit <<= 1;
        }
        Ok(Some(acc))
    }

    /// Binomial broadcast from position 0, which passes `Some(payload)`;
    /// every other position passes `None`, receives from its parent
    /// (`pos` with the lowest set bit cleared) and forwards to its children
    /// (`pos + bit` for each bit below that one, largest subtree first).
    /// Every rank ends up with the root's `Bytes`, shared, not copied.
    /// N−1 messages.
    fn fan_out(
        &mut self,
        members: &[Rank],
        pos: u32,
        payload: Option<Bytes>,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Bytes, CommError> {
        let n = members.len() as u32;
        let tag = Self::coll_tag(seq, FAN_OUT);
        let payload = match payload {
            Some(payload) => payload,
            None => {
                let parent = members[(pos & (pos - 1)) as usize];
                self.try_recv_raw_guarded(parent, tag, Transport::Collective, epoch)?
            }
        };
        let lowest = if pos == 0 {
            n.next_power_of_two()
        } else {
            pos & pos.wrapping_neg()
        };
        let mut bit = lowest >> 1;
        while bit > 0 {
            if pos + bit < n {
                let child = members[(pos + bit) as usize];
                self.try_send_raw(child, tag, payload.clone(), Transport::Collective)?;
            }
            bit >>= 1;
        }
        Ok(payload)
    }

    /// Flat gather of raw blocks at position 0, which gets them in
    /// position order; the others get `None`. N−1 messages.
    fn gather_blocks(
        &mut self,
        members: &[Rank],
        pos: u32,
        mine: Bytes,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Option<Vec<Bytes>>, CommError> {
        let tag = Self::coll_tag(seq, FAN_IN);
        if pos != 0 {
            self.try_send_raw(members[0], tag, mine, Transport::Collective)?;
            return Ok(None);
        }
        let mut blocks = Vec::with_capacity(members.len());
        blocks.push(mine);
        for &src in &members[1..] {
            blocks.push(self.try_recv_raw_guarded(src, tag, Transport::Collective, epoch)?);
        }
        Ok(Some(blocks))
    }

    /// Gather one value per rank at `root` (rank order). Non-roots get `None`.
    fn gather_impl<T: Wire>(
        &mut self,
        root: Rank,
        value: T,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Option<Vec<T>>, CommError> {
        let n = self.size();
        let me = self.rank();
        assert!(root < n, "gather root {root} out of range for world of {n}");
        let members = rotated(n, root);
        let pos = position(&members, me);
        let gathered = self.gather_blocks(&members, pos, value.to_bytes(), seq, epoch)?;
        Ok(gathered.map(|mut blocks| {
            // Position p holds rank (p + root) mod n: rotate to rank order.
            blocks.rotate_right(root as usize);
            decode_blocks(me, &blocks)
        }))
    }

    /// All-gather over `members`: gather at position 0, which broadcasts
    /// one length-prefixed concatenation of the blocks; every other
    /// position slices its copy of that buffer. Result in position order.
    fn allgather_impl<T: Wire>(
        &mut self,
        members: &[Rank],
        value: T,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Vec<T>, CommError> {
        let me = self.rank();
        let pos = position(members, me);
        let gathered = self.gather_blocks(members, pos, value.to_bytes(), seq, epoch)?;
        let all = gathered.as_deref().map(concat_blocks);
        let all = self.fan_out(members, pos, all, seq, epoch)?;
        let blocks = match gathered {
            Some(blocks) => blocks,
            None => split_blocks(all, members.len()).unwrap_or_else(|e| {
                panic!("rank {me} received a malformed allgather concatenation: {e}")
            }),
        };
        Ok(decode_blocks(me, &blocks))
    }

    /// Personalized all-to-all of raw buffers: `sends[d]` goes to rank `d`;
    /// returns the buffer received from each rank. `sends.len()` must equal
    /// the world size; `sends[me]` is returned as-is (self copy, no traffic).
    fn alltoallv_impl(
        &mut self,
        mut sends: Vec<Bytes>,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Vec<Bytes>, CommError> {
        let n = self.size();
        let me = self.rank();
        assert_eq!(
            sends.len(),
            n as usize,
            "alltoallv needs one buffer per rank"
        );
        let mut recvs: Vec<Bytes> = (0..n).map(|_| Bytes::new()).collect();
        recvs[me as usize] = std::mem::take(&mut sends[me as usize]);
        // Rotation schedule: at step s every rank sends to (r + s) mod N and
        // receives from (r - s) mod N, so no destination is hit by two
        // senders in the same step (no head-of-line blocking).
        for step in 1..n {
            let dst = (me + step) % n;
            let src = (me + n - step) % n;
            let tag = Self::coll_tag(seq, step);
            self.try_send_raw(
                dst,
                tag,
                std::mem::take(&mut sends[dst as usize]),
                Transport::Collective,
            )?;
            recvs[src as usize] =
                self.try_recv_raw_guarded(src, tag, Transport::Collective, epoch)?;
        }
        Ok(recvs)
    }
}

/// Decode a collective payload; a mismatch is a programming error in an
/// SPMD program, not a recoverable condition.
fn decode<T: Wire>(me: Rank, what: &str, bytes: &[u8]) -> T {
    T::from_bytes(bytes).unwrap_or_else(|e| panic!("rank {me} failed to decode {what}: {e}"))
}

fn decode_blocks<T: Wire>(me: Rank, blocks: &[Bytes]) -> Vec<T> {
    blocks
        .iter()
        .map(|bytes| decode(me, "gathered block", bytes))
        .collect()
}

/// One buffer holding every block behind its `u64` length: the
/// contiguous form of a [`FrameWriter`](crate::wire::FrameWriter) frame
/// with one attachment per block.
fn concat_blocks(blocks: &[Bytes]) -> Bytes {
    let mut out = Vec::with_capacity(blocks.iter().map(|b| 8 + b.len()).sum());
    for block in blocks {
        (block.len() as u64).encode(&mut out);
        out.extend_from_slice(block);
    }
    Bytes::from(out)
}

/// Take a [`concat_blocks`] buffer apart into its `n` blocks, as slices
/// of `all` (no copy).
fn split_blocks(all: Bytes, n: usize) -> WireResult<Vec<Bytes>> {
    let mut reader = FrameReader::new(Frame::single(all));
    let blocks = (0..n)
        .map(|_| reader.take_payload().map(Chunk::into_bytes))
        .collect::<WireResult<_>>()?;
    reader.finish()?;
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use crate::comm::{Comm, Rank, WorldConfig};
    use crate::fault::{CommError, FaultPlan, FaultTrigger};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn barrier_all_sizes() {
        for n in [1u32, 2, 3, 4, 7, 8, 13] {
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    for _ in 0..3 {
                        comm.barrier();
                    }
                    comm.rank()
                })
                .expect_all();
            assert_eq!(out.results.len(), n as usize);
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [1u32, 2, 3, 5, 8] {
            for root in 0..n {
                let out = WorldConfig::default()
                    .launch(n, move |comm| {
                        let v = (comm.rank() == root).then(|| vec![root, 42u32]);
                        comm.bcast(root, v)
                    })
                    .expect_all();
                for r in out.results {
                    assert_eq!(r, vec![root, 42]);
                }
            }
        }
    }

    #[test]
    fn allreduce_sum_matches_closed_form() {
        for n in [1u32, 2, 3, 4, 5, 6, 7, 8, 12, 17] {
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    comm.allreduce(u64::from(comm.rank()) + 1, |a, b| a + b)
                })
                .expect_all();
            let expect = u64::from(n) * (u64::from(n) + 1) / 2;
            for r in out.results {
                assert_eq!(r, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_noncommutative_is_deterministic_and_complete() {
        // Concatenation: every rank must see the identical merge order and
        // the result must contain each contribution exactly once. In
        // power-of-two worlds the order is additionally rank order.
        for n in [2u32, 3, 5, 8, 11, 16] {
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    comm.allreduce(vec![comm.rank()], |mut a, b| {
                        a.extend(b);
                        a
                    })
                })
                .expect_all();
            let first = out.results[0].clone();
            for r in &out.results {
                assert_eq!(*r, first, "n={n}: ranks disagree on merge order");
            }
            let mut sorted = first.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..n).collect::<Vec<_>>(),
                "n={n}: missing contributions"
            );
            if n.is_power_of_two() {
                assert_eq!(first, (0..n).collect::<Vec<_>>(), "n={n}: not rank ordered");
            }
        }
    }

    /// The operand bracket recursive doubling evaluates over `leaves`:
    /// ranks ≥ p2 fold into rank − p2, then each round of doubling
    /// distance combines every rank with its partner, lower rank first.
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
    fn allreduce_and_reduce_apply_the_recursive_doubling_bracket() {
        // A non-associative operator records the bracket itself.
        let op = |a: String, b: String| format!("({a} {b})");
        let leaves = |n: u32| (0..n).map(|r| r.to_string()).collect::<Vec<_>>();
        assert_eq!(doubling_bracket(&leaves(5), op), "(((0 4) 1) (2 3))");
        for n in [3u32, 5, 6, 11, 96] {
            let expect = doubling_bracket(&leaves(n), op);
            let out = WorldConfig::default()
                .with_workers(2)
                .launch(n, |comm| {
                    let all = comm.allreduce(comm.rank().to_string(), op);
                    let at_last = comm.reduce(n - 1, comm.rank().to_string(), op);
                    (all, at_last)
                })
                .expect_all();
            for (rank, (all, at_last)) in out.results.iter().enumerate() {
                assert_eq!(*all, expect, "n={n} rank {rank}");
                let root = rank as u32 == n - 1;
                assert_eq!(
                    at_last.as_ref(),
                    root.then_some(&expect),
                    "n={n} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = WorldConfig::default()
            .launch(6, |comm| comm.allreduce(comm.rank(), |a, b| a.max(b)))
            .expect_all();
        assert!(out.results.iter().all(|&r| r == 5));
    }

    #[test]
    fn reduce_only_root_gets_result() {
        let out = WorldConfig::default()
            .launch(5, |comm| comm.reduce(2, 1u64, |a, b| a + b))
            .expect_all();
        for (rank, r) in out.results.iter().enumerate() {
            if rank == 2 {
                assert_eq!(*r, Some(5));
            } else {
                assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn gather_is_rank_ordered() {
        let out = WorldConfig::default()
            .launch(6, |comm| comm.gather(0, comm.rank() * comm.rank()))
            .expect_all();
        assert_eq!(out.results[0], Some(vec![0, 1, 4, 9, 16, 25]));
        assert!(out.results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn allgather_all_sizes() {
        for n in [1u32, 2, 3, 4, 7, 9, 16] {
            let out = WorldConfig::default()
                .launch(n, |comm| comm.allgather(u64::from(comm.rank()) * 3))
                .expect_all();
            let expect: Vec<u64> = (0..u64::from(n)).map(|r| r * 3).collect();
            for r in out.results {
                assert_eq!(r, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allgather_heterogeneous_payload_sizes() {
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let v: Vec<u8> = vec![comm.rank() as u8; comm.rank() as usize * 3];
                comm.allgather(v)
            })
            .expect_all();
        for r in out.results {
            assert_eq!(r.len(), 4);
            for (i, v) in r.iter().enumerate() {
                assert_eq!(v.len(), i * 3);
                assert!(v.iter().all(|&b| b == i as u8));
            }
        }
    }

    #[test]
    fn alltoallv_exchanges_personalized_buffers() {
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let me = comm.rank() as u8;
                let sends: Vec<bytes::Bytes> = (0..4u8)
                    .map(|d| bytes::Bytes::from(vec![me * 16 + d; usize::from(d) + 1]))
                    .collect();
                comm.alltoallv(sends)
                    .iter()
                    .map(|b| b.to_vec())
                    .collect::<Vec<_>>()
            })
            .expect_all();
        for (me, recvs) in out.results.iter().enumerate() {
            for (src, buf) in recvs.iter().enumerate() {
                assert_eq!(buf.len(), me + 1, "rank {me} from {src}");
                assert!(buf.iter().all(|&b| b == (src * 16 + me) as u8));
            }
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // Back-to-back collectives must not steal each other's messages.
        let out = WorldConfig::default()
            .launch(5, |comm| {
                let sum = comm.allreduce(1u64, |a, b| a + b);
                comm.barrier();
                let all = comm.allgather(comm.rank());
                let b = comm.bcast(3, (comm.rank() == 3).then_some(sum));
                (sum, all.len() as u64, b)
            })
            .expect_all();
        for r in out.results {
            assert_eq!(r, (5, 5, 5));
        }
    }

    #[test]
    fn traffic_conservation_across_collectives() {
        let out = WorldConfig::default()
            .launch(7, |comm| {
                comm.allreduce(vec![comm.rank(); 10], |a, _| a);
                comm.allgather(comm.rank());
                comm.barrier();
            })
            .expect_all();
        assert_eq!(out.traffic.total_sent(), out.traffic.total_recv());
    }

    #[test]
    fn allreduce_large_world() {
        let out = WorldConfig::default()
            .launch(64, |comm| comm.allreduce(1u64, |a, b| a + b))
            .expect_all();
        assert!(out.results.iter().all(|&r| r == 64));
    }

    fn fault_config(plan: FaultPlan) -> WorldConfig {
        WorldConfig::default()
            .with_recv_timeout(Duration::from_secs(2))
            .with_faults(plan)
    }

    #[test]
    fn collectives_fail_typed_when_a_rank_dies_mid_operation() {
        // Rank 2 dies at the start of the collective; every survivor gets
        // a RankFailed error instead of hanging or panicking.
        let plan = FaultPlan::new(11).crash(2, FaultTrigger::PhaseStart("coll_allreduce".into()));
        let out = fault_config(plan).launch(5, |comm| comm.try_allreduce(1u64, |a, b| a + b));
        assert_eq!(out.crashed_ranks(), vec![2]);
        for (rank, o) in out.outcomes.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            assert_eq!(
                o.as_completed(),
                Some(&Err(CommError::RankFailed { rank: 2 })),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn next_collective_entry_fails_after_divergence() {
        // Rank 1 dies between two barriers: whatever each survivor saw of
        // the first barrier, all of them must fail the second at entry.
        let plan = FaultPlan::new(12).crash(1, FaultTrigger::PhaseEnd("coll_barrier".into()));
        let out = fault_config(plan).launch(4, |comm| {
            let first = comm.try_barrier();
            let second = comm.try_barrier();
            (first, second)
        });
        assert_eq!(out.crashed_ranks(), vec![1]);
        for (rank, o) in out.outcomes.iter().enumerate() {
            if rank == 1 {
                continue;
            }
            let (_, second) = o.as_completed().unwrap();
            assert_eq!(
                *second,
                Err(CommError::RankFailed { rank: 1 }),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn group_collectives_run_among_survivors() {
        let plan = FaultPlan::new(13).crash(2, FaultTrigger::PhaseStart("coll_barrier".into()));
        let out = fault_config(plan).launch(5, |comm| {
            let _ = comm.try_barrier();
            let group = comm.live_ranks();
            comm.try_barrier_group(&group)?;
            comm.try_allgather_group(&group, comm.rank() * 10)
        });
        assert_eq!(out.crashed_ranks(), vec![2]);
        for (rank, o) in out.outcomes.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            assert_eq!(
                o.as_completed().unwrap(),
                &Ok(vec![0, 10, 30, 40]),
                "rank {rank}"
            );
        }
    }

    /// One fallible collective, in world or group form.
    #[derive(Clone, Copy, Debug)]
    enum Coll {
        Barrier,
        Allgather,
        Allreduce,
        WinCreate,
        BarrierGroup,
        AllgatherGroup,
    }

    impl Coll {
        fn is_group(self) -> bool {
            matches!(self, Coll::BarrierGroup | Coll::AllgatherGroup)
        }

        fn run(self, comm: &mut Comm, group: &[Rank]) -> Result<(), CommError> {
            match self {
                Coll::Barrier => comm.try_barrier(),
                Coll::Allgather => comm.try_allgather(comm.rank()).map(drop),
                Coll::Allreduce => comm.try_allreduce(1u64, |a, b| a + b).map(drop),
                Coll::WinCreate => comm.try_win_create(64).map(drop),
                Coll::BarrierGroup => comm.try_barrier_group(group),
                Coll::AllgatherGroup => comm.try_allgather_group(group, comm.rank()).map(drop),
            }
        }
    }

    #[test]
    fn a_crash_at_any_tree_position_fails_survivors_typed_and_fast() {
        let timeout = Duration::from_secs(2);
        for n in [7u32, 12] {
            let world: Vec<Rank> = (0..n).collect();
            // Rank 3 sits the group form out, so group positions differ
            // from ranks.
            let group: Vec<Rank> = (0..n).filter(|&r| r != 3).collect();
            for coll in [
                Coll::Barrier,
                Coll::Allgather,
                Coll::Allreduce,
                Coll::WinCreate,
                Coll::BarrierGroup,
                Coll::AllgatherGroup,
            ] {
                let members = if coll.is_group() { &group } else { &world };
                // Positions 0, 4 and 1: the root of every tree here, an
                // interior node of the fan-out (and of the barrier's
                // fan-in), and a leaf.
                for victim in [members[0], members[4], members[1]] {
                    // Dying at its first message op, the victim has sent
                    // nothing, so no survivor can complete; dying at its
                    // second, some may.
                    for op in [1u64, 2] {
                        for workers in [1, 2, 4] {
                            let case = format!(
                                "{coll:?} n={n} victim {victim} at op {op}, {workers} workers"
                            );
                            let plan = FaultPlan::new(u64::from(n))
                                .crash(victim, FaultTrigger::MessageCount(op));
                            let out = WorldConfig::default()
                                .with_recv_timeout(timeout)
                                .with_workers(workers)
                                .with_faults(plan)
                                .launch(n, |comm| {
                                    if !members.contains(&comm.rank()) {
                                        return None;
                                    }
                                    let started = Instant::now();
                                    let first = coll.run(comm, &group);
                                    let waited = started.elapsed();
                                    let next = if coll.is_group() {
                                        comm.try_barrier_group(&group)
                                    } else {
                                        comm.try_barrier()
                                    };
                                    Some((first, waited, next, Arc::clone(comm.win_registry())))
                                });
                            assert_eq!(out.crashed_ranks(), vec![victim], "{case}");
                            let failed = Err(CommError::RankFailed { rank: victim });
                            for (rank, outcome) in out.outcomes.iter().enumerate() {
                                let Some(Some((first, waited, next, registry))) =
                                    outcome.as_completed()
                                else {
                                    continue;
                                };
                                if op == 1 || first.is_err() {
                                    assert_eq!(*first, failed, "{case}: rank {rank}");
                                }
                                assert!(*waited < timeout, "{case}: rank {rank} waited {waited:?}");
                                assert_eq!(*next, failed, "{case}: rank {rank}, next collective");
                                assert_eq!(registry.pinned_exposures(), 0, "{case}: rank {rank}");
                            }
                        }
                    }
                }
            }
        }
    }
}
