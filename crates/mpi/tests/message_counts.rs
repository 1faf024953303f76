//! Exact message counts of every collective: O(N) messages each, pinned
//! per world size. This suite runs in its own process so its 96-rank
//! worlds do not share the global buffer pool with the unit tests.

use replidedup_mpi::{Comm, Rank, WorldConfig};

/// Messages the whole world sends while every rank runs `body` once.
fn world_msgs<T: Send>(n: u32, body: impl Fn(&mut Comm) -> T + Sync) -> u64 {
    WorldConfig::default()
        .with_workers(2)
        .launch(n, body)
        .expect_all()
        .traffic
        .ranks
        .iter()
        .map(|r| r.msgs_sent)
        .sum()
}

#[test]
fn every_collective_sends_a_linear_number_of_messages() {
    for n in [1u32, 2, 3, 5, 8, 13, 96] {
        let tree = 2 * u64::from(n - 1);
        let chain = u64::from(n - 1);
        let evens: Vec<Rank> = (0..n).step_by(2).collect();
        let group_tree = 2 * (evens.len() as u64 - 1);
        let in_group = |comm: &Comm| evens.contains(&comm.rank());
        let last = n - 1;
        let cases: [(&str, u64, u64); 10] = [
            ("barrier", tree, world_msgs(n, |c| c.barrier())),
            ("allgather", tree, world_msgs(n, |c| c.allgather(c.rank()))),
            (
                "allreduce",
                tree,
                world_msgs(n, |c| c.allreduce(1u64, |a, b| a + b)),
            ),
            (
                "bcast",
                chain,
                world_msgs(n, |c| c.bcast(last, (c.rank() == last).then_some(7u8))),
            ),
            (
                "gather",
                chain,
                world_msgs(n, |c| c.gather(n / 2, c.rank())),
            ),
            (
                "reduce to rank 0",
                chain,
                world_msgs(n, |c| c.reduce(0, 1u64, |a, b| a + b)),
            ),
            (
                "reduce to the last rank",
                chain + u64::from(n > 1),
                world_msgs(n, |c| c.reduce(last, 1u64, |a, b| a + b)),
            ),
            ("win_create", tree, world_msgs(n, |c| drop(c.win_create(8)))),
            (
                "barrier_group",
                group_tree,
                world_msgs(n, |c| in_group(c).then(|| c.try_barrier_group(&evens))),
            ),
            (
                "allgather_group",
                group_tree,
                world_msgs(n, |c| {
                    in_group(c).then(|| c.try_allgather_group(&evens, c.rank()))
                }),
            ),
        ];
        for (name, expect, sent) in cases {
            assert_eq!(sent, expect, "{name} at n={n}");
        }
    }
}
