//! Pins the message schedule of the two-level collectives.
//!
//! Each collective runs once on a hierarchical deployment where the
//! selector picks the leader-staged algorithm. Every rank records its
//! virtual clock after each call and its per-channel `(ops, bytes)`
//! counters at the end. Those numbers are a fingerprint of the schedule:
//! a changed peer, phase order or message size moves a clock or a
//! counter. The fingerprint must hold on both execution engines; a
//! deliberate schedule change updates the tables below.
//!
//! Payload sizes are chosen so no two messages contend for one wire at
//! the same virtual time (DESIGN.md §9): with 512 B per rank, the
//! three-host allgather already let the leaders' fabric ingress order,
//! and so the clocks, vary between runs.

use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing};
use cmpi_core::{CollAlgo, CollKind, ExecMode, JobSpec, ReduceOp};

/// Per rank: clock (ns) after barrier, bcast, reduce, allreduce, gather,
/// allgather, alltoall; then SHM, CMA, HCA `(ops, bytes)`.
type Fingerprint = [u64; 13];

const BCAST_ROOT: usize = 3;
const REDUCE_ROOT: usize = 5;
const GATHER_ROOT: usize = 3;

#[rustfmt::skip]
const TWO_HOSTS: [Fingerprint; 8] = [
    [1976, 10927, 11344, 18073, 19052, 20211, 24733, 14, 2256, 2, 24576, 6, 13568],
    [1896, 10827, 10943, 18187, 18293, 20373, 24641, 9, 584, 0, 0, 0, 0],
    [1981, 10827, 11050, 18187, 18600, 20373, 24738, 11, 1472, 1, 12288, 0, 0],
    [2066, 10727, 10843, 18301, 19190, 20535, 24835, 9, 584, 1, 12288, 0, 0],
    [1976, 15545, 15913, 16735, 17559, 21673, 23362, 14, 2000, 2, 24576, 5, 1072],
    [1896, 15445, 16019, 16849, 16955, 21835, 23270, 9, 584, 0, 0, 0, 0],
    [1981, 15445, 15668, 16849, 17262, 21835, 23367, 11, 1472, 1, 12288, 0, 0],
    [2066, 15345, 15461, 16963, 17069, 21997, 23464, 9, 584, 0, 0, 0, 0],
];

#[rustfmt::skip]
const THREE_HOSTS: [Fingerprint; 12] = [
    [3457, 13812, 14229, 22116, 25860, 27461, 32465, 14, 3312, 2, 24576, 11, 27584],
    [3377, 13712, 13828, 22230, 22336, 27659, 32361, 9, 680, 0, 0, 0, 0],
    [3462, 13712, 13935, 22230, 22643, 27659, 32470, 11, 1856, 1, 12288, 0, 0],
    [3547, 13612, 13728, 22344, 26022, 27857, 32579, 9, 680, 1, 12288, 0, 0],
    [3457, 19115, 19521, 23474, 24298, 29000, 33836, 14, 2864, 2, 24576, 7, 1456],
    [3377, 19015, 19627, 23588, 23694, 29198, 33732, 9, 680, 0, 0, 0, 0],
    [3462, 19015, 19238, 23588, 24001, 29198, 33841, 11, 1856, 1, 12288, 0, 0],
    [3547, 18915, 19031, 23702, 23808, 29396, 33950, 9, 680, 0, 0, 0, 0],
    [3457, 17026, 17443, 23279, 24103, 28738, 33574, 13, 2736, 2, 24576, 8, 1584],
    [3377, 16926, 17042, 23393, 23499, 28936, 33470, 9, 680, 0, 0, 0, 0],
    [3462, 16926, 17149, 23393, 23806, 28936, 33579, 11, 1856, 1, 12288, 0, 0],
    [3547, 16826, 16942, 23507, 23613, 29134, 33688, 9, 680, 0, 0, 0, 0],
];

fn fingerprint(hosts: u32, exec: ExecMode) -> Vec<Fingerprint> {
    let spec = JobSpec::new(DeploymentScenario::containers(
        hosts,
        2,
        2,
        NamespaceSharing::default(),
    ))
    .with_exec(exec);
    let r = spec.run(|mpi| {
        let rank = mpi.rank();
        let n = mpi.size();
        let mut fp = [0u64; 13];
        mpi.barrier();
        fp[0] = mpi.now().as_ns();
        // 12 KiB: above the SHM eager size, so co-resident hops use CMA.
        let mut buf: Vec<u64> = if rank == BCAST_ROOT {
            (0..1536).collect()
        } else {
            vec![0; 1536]
        };
        mpi.bcast(&mut buf, BCAST_ROOT);
        fp[1] = mpi.now().as_ns();
        let mine: Vec<u64> = (0..24).map(|i| (rank * 31 + i) as u64).collect();
        mpi.reduce(&mine[..16], ReduceOp::Sum, REDUCE_ROOT);
        fp[2] = mpi.now().as_ns();
        mpi.allreduce(&mine, ReduceOp::Sum);
        fp[3] = mpi.now().as_ns();
        mpi.gather(&mine[..5], GATHER_ROOT);
        fp[4] = mpi.now().as_ns();
        let contrib: Vec<u64> = (0..8).map(|i| (rank * 1000 + i) as u64).collect();
        mpi.allgather(&contrib);
        fp[5] = mpi.now().as_ns();
        let slabs: Vec<u64> = (0..2 * n).map(|j| (rank * 100 + j) as u64).collect();
        mpi.alltoall(&slabs, 2);
        fp[6] = mpi.now().as_ns();
        for (i, c) in [Channel::Shm, Channel::Cma, Channel::Hca]
            .into_iter()
            .enumerate()
        {
            let counter = mpi.stats().channel(c);
            fp[7 + 2 * i] = counter.ops;
            fp[8 + 2 * i] = counter.bytes;
        }
        fp
    });
    let n = r.results.len() as u64;
    for kind in CollKind::ALL {
        assert_eq!(
            r.stats.coll_selections(kind, CollAlgo::TwoLevel),
            n,
            "{} must run two-level on {hosts} hosts",
            kind.name()
        );
    }
    r.results
}

fn check(hosts: u32, expected: &[Fingerprint]) {
    for exec in [ExecMode::Threads, ExecMode::Tasks] {
        let got = fingerprint(hosts, exec);
        assert_eq!(
            got, expected,
            "{hosts}-host schedule fingerprint changed under {exec:?}"
        );
    }
}

#[test]
fn two_hosts_schedule_is_pinned() {
    check(2, &TWO_HOSTS);
}

#[test]
fn three_hosts_schedule_is_pinned() {
    // Three leaders: allreduce's across phase takes the
    // non-power-of-two reduce + bcast fallback.
    check(3, &THREE_HOSTS);
}
