//! Large-message collective algorithms: correctness vs the default
//! algorithms, and the bandwidth advantage that justifies the switch.
//! The selector is the only way in: `MV2_COLL_LARGE_MSG` decides when
//! `bcast`/`allreduce` switch to scatter–allgather and Rabenseifner.

use cmpi_cluster::{DeploymentScenario, NamespaceSharing, SimTime, Tunables};
use cmpi_core::{CollAlgo, CollKind, JobSpec, JobStats, Mpi, ReduceOp};

fn spec(n: u32) -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        1,
        2,
        n / 2,
        NamespaceSharing::default(),
    ))
}

/// Route every non-empty `bcast`/`allreduce` to the large algorithms.
fn large(n: u32) -> JobSpec {
    spec(n).with_tunables(Tunables::default().with_coll_large_msg(1))
}

/// Keep every `bcast`/`allreduce` on the flat algorithms.
fn flat(n: u32) -> JobSpec {
    spec(n).with_tunables(Tunables::default().with_coll_large_msg(usize::MAX))
}

#[test]
fn rabenseifner_matches_recursive_doubling() {
    for n in [2u32, 4, 8] {
        for len in [1usize, 7, 64, 1000, 4096] {
            let job = move |mpi: &mut Mpi| {
                let mine: Vec<u64> = (0..len)
                    .map(|i| (mpi.rank() as u64 + 1) * (i as u64 + 1))
                    .collect();
                mpi.allreduce(&mine, ReduceOp::Sum)
            };
            let a = flat(n).run(job);
            let b = large(n).run(job);
            let k = CollKind::Allreduce;
            assert_eq!(a.stats.coll_selections(k, CollAlgo::Flat), n as u64);
            assert_eq!(b.stats.coll_selections(k, CollAlgo::Large), n as u64);
            assert_eq!(a.results, b.results, "n {n} len {len}");
        }
    }
}

#[test]
fn rabenseifner_with_min_and_floats() {
    let job = |mpi: &mut Mpi| {
        let mine: Vec<f64> = (0..500)
            .map(|i| (mpi.rank() * 7 + i) as f64 * 0.25)
            .collect();
        mpi.allreduce(&mine, ReduceOp::Min)
    };
    let a = flat(8).run(job);
    let b = large(8).run(job);
    let k = CollKind::Allreduce;
    assert_eq!(b.stats.coll_selections(k, CollAlgo::Large), 8);
    assert_eq!(a.results, b.results);
}

#[test]
fn scatter_allgather_bcast_matches_binomial() {
    for n in [2u32, 4, 6, 8] {
        for len in [1usize, 10, 257, 5000] {
            let r = large(n).run(move |mpi| {
                let root = (mpi.size() - 1).min(2);
                let reference: Vec<u32> = (0..len).map(|i| i as u32 * 3 + 1).collect();
                let mut a = if mpi.rank() == root {
                    reference.clone()
                } else {
                    vec![0; len]
                };
                mpi.bcast(&mut a, root);
                a == reference
            });
            let k = CollKind::Bcast;
            assert_eq!(r.stats.coll_selections(k, CollAlgo::Large), n as u64);
            assert!(r.results.iter().all(|&ok| ok), "n {n} len {len}");
        }
    }
}

/// Makespan and stats of `job` on 8 ranks under tunables `t`.
fn time_with(t: Tunables, job: fn(&mut Mpi)) -> (SimTime, JobStats) {
    let r = spec(8).with_tunables(t).run(job);
    (r.elapsed, r.stats)
}

#[test]
fn tuned_variants_dispatch_by_size() {
    // The large algorithm wins virtual time for big vectors on
    // containers.
    let job: fn(&mut Mpi) = |mpi| {
        let mine = vec![mpi.rank() as u64; 64 * 1024 / 8]; // 64 KiB
        for _ in 0..3 {
            mpi.allreduce(&mine, ReduceOp::Sum);
        }
    };
    let (tuned, stats) = time_with(Tunables::default().with_coll_large_msg(32 * 1024), job);
    let (flat, _) = time_with(Tunables::default().with_coll_large_msg(usize::MAX), job);
    assert_eq!(
        stats.coll_selections(CollKind::Allreduce, CollAlgo::Large),
        24
    );
    assert!(
        tuned < flat,
        "Rabenseifner ({tuned}) must beat recursive doubling ({flat}) at 64 KiB"
    );
}

#[test]
fn tuned_bcast_faster_for_large_messages() {
    let job: fn(&mut Mpi) = |mpi| {
        let mut buf = vec![7u8; 256 * 1024];
        mpi.bcast(&mut buf, 0);
    };
    let (tuned, stats) = time_with(Tunables::default().with_coll_large_msg(32 * 1024), job);
    let (flat, _) = time_with(Tunables::default().with_coll_large_msg(usize::MAX), job);
    assert_eq!(stats.coll_selections(CollKind::Bcast, CollAlgo::Large), 8);
    assert!(
        tuned < flat,
        "scatter-allgather ({tuned}) must beat binomial ({flat}) at 256 KiB"
    );
}
