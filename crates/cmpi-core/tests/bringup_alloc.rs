//! Bring-up must cost the same per rank at any job size.
//!
//! The whole test binary runs under a counting global allocator, so it
//! holds a single test. A zero-step task-engine job (bring-up and
//! teardown only) runs at 256 and at 1024 ranks; the bytes it
//! allocates per rank at 1024 ranks may exceed those at 256 ranks by at
//! most 1 %. Any per-rank table sized by the job (an n-long array per
//! rank) adds bytes per rank in proportion to n and fails the bound.
//!
//! Each rank's fiber stack is left out of the count. It is linear in
//! ranks by construction and, at 128 KiB, would be most of the bytes,
//! so 1 % of the total would let a table of a few bytes per peer pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
use cmpi_core::{ExecMode, JobSpec};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fiber stack size of the measured jobs.
const STACK_KIB: usize = 128;

/// Bytes allocated by one zero-step job on `hosts` hosts of two
/// containers with eight ranks each, less its fiber stacks, divided by
/// its rank count.
fn bytes_per_rank(hosts: u32) -> f64 {
    let spec = JobSpec::new(DeploymentScenario::containers(
        hosts,
        2,
        8,
        NamespaceSharing::default(),
    ))
    .with_exec(ExecMode::Tasks)
    .with_workers(2)
    .with_stack_kib(STACK_KIB);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let ranks = spec.run(|_| ()).results.len();
    COUNTING.store(false, Ordering::Relaxed);
    let stacks = (ranks * STACK_KIB * 1024) as u64;
    BYTES.load(Ordering::Relaxed).saturating_sub(stacks) as f64 / ranks as f64
}

#[test]
fn zero_step_bring_up_allocates_the_same_bytes_per_rank_at_any_size() {
    // One small job first, so one-time process state (lazy statics,
    // thread-locals) is not billed to the measured jobs.
    bytes_per_rank(1);
    let small = bytes_per_rank(16);
    let large = bytes_per_rank(64);
    eprintln!(
        "bring-up bytes per rank besides its stack: {small:.0} at 256 ranks, {large:.0} at 1024 ranks"
    );
    assert!(
        large <= small * 1.01,
        "bring-up allocates {large:.0} B/rank at 1024 ranks against {small:.0} B/rank \
         at 256 ranks (+{:.2} %, bound 1 %)",
        (large / small - 1.0) * 100.0
    );
}
