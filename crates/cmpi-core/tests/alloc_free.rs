//! Allocation-count assertion harness: proves the steady-state eager
//! send/recv loop performs no heap allocation per operation.
//!
//! The whole test binary runs under a counting global allocator. A
//! two-rank intra-host job warms the path up (growing every pool, map
//! and slab to its steady-state footprint), barriers, then runs a
//! measured ping-pong phase. Any allocation in that phase — on either
//! rank thread — lands in the global counter, so the assertion covers
//! the full send/progress/match/recv pipeline: mailbox nodes (pantry),
//! eager staging (slab recycle), matching buckets (inline/pooled), and
//! completion bookkeeping.
//!
//! The counter is process-wide, so the tests hold one lock for their
//! whole run: a measured phase must never count the other test's job.
//!
//! The measured budget is asserted to be ZERO allocations for the whole
//! phase. If this test starts failing after a change, set
//! `CMPI_ALLOC_TRACE=1` to print a backtrace for each offending
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
use cmpi_core::JobSpec;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if TRACING.load(Ordering::Relaxed) {
                // Suppress recursive counting while the backtrace itself
                // allocates.
                COUNTING.store(false, Ordering::Relaxed);
                eprintln!(
                    "alloc of {} bytes in measured phase:\n{}",
                    layout.size(),
                    std::backtrace::Backtrace::force_capture()
                );
                COUNTING.store(true, Ordering::Relaxed);
            }
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if TRACING.load(Ordering::Relaxed) {
                COUNTING.store(false, Ordering::Relaxed);
                eprintln!(
                    "realloc {} -> {} bytes in measured phase:\n{}",
                    layout.size(),
                    new_size,
                    std::backtrace::Backtrace::force_capture()
                );
                COUNTING.store(true, Ordering::Relaxed);
            }
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state SHM eager ping-pong allocates nothing per op.
#[test]
fn steady_state_eager_loop_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("CMPI_ALLOC_TRACE").is_some() {
        TRACING.store(true, Ordering::Relaxed);
    }
    const WARMUP: u32 = 64;
    const MEASURED: u32 = 256;
    let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(
        true,
        true,
        NamespaceSharing::default(),
    ));
    let counted = spec.run(|mpi| {
        let payload = Bytes::from(vec![7u8; 1024]);
        let me = mpi.rank();
        let peer = 1 - me;
        let pingpong = |mpi: &mut cmpi_core::Mpi, iters: u32| {
            for _ in 0..iters {
                if me == 0 {
                    mpi.send_bytes(payload.clone(), peer, 0);
                    mpi.recv_bytes(peer, 0);
                } else {
                    let (m, _) = mpi.recv_bytes(peer, 0);
                    mpi.send_bytes(m, peer, 0);
                }
            }
        };
        // Warm every pool/map/slab up to its steady-state footprint.
        pingpong(mpi, WARMUP);
        mpi.barrier();
        if me == 0 {
            ALLOCS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
        }
        mpi.barrier();
        pingpong(mpi, MEASURED);
        mpi.barrier();
        if me == 0 {
            COUNTING.store(false, Ordering::Relaxed);
            ALLOCS.load(Ordering::Relaxed)
        } else {
            0
        }
    });
    let allocs = counted.results[0];
    assert_eq!(
        allocs, 0,
        "steady-state eager loop allocated {allocs} times over {MEASURED} round trips \
         (rerun with CMPI_ALLOC_TRACE=1 for backtraces)"
    );
}

/// Steady-state rendezvous ping-pong — with telemetry on (the default),
/// so every round trip records counters, histogram samples, and the
/// sampled rendezvous flight events (RndvStart / RndvCts / RndvData,
/// 1-in-8) — allocates nothing per op. The measured phase runs long
/// enough to wrap the 256-slot flight ring even at the sampling rate,
/// covering the drop-oldest path too.
#[test]
fn steady_state_rndv_recording_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("CMPI_ALLOC_TRACE").is_some() {
        TRACING.store(true, Ordering::Relaxed);
    }
    const WARMUP: u32 = 16;
    // 3 sampled-event candidates per rank per round trip at 1-in-8 →
    // ~0.375 ring records each; 800 trips ≈ 306 events > 256 slots.
    const MEASURED: u32 = 800;
    const SIZE: usize = 64 * 1024; // CMA rendezvous on the intra-host pair
    let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(
        true,
        true,
        NamespaceSharing::default(),
    ));
    let counted = spec.run(|mpi| {
        let payload = Bytes::from(vec![7u8; SIZE]);
        let me = mpi.rank();
        let peer = 1 - me;
        let pingpong = |mpi: &mut cmpi_core::Mpi, iters: u32| {
            for _ in 0..iters {
                if me == 0 {
                    mpi.send_bytes(payload.clone(), peer, 0);
                    mpi.recv_bytes(peer, 0);
                } else {
                    let (m, _) = mpi.recv_bytes(peer, 0);
                    mpi.send_bytes(m, peer, 0);
                }
            }
        };
        pingpong(mpi, WARMUP);
        mpi.barrier();
        if me == 0 {
            ALLOCS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
        }
        mpi.barrier();
        pingpong(mpi, MEASURED);
        mpi.barrier();
        if me == 0 {
            COUNTING.store(false, Ordering::Relaxed);
            ALLOCS.load(Ordering::Relaxed)
        } else {
            0
        }
    });
    let allocs = counted.results[0];
    assert_eq!(
        allocs, 0,
        "steady-state rendezvous loop (telemetry on) allocated {allocs} times over \
         {MEASURED} round trips (rerun with CMPI_ALLOC_TRACE=1 for backtraces)"
    );
    // The zero-alloc claim must include the drop-oldest path: the run
    // has to have actually wrapped the flight ring.
    let snap = counted.telemetry.expect("telemetry on by default");
    assert!(
        snap.ranks.iter().any(|r| r.flight.dropped > 0),
        "measured phase never wrapped the flight ring; lengthen MEASURED"
    );
}
