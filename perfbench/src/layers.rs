//! Layer replay kernels for the traced run, and the host-speed
//! reference. Each kernel drives one layer through its public API in the
//! shape the workloads give it and reports ns per operation, the median
//! over repetitions after one warm-up.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use cmpi_cluster::{Channel, CostModel, HostId, SimTime};
use cmpi_core::locality::LocalityMap;
use cmpi_core::matching::{ArrivedBody, ArrivedMsg, MatchingEngine, PostedRecv};
use cmpi_core::packet::{Packet, PacketKind};
use cmpi_fabric::Fabric;
use cmpi_shmem::PairQueue;
use cmpi_telemetry::{
    EventKind, FlightEvent, FlightRecorder, JobTelemetry, DEFAULT_FLIGHT_CAPACITY,
};

use crate::inputs::{Workload, HALO_BYTES, HALO_OFFSETS, HALO_WINDOW};
use crate::json::Obj;

const REPS: usize = 9;

/// Median over `REPS` runs of `f` (after one warm-up) of ns per op;
/// `f` returns how many operations it performed.
fn median_ns_per_op(mut f: impl FnMut() -> u64) -> f64 {
    f();
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let ops = f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

/// The fixed single-thread host-speed reference: a dependent
/// multiply-add chain of 2^22 steps, no memory traffic. Returns ns per
/// pass, the median of `REPS`.
pub fn host_ref_ns() -> f64 {
    median_ns_per_op(|| {
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..1u32 << 22 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        black_box(x);
        1
    })
}

fn eager_msg(src: usize, tag: u32, seq: u64, data: &Bytes) -> ArrivedMsg {
    ArrivedMsg {
        src,
        ctx: 0,
        tag,
        seq,
        body: ArrivedBody::Eager {
            data: data.clone(),
            ready_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        },
        channel: Channel::Shm,
    }
}

/// The halo step's matching pattern on a long-lived engine: 16 receives
/// (4 sources × 4 tags) posted highest first, then arrivals per sender in
/// ascending tag order. ns per post+match pair.
fn matching_post_match_ns() -> f64 {
    let data = Bytes::from(vec![0u8; HALO_BYTES]);
    let mut e = MatchingEngine::new();
    let mut rreq = 0u64;
    let mut seq = 0u64;
    median_ns_per_op(|| {
        let rounds = 2000;
        for _ in 0..rounds {
            for src in (0..HALO_OFFSETS.len()).rev() {
                for tag in (0..HALO_WINDOW).rev() {
                    rreq += 1;
                    let hit = e.post_recv(PostedRecv {
                        rreq,
                        src: Some(src),
                        ctx: 0,
                        tag: Some(tag),
                        posted_at: SimTime::ZERO,
                    });
                    assert!(hit.is_none(), "nothing is unexpected");
                }
            }
            for src in 0..HALO_OFFSETS.len() {
                for tag in 0..HALO_WINDOW {
                    seq += 1;
                    let m = eager_msg(src, tag, seq, &data);
                    black_box(e.take_matching_posted(&m).expect("posted match"));
                }
            }
        }
        rounds * HALO_OFFSETS.len() as u64 * u64::from(HALO_WINDOW)
    })
}

/// A probe that misses on an engine holding one step's 16 unexpected
/// messages. ns per probe.
fn matching_probe_miss_ns() -> f64 {
    let data = Bytes::from(vec![0u8; HALO_BYTES]);
    let mut e = MatchingEngine::new();
    for src in 0..HALO_OFFSETS.len() {
        for tag in 0..HALO_WINDOW {
            e.push_unexpected(eager_msg(src, tag, u64::from(tag), &data));
        }
    }
    median_ns_per_op(|| {
        let probes = 50_000u32;
        for i in 0..probes {
            let src = (i as usize) % HALO_OFFSETS.len();
            assert!(e
                .peek_unexpected(Some(src), 0, Some(HALO_WINDOW + i % 7))
                .is_none());
        }
        u64::from(probes)
    })
}

fn eager_packet(len: usize) -> Packet {
    Packet {
        src: 1,
        channel: Channel::Hca,
        available_at: SimTime::ZERO,
        kind: PacketKind::Eager {
            ctx: 0,
            tag: 3,
            seq: 7,
            total: len as u64,
            offset: 0,
        },
        data: Bytes::from(vec![0x5Au8; len]),
    }
}

/// `(encode ns, decode ns)` of one `len`-byte eager frame.
fn packet_ns(len: usize) -> (f64, f64) {
    let p = eager_packet(len);
    let ops = if len > HALO_BYTES { 2_000 } else { 20_000 };
    let enc = median_ns_per_op(|| {
        for _ in 0..ops {
            black_box(black_box(&p).encode());
        }
        ops
    });
    let (imm, wire) = p.encode();
    let dec = median_ns_per_op(|| {
        for _ in 0..ops {
            let q = Packet::decode(1, imm, black_box(wire.clone()), SimTime::ZERO);
            assert_eq!(q.data.len(), len);
        }
        ops
    });
    (enc, dec)
}

/// One step's worth of 1 KiB eager credits on an SHM pair queue: 16
/// acquires, then 16 releases. ns per acquire+release pair.
fn pair_queue_ns() -> f64 {
    let q = PairQueue::new(128 * 1024);
    let mut now = 0u64;
    median_ns_per_op(|| {
        let rounds = 5_000u64;
        for _ in 0..rounds {
            for _ in 0..16 {
                black_box(q.acquire(HALO_BYTES).expect("queue open"));
            }
            for _ in 0..16 {
                now += 100;
                q.release(HALO_BYTES, SimTime::from_ns(now));
            }
        }
        rounds * 16
    })
}

/// One step's 16 inter-host 1 KiB sends posted on a fresh fabric, then
/// drained by one poll. ns per message.
fn fabric_ns() -> f64 {
    let data = Bytes::from(vec![0u8; HALO_BYTES]);
    median_ns_per_op(|| {
        let fabric = Fabric::new(CostModel::default());
        fabric.attach(0, HostId(0), true).expect("attach");
        fabric.attach(1, HostId(1), true).expect("attach");
        let rounds = 500u64;
        for r in 0..rounds {
            let now = SimTime::from_ns(r * 10_000);
            for _ in 0..16 {
                fabric
                    .post_send(0, 1, 1, data.clone(), now)
                    .expect("post_send");
            }
            assert_eq!(fabric.poll_recv(1).expect("poll_recv").len(), 16);
        }
        rounds * 16
    })
}

/// `FlightRecorder::record` of a channel-choice event.
fn record_ns() -> f64 {
    let ring = FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY);
    let mut t = 0u64;
    median_ns_per_op(|| {
        let ops = 100_000u64;
        for i in 0..ops {
            t += 1;
            ring.record(
                FlightEvent::new(EventKind::ChannelChoice, t)
                    .peer((i % 32) as usize)
                    .detail(1)
                    .a(HALO_BYTES as u64),
            );
        }
        ops
    })
}

/// Every replay kernel, plus the workload-sized bring-up structures.
pub fn run_layers(workload: Workload) -> String {
    let sc = workload.scenario();
    let n = workload.ranks();
    let ms = |ns: f64| ns * 1e-6;
    let map_ns = median_ns_per_op(|| {
        black_box(LocalityMap::build(&sc.cluster, &sc.placement));
        1
    });
    let slabs_ns = median_ns_per_op(|| {
        black_box(JobTelemetry::new(n, DEFAULT_FLIGHT_CAPACITY));
        1
    });
    let tel = JobTelemetry::new(n, DEFAULT_FLIGHT_CAPACITY);
    let snap_ns = median_ns_per_op(|| {
        black_box(tel.snapshot());
        1
    });
    let (enc1, dec1) = packet_ns(HALO_BYTES);
    let (enc64, dec64) = packet_ns(64 * 1024);
    let mut o = Obj::new();
    o.num("locality.map_build_ms", ms(map_ns))
        .num("telemetry.slabs_ms", ms(slabs_ns))
        .num("telemetry.snapshot_ms", ms(snap_ns))
        .num("telemetry.record_ns", record_ns())
        .num("matching.post_match_ns", matching_post_match_ns())
        .num("matching.probe_miss_ns", matching_probe_miss_ns())
        .num("packet.encode_1k_ns", enc1)
        .num("packet.decode_1k_ns", dec1)
        .num("packet.encode_64k_ns", enc64)
        .num("packet.decode_64k_ns", dec64)
        .num("shmem.acquire_release_ns", pair_queue_ns())
        .num("fabric.post_poll_ns", fabric_ns());
    o.finish()
}
