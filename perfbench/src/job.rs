//! One job of a workload on the task engine, with its phase stamps,
//! output checks and layer counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bytes::Bytes;
use cmpi_cluster::Channel;
use cmpi_core::{CollAlgo, CollKind, Completion, ExecMode, JobSpec, Mpi, ReduceOp};
use cmpi_telemetry::MetricId;

use crate::inputs::{
    Inputs, Workload, ALLGATHER_WORDS, ALLTOALL_WORDS, BCAST_BYTES, GATHER_WORDS, HALO_OFFSETS,
    HALO_REDUCE_WORDS, HALO_WINDOW, REDUCE_WORDS,
};
use crate::json::Obj;
use crate::probe::{peak_rss_mib, Call, Counters, Spans};

/// Task-engine workers: the host has two cores.
const WORKERS: usize = 2;

/// Body-entry and body-exit stamps, in ns since the `run` call. The rank
/// that completes a phase edge (the last to enter, the last to leave)
/// samples the process counters there.
struct Stamps {
    t0: Instant,
    n: usize,
    entered: AtomicUsize,
    exited: AtomicUsize,
    first_entry_ns: AtomicU64,
    last_entry_ns: AtomicU64,
    last_exit_ns: AtomicU64,
    at_last_entry: OnceLock<Counters>,
    at_last_exit: OnceLock<Counters>,
}

impl Stamps {
    fn new(n: usize) -> Stamps {
        Stamps {
            t0: Instant::now(),
            n,
            entered: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            first_entry_ns: AtomicU64::new(u64::MAX),
            last_entry_ns: AtomicU64::new(0),
            last_exit_ns: AtomicU64::new(0),
            at_last_entry: OnceLock::new(),
            at_last_exit: OnceLock::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    // Relaxed throughout: plain statistics, read only after `run` has
    // joined every worker.
    fn enter(&self) {
        let t = self.now_ns();
        self.first_entry_ns.fetch_min(t, Ordering::Relaxed);
        self.last_entry_ns.fetch_max(t, Ordering::Relaxed);
        if self.entered.fetch_add(1, Ordering::Relaxed) + 1 == self.n {
            let _ = self.at_last_entry.set(Counters::sample());
        }
    }

    fn exit(&self) {
        let t = self.now_ns();
        self.last_exit_ns.fetch_max(t, Ordering::Relaxed);
        if self.exited.fetch_add(1, Ordering::Relaxed) + 1 == self.n {
            let _ = self.at_last_exit.set(Counters::sample());
        }
    }
}

/// What one rank hands back.
struct RankOut {
    /// Operations completed: messages received plus collective calls.
    ops: u64,
    /// Operations whose output did not match the expected values.
    failed: u64,
    /// Wall ns of each sampled step.
    steps_ns: Vec<u64>,
    spans: Spans,
}

impl RankOut {
    fn check(&mut self, ok: bool) {
        self.ops += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The job32 body: windowed 4-neighbour 1 KiB exchange, receives posted
/// in reverse, then a 2 KiB allreduce and a barrier per step.
fn halo_body(mpi: &mut Mpi, inp: &Inputs, out: &mut RankOut, sample: bool) {
    let n = inp.n;
    let role = inp.role_of_rank[mpi.rank()];
    let payloads: Vec<Bytes> = (0..HALO_WINDOW)
        .map(|w| inp.halo_payload(role, w).clone())
        .collect();
    // Expected payloads in receive-post order.
    let mut expected = Vec::with_capacity(HALO_OFFSETS.len() * HALO_WINDOW as usize);
    for &d in HALO_OFFSETS.iter().rev() {
        let src_role = (role + n - d) % n;
        for w in (0..HALO_WINDOW).rev() {
            expected.push((inp.rank_of_role[src_role], w, inp.halo_payload(src_role, w)));
        }
    }
    let row = inp.row(role);
    let mut recvs = Vec::with_capacity(expected.len());
    let mut sends = Vec::with_capacity(expected.len());
    for step in 0..inp.workload.steps() {
        let t = Instant::now();
        for (src, w, _) in &expected {
            recvs.push(out.spans.span(Call::Irecv, || mpi.irecv_bytes(*src, *w)));
        }
        for &d in &HALO_OFFSETS {
            let dst = inp.rank_of_role[(role + d) % n];
            for (w, p) in payloads.iter().enumerate() {
                let req = out
                    .spans
                    .span(Call::Isend, || mpi.isend_bytes(p.clone(), dst, w as u32));
                sends.push(req);
            }
        }
        for (req, (src, w, want)) in recvs.drain(..).zip(&expected) {
            let ok = match out.spans.span(Call::Wait, || mpi.wait(req)) {
                Completion::Recv(data, st) => st.src == *src && st.tag == *w && data == **want,
                Completion::Send => false,
            };
            out.check(ok);
        }
        for req in sends.drain(..) {
            out.spans.span(Call::Wait, || mpi.wait(req));
        }
        let k = step as u64;
        let local: Vec<u64> = row.iter().map(|v| v + k).collect();
        let sum = out
            .spans
            .span(Call::Allreduce, || mpi.allreduce(&local, ReduceOp::Sum));
        out.check(sums_match(&sum, inp, HALO_REDUCE_WORDS, k));
        out.spans.span(Call::Barrier, || mpi.barrier());
        out.ops += 1;
        if sample && step > 0 {
            out.steps_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
}

/// Every collective once per step, sizes on both sides of the eager and
/// rendezvous thresholds; roots change per step.
fn coll_body(mpi: &mut Mpi, inp: &Inputs, out: &mut RankOut, sample: bool) {
    let n = inp.n;
    let rank = mpi.rank();
    let role = inp.role_of_rank[rank];
    let row = inp.row(role);
    let mut buf = vec![0u8; BCAST_BYTES];
    for (step, &[rb, rr, rg]) in inp.roots.iter().enumerate() {
        let t = Instant::now();
        let k = step as u64;
        let want = inp.bcast_payload(inp.role_of_rank[rb]);
        if rank == rb {
            buf.copy_from_slice(want);
        } else {
            buf.fill(0);
        }
        out.spans.span(Call::Bcast, || mpi.bcast(&mut buf, rb));
        let ok = buf[..] == want[..];
        out.check(ok);

        let local: Vec<u64> = row.iter().map(|v| v + k).collect();
        let red = out
            .spans
            .span(Call::Reduce, || mpi.reduce(&local, ReduceOp::Sum, rr));
        let ok = match red {
            Some(v) => rank == rr && sums_match(&v, inp, REDUCE_WORDS, k),
            None => rank != rr,
        };
        out.check(ok);

        let all = out
            .spans
            .span(Call::Allreduce, || mpi.allreduce(&local, ReduceOp::Sum));
        out.check(sums_match(&all, inp, REDUCE_WORDS, k));

        let g = out
            .spans
            .span(Call::Gather, || mpi.gather(&local[..GATHER_WORDS], rg));
        let ok = match g {
            Some(v) => rank == rg && blocks_match(&v, inp, GATHER_WORDS, 0, k),
            None => rank != rg,
        };
        out.check(ok);

        let ag = out
            .spans
            .span(Call::Allgather, || mpi.allgather(&local[..ALLGATHER_WORDS]));
        out.check(blocks_match(&ag, inp, ALLGATHER_WORDS, 0, k));

        // Block for physical rank p carries this role's values at
        // `role(p) * ALLTOALL_WORDS..`.
        let mut send = Vec::with_capacity(n * ALLTOALL_WORDS);
        for p in 0..n {
            let off = inp.role_of_rank[p] * ALLTOALL_WORDS;
            send.extend_from_slice(&local[off..off + ALLTOALL_WORDS]);
        }
        let a2a = out
            .spans
            .span(Call::Alltoall, || mpi.alltoall(&send, ALLTOALL_WORDS));
        out.check(blocks_match(
            &a2a,
            inp,
            ALLTOALL_WORDS,
            role * ALLTOALL_WORDS,
            k,
        ));

        out.spans.span(Call::Barrier, || mpi.barrier());
        out.ops += 1;
        if sample && step > 0 {
            out.steps_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
}

fn sums_match(v: &[u64], inp: &Inputs, words: usize, k: u64) -> bool {
    v.len() == words
        && v.iter()
            .zip(&inp.sums)
            .all(|(s, e)| *s == e + inp.n as u64 * k)
}

/// `v` is rank-ordered blocks of `words`; block `p` must equal the row of
/// `role(p)` from column `col`, plus the step.
fn blocks_match(v: &[u64], inp: &Inputs, words: usize, col: usize, k: u64) -> bool {
    v.len() == inp.n * words
        && v.chunks_exact(words).enumerate().all(|(p, blk)| {
            let want = &inp.row(inp.role_of_rank[p])[col..col + words];
            blk.iter().zip(want).all(|(a, b)| *a == b + k)
        })
}

/// Run one job and describe it as a JSON object.
pub fn run_job(workload: Workload, seed: u64, traced: bool) -> String {
    let inp = Inputs::generate(workload, seed);
    let n = inp.n;
    let mut spec = JobSpec::new(workload.scenario())
        .with_exec(ExecMode::Tasks)
        .with_workers(WORKERS);
    if let Some(kib) = workload.stack_kib() {
        spec = spec.with_stack_kib(kib);
    }
    let all_ranks_sampled = workload == Workload::Scale4096;

    let before = Counters::sample();
    let stamps = Stamps::new(n);
    let result = spec.run(|mpi| {
        stamps.enter();
        let mut out = RankOut {
            ops: 0,
            failed: 0,
            steps_ns: Vec::new(),
            spans: Spans::new(traced),
        };
        let sample = all_ranks_sampled || mpi.rank() == 0;
        match workload {
            Workload::Coll64 => coll_body(mpi, &inp, &mut out, sample),
            Workload::Halo32 | Workload::Scale4096 => halo_body(mpi, &inp, &mut out, sample),
        }
        stamps.exit();
        out
    });
    let end_ns = stamps.now_ns();
    let after = Counters::sample();
    let rss = peak_rss_mib();

    let at_entry = *stamps.at_last_entry.get().expect("every rank entered");
    let at_exit = *stamps.at_last_exit.get().expect("every rank exited");
    let first_entry = stamps.first_entry_ns.load(Ordering::Relaxed);
    let last_entry = stamps.last_entry_ns.load(Ordering::Relaxed);
    let last_exit = stamps.last_exit_ns.load(Ordering::Relaxed);
    let s = |ns: u64| ns as f64 * 1e-9;
    let whole = after.since(&before);

    let mut ops = 0;
    let mut failed = 0;
    let mut steps = Vec::new();
    let mut spans = Spans::new(traced);
    for r in result.results {
        ops += r.ops;
        failed += r.failed;
        steps.extend(r.steps_ns);
        spans.merge(r.spans);
    }
    let stats = &result.stats;
    let tel = result
        .telemetry
        .as_ref()
        .expect("telemetry is on by default");

    let mut o = Obj::new();
    o.str("workload", workload.name())
        .int("seed", seed)
        .int("inputs_digest", inp.digest())
        .int("ranks", n as u64)
        .int("steps", workload.steps() as u64)
        .num("setup_s", s(last_entry))
        .num("body_s", s(last_exit - last_entry))
        .num("teardown_s", s(end_ns - last_exit))
        .num("job_s", s(end_ns))
        .num("entry_spread_s", s(last_entry - first_entry))
        .int("setup_minor_faults", at_entry.since(&before).minflt)
        .int("body_minor_faults", at_exit.since(&at_entry).minflt)
        .int("teardown_minor_faults", after.since(&at_exit).minflt)
        .int("vol_ctx_switches", whole.nvcsw)
        .int("invol_ctx_switches", whole.nivcsw)
        .num("cpu_user_s", whole.user_s)
        .num("cpu_sys_s", whole.sys_s)
        .num("peak_rss_mib", rss)
        .int("sim_makespan_ns", result.elapsed.as_ns())
        .int("ops", ops)
        .int("failed", failed)
        .ints("steps_ns", &steps);

    let mut counts = Obj::new();
    for (name, ch) in [
        ("shm", Channel::Shm),
        ("cma", Channel::Cma),
        ("hca", Channel::Hca),
    ] {
        counts
            .int(&format!("channel.{name}_ops"), stats.channel_ops(ch))
            .int(&format!("channel.{name}_bytes"), stats.channel_bytes(ch));
    }
    for (name, algo) in [
        ("flat", CollAlgo::Flat),
        ("two_level", CollAlgo::TwoLevel),
        ("large", CollAlgo::Large),
    ] {
        let calls = CollKind::ALL
            .iter()
            .map(|&kind| stats.coll_selections(kind, algo))
            .sum();
        counts.int(&format!("coll.{name}_calls"), calls);
    }
    for (name, id) in [
        ("channel.eager_msgs", MetricId::EagerMsgs),
        ("channel.rndv_msgs", MetricId::RndvMsgs),
        ("mailbox.pushes", MetricId::MailboxPushes),
        ("mailbox.parks", MetricId::MailboxParks),
        ("mailbox.wakes", MetricId::MailboxWakes),
        ("matching.posted_peak", MetricId::MatchPostedPeak),
        ("matching.unexpected_peak", MetricId::MatchUnexpectedPeak),
        ("shmem.queue_acquires", MetricId::ShmQueueAcquires),
        ("shmem.queue_stalls", MetricId::ShmQueueStalls),
        ("fabric.sends", MetricId::FabricSends),
        ("fabric.recvs", MetricId::FabricRecvs),
        ("fabric.rdma", MetricId::FabricRdma),
    ] {
        counts.int(name, tel.job_total(id));
    }
    o.obj("counts", counts);

    if traced {
        let mut sp = Obj::new();
        for call in Call::ALL {
            let (calls, p50, total) = spans.summary(call);
            let mut c = Obj::new();
            c.int("calls", calls as u64)
                .num("p50_ns", p50)
                .num("total_ns", total);
            sp.obj(call.name(), c);
        }
        o.obj("spans", sp);
    }
    o.finish()
}
