#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload halo32 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
workload as a sequence of jobs, each in a fresh process, until
`--seconds` have passed and enough samples exist. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
`--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
metrics of the traced run. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("halo32", "coll64", "scale4096")

# Fewest jobs a run medians over. An untraced run also needs as many
# step groups: consecutive jobs' step samples, 1000 or more each (fifty
# beyond the p95).
MIN_JOBS = 3
MIN_STEP_SAMPLES = 1000
# Stop starting jobs after this long, whatever --seconds says, so a run
# ends well inside its 180-second budget.
HARD_STOP_S = 100.0
CHILD_TIMEOUT_S = 40.0

# Counts that must repeat exactly across the jobs of one seed.
EXACT_COUNTS = (
    "channel.shm_ops", "channel.shm_bytes", "channel.cma_ops",
    "channel.cma_bytes", "channel.hca_ops", "channel.hca_bytes",
    "channel.eager_msgs", "channel.rndv_msgs", "coll.flat_calls",
    "coll.two_level_calls", "coll.large_calls",
)
# Counts reported from the traced run (medians over its traced jobs).
LAYER_COUNTS = EXACT_COUNTS + (
    "mailbox.pushes", "mailbox.parks", "mailbox.wakes",
    "matching.posted_peak", "matching.unexpected_peak",
    "shmem.queue_acquires", "shmem.queue_stalls",
    "fabric.sends", "fabric.recvs", "fabric.rdma",
)
COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather",
               "allgather", "alltoall")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def child_env():
    # The engine reads CMPI_EXEC/CMPI_WORKERS/CMPI_STACK_KIB; the jobs pin
    # what they need, and nothing from the caller's shell may leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("CMPI_")}


def call(binary, *args):
    """Run the measuring binary; its stdout is one JSON object."""
    try:
        p = subprocess.run([binary, *args], env=child_env(), cwd=ROOT,
                           capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{' '.join(args)}: timed out after {CHILD_TIMEOUT_S} s")
        return None
    if p.returncode != 0:
        log(f"{' '.join(args)}: exit {p.returncode}: {p.stderr.strip()[-2000:]}")
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def host_ref(binary):
    out = call(binary, "hostref")
    return None if out is None else out["host.ref_ns"]


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def med(jobs, key):
    return statistics.median(j[key] for j in jobs)


def expected_ops(job):
    n, steps = job["ranks"], job["steps"]
    per_step = 7 if job["workload"] == "coll64" else 16 + 2
    return n * per_step * steps


def step_groups(jobs):
    """The jobs' step samples cut into consecutive groups of at least
    MIN_STEP_SAMPLES: one job each on halo32 and scale4096, several on
    coll64. A trailing partial group is left out. Percentiles are taken
    per group and then medianed, so a host stall during one group moves
    one value of several instead of the run's only percentile."""
    groups, cur = [], []
    for j in jobs:
        cur.extend(j["steps_ns"])
        if len(cur) >= MIN_STEP_SAMPLES:
            groups.append(sorted(cur))
            cur = []
    return groups


def run_jobs(binary, workload, seed, seconds, traced):
    """Jobs until `seconds` pass with enough samples. In a traced run,
    untraced and traced jobs alternate. Returns (plain, traced, lost),
    `lost` counting the jobs that crashed or hung."""
    start = time.monotonic()
    plain, spanned, lost = [], [], 0
    while True:
        use_trace = traced and len(spanned) < len(plain)
        job = call(binary, "job", workload, str(seed), "1" if use_trace else "0")
        if job is None:
            lost += 1
            break
        (spanned if use_trace else plain).append(job)
        elapsed = time.monotonic() - start
        # A traced run reports no step percentiles.
        enough = elapsed >= seconds and len(plain) >= MIN_JOBS and (
            len(spanned) >= MIN_JOBS if traced
            else len(step_groups(plain)) >= MIN_JOBS)
        if enough or elapsed >= HARD_STOP_S:
            break
    return plain, spanned, lost


def check(jobs):
    """(attempted, failed): in-job output checks, operation totals and
    exact repeat of the channel and selector counts across jobs."""
    attempted = failed = 0
    ref = jobs[0]["counts"]
    for j in jobs:
        want = expected_ops(j)
        attempted += want
        failed += j["failed"] + abs(want - j["ops"])
        diff = [k for k in EXACT_COUNTS if j["counts"][k] != ref[k]]
        if diff:
            log(f"counts differ between jobs of one seed: {diff}")
            failed += len(diff)
    return attempted, failed


def makespan_finding(workload, seed, jobs):
    """Virtual makespan must not depend on real scheduling; flag it when
    it does. Reported, not counted as failed: it is a simulator defect."""
    spans = sorted({j["sim_makespan_ns"] for j in jobs})
    if len(spans) > 1:
        log(f"FINDING: {workload} seed {seed}: sim_makespan_us differs across "
            f"{len(jobs)} jobs of one seed: {len(spans)} values, "
            f"{spans[0] / 1e3:.3f}..{spans[-1] / 1e3:.3f} us")
    return len(spans)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(jobs):
    groups = step_groups(jobs)

    def step_us(q):
        return statistics.median(percentile(g, q) for g in groups) / 1e3

    return {
        "setup_s": metric(med(jobs, "setup_s"), "s"),
        "teardown_s": metric(med(jobs, "teardown_s"), "s"),
        "job_s": metric(med(jobs, "job_s"), "s"),
        "ops_per_s": metric(statistics.median(
            j["ops"] / j["body_s"] for j in jobs), "1/s"),
        "step_p50_us": metric(step_us(0.50), "us"),
        "step_p95_us": metric(step_us(0.95), "us"),
        "cpu_s": metric(statistics.median(
            j["cpu_user_s"] + j["cpu_sys_s"] for j in jobs), "s"),
        "peak_rss_mib": metric(med(jobs, "peak_rss_mib"), "MiB"),
        "sim_makespan_us": metric(med(jobs, "sim_makespan_ns") / 1e3, "virtual_us"),
    }


def per_layer(plain, spanned, layers, refs, variants):
    m = {
        "exec.body_entry_spread_s": metric(med(spanned, "entry_spread_s"), "s"),
        "exec.setup_minor_faults": metric(med(spanned, "setup_minor_faults"), "count"),
        "exec.body_minor_faults": metric(med(spanned, "body_minor_faults"), "count"),
        "exec.teardown_minor_faults": metric(med(spanned, "teardown_minor_faults"), "count"),
        "exec.vol_ctx_switches": metric(med(spanned, "vol_ctx_switches"), "count"),
        "exec.invol_ctx_switches": metric(med(spanned, "invol_ctx_switches"), "count"),
        "exec.cpu_user_s": metric(med(spanned, "cpu_user_s"), "s"),
        "exec.cpu_sys_s": metric(med(spanned, "cpu_sys_s"), "s"),
    }
    for name, value in layers.items():
        unit = "ms" if name.endswith("_ms") else "ns"
        m[name] = metric(value, unit)

    def span_med(call, key):
        return statistics.median(j["spans"][call][key] for j in spanned)

    for call in ("isend", "irecv", "wait"):
        m[f"pt2pt.{call}_calls"] = metric(span_med(call, "calls"), "count")
        m[f"pt2pt.{call}_p50_ns"] = metric(span_med(call, "p50_ns"), "ns")
    m["pt2pt.wait_total_s"] = metric(span_med("wait", "total_ns") / 1e9, "s")
    for call in COLLECTIVES:
        m[f"coll.{call}_p50_us"] = metric(span_med(call, "p50_ns") / 1e3, "us")
    for name in LAYER_COUNTS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        m[name] = metric(statistics.median(j["counts"][name] for j in spanned), unit)
    pushes = m["mailbox.pushes"]["value"]
    acquires = m["shmem.queue_acquires"]["value"]
    m["mailbox.parks_per_msg"] = metric(
        m["mailbox.parks"]["value"] / pushes if pushes else 0.0, "ratio")
    m["shmem.stall_ratio"] = metric(
        m["shmem.queue_stalls"]["value"] / acquires if acquires else 0.0, "ratio")
    m["trace.overhead_ratio"] = metric(
        med(spanned, "job_s") / med(plain, "job_s"), "ratio")
    m["host.ref_ns"] = metric(statistics.median(refs), "ns")
    m["sim.makespan_variants"] = metric(variants, "count")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    refs = [host_ref(binary)]
    layers = None
    if args.trace:
        layers = call(binary, "layers", args.workload)
    plain, spanned, lost = run_jobs(binary, args.workload, args.seed,
                                    args.seconds, bool(args.trace))
    refs.append(host_ref(binary))
    if not plain or (args.trace and (not spanned or layers is None)) or None in refs:
        log("no complete measurement")
        return 1

    jobs = plain + spanned
    attempted, failed = check(jobs)
    # A crashed or hung job attempted one job's operations and completed
    # none of them.
    attempted += lost * expected_ops(jobs[0])
    failed += lost * expected_ops(jobs[0])
    variants = makespan_finding(args.workload, args.seed, jobs)
    log(f"{args.workload} seed {args.seed}: {len(plain)} jobs"
        f"{f' + {len(spanned)} traced' if args.trace else ''}, "
        f"host.ref_ns {refs[0]:.0f} before, {refs[1]:.0f} after, "
        f"{os.cpu_count()} cores")
    if args.trace:
        metrics = per_layer(plain, spanned, layers, refs, variants)
    else:
        metrics = end_to_end(plain)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
