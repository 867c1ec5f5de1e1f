#!/usr/bin/env python3
"""The repository benchmark: one workload, its checks and its metrics.

    python3 perfbench/run.py --workload sort_shuffle --seed 1 --seconds 30 --trace 0

Builds perfbench/ against src/ (into .bench_build/), runs the workload in a
process of its own, checks its outputs and prints the metrics. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics,
adding an audited simulator pass and a gprof-instrumented run whose flat
profile is folded into host-time shares per src/ module. See README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # Keep the checkout free of __pycache__.

import fold  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sort_shuffle", "read_compute_waves", "engine_repartition")
SIMULATOR = ("sort_shuffle", "read_compute_waves")
DEADLINE_S = 165  # Measuring ends within 180 s of the start, builds aside.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(kind, gprof):
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = os.path.join(BUILD, kind)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(os.path.join(out, "build.log"), "w") as build_log:
            steps = []
            ninja = shutil.which("ninja")
            if not os.path.exists(os.path.join(out, "build.ninja" if ninja else "Makefile")):
                generator = ["-G", "Ninja" if ninja else "Unix Makefiles"]
                steps.append(["cmake", "-S", HERE, "-B", out, *generator,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                              "-DPERFBENCH_GPROF=" + ("ON" if gprof else "OFF")])
            steps.append(["cmake", "--build", out, "--target", "perfbench",
                          "-j", str(min(4, os.cpu_count() or 1))])
            for step in steps:
                if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT).returncode:
                    build_log.flush()
                    with open(build_log.name) as text:
                        log(text.read()[-4000:])
                    raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def measure(binary, args, seconds, deadline, cwd, audit=False):
    """Runs one workload process and returns its JSON sample object."""
    command = [binary, args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    if audit:
        command.append("--audit")
    result = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                            timeout=max(1.0, deadline - time.monotonic()))
    if result.returncode != 0:
        log(result.stderr[-4000:])
        raise SystemExit("perfbench: %s exited with %d" % (args.workload, result.returncode))
    if result.stderr:
        log(result.stderr.strip())
    return json.loads(result.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it (p50 when
    there are fewer than 20 samples). Returns (percentile, value)."""
    n = len(values)
    chosen = max([p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10], default=50)
    if n < 2:
        return chosen, values[0]
    return chosen, statistics.quantiles(values, n=1000)[round(chosen * 10) - 1]


class Checks:
    """Counts attempted and failed jobs, and run-level failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def job(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.problems.extend(failures)

    def run(self, ok, problem):
        if not ok:
            self.problems.append(problem)


def check_sim_jobs(workload, seed, passes, checks, note):
    """Each pass holds two jobs (Spark, MonoSpark), checked against the
    recorded references; a pass-level failure fails both jobs."""
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)[workload]
    first = passes[0]
    for index, jobs in enumerate(passes):
        ratio = jobs["spark_sim_s"] / jobs["mono_sim_s"]
        shared = []
        ref = reference["speedup"]
        if abs(ratio / ref["value"] - 1) > ref["tolerance"]:
            shared.append("pass %d: Spark/MonoSpark %.4f, reference %.4f +- %.0f%%" % (
                index, ratio, ref["value"], 100 * ref["tolerance"]))
        if (jobs["spark_digest"], jobs["mono_digest"]) != (first["spark_digest"],
                                                           first["mono_digest"]):
            shared.append("pass %d: digests differ from pass 0 with the same seed" % index)
        for side in ("spark", "mono"):
            failures = list(shared)
            value, ref = jobs[side + "_sim_s"], reference[side + "_sim_s"]
            if abs(value / ref["value"] - 1) > ref["tolerance"]:
                failures.append("pass %d: %s job %.2f s simulated, reference %.2f +- %.0f%%" % (
                    index, side, value, ref["value"], 100 * ref["tolerance"]))
            if side == "mono" and not jobs["blame_ok"]:
                failures.append("pass %d: blame report does not cover its stages" % index)
            checks.job(failures)
    recorded = reference["digests"].get(str(seed))
    digests = [first["spark_digest"], first["mono_digest"]]
    if recorded is None:
        note("sim_digest spark %s mono %s (no reference for seed %d)" % (*digests, seed))
    elif recorded != digests:
        note("sim_digest spark %s mono %s CHANGED from recorded %s %s" % (*digests, *recorded))
    else:
        note("sim_digest spark %s mono %s (as recorded)" % tuple(digests))


def end_to_end(workload, sample):
    """Metrics a user sees. A job is one engine PartitionBy + Count, or on the
    simulator one pass (Spark job, MonoSpark job, blame report)."""
    if workload in SIMULATOR:
        jobs, work = sample["pass_s"], sample["counters"]["framework.tasks"]
    else:
        jobs, work = sample["job_s"], sample["records"]
    percentile, tail_value = tail(jobs)
    metrics = {
        "setup_s": (median(sample["setup_s"]), "s"),
        "wall_s": (median(sample["pass_s"]), "s"),
        "peak_rss_mb": (sample["peak_rss_mb"], "MiB"),
        "job_p50_s": (median(jobs), "s"),
        "job_tail_s": (tail_value, "s"),
        "records_per_s": (work / median(jobs), "1/s"),
    }
    return metrics, "job_tail_s is p%g of %d jobs" % (percentile, len(jobs))


SIM_COUNTERS = ("simcore.events", "cluster.fabric.solves", "cluster.fabric.flows_touched",
                "cluster.fabric.rate_changes", "cluster.fabric.epochs_flushed",
                "cluster.fabric.batched_changes", "cluster.fabric.patched",
                "framework.monotasks")
SIM_STATS = ("cluster.cpu.busy_s", "cluster.disk.busy_s", "cluster.disk.saturated_s",
             "cluster.fabric.busy_side_s", "cluster.fabric.saturated_side_s")
ENGINE_PER_JOB = ("engine.compute_s", "engine.disk_read_s", "engine.disk_write_s",
                  "engine.network_s")
ENGINE_P50 = tuple("engine.%s.%s_p50_s" % (r, k) for r in ("cpu", "disk", "net")
                   for k in ("queue_wait", "service")) + ("engine.dag.dep_blocked_p50_s",)


def per_layer(workload, sample, traced, shares, audit_checks):
    """Per-layer metrics; layers a workload does not run report 0."""
    metrics = {}
    sim = workload in SIMULATOR
    counters = sample.get("counters", {})
    jobs = sample["jobs"][0] if sim else {}
    run_s = median(sample.get("multitask.run_s")) + median(sample.get("monotask.run_s"))
    for name in SIM_COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    metrics["simcore.events_per_s"] = (counters["simcore.events"] / run_s if sim else 0, "1/s")
    touched = counters.get("cluster.fabric.flows_touched", 0)
    metrics["cluster.fabric.useful_ratio"] = (
        counters["cluster.fabric.rate_changes"] / touched if touched else 0, "ratio")
    for name in ("multitask.run_s", "monotask.run_s", "model.critical_path_s"):
        metrics[name] = (median(sample.get(name)), "s")
    metrics["framework.sim_job_s.spark"] = (jobs.get("spark_sim_s", 0), "s")
    metrics["framework.sim_job_s.mono"] = (jobs.get("mono_sim_s", 0), "s")
    metrics["framework.sim_speedup"] = (
        jobs["spark_sim_s"] / jobs["mono_sim_s"] if sim else 0, "ratio")
    for name in SIM_STATS:
        metrics[name] = (counters.get(name, 0), "s")
    metrics["cluster.fabric.bytes"] = (counters.get("cluster.fabric.bytes", 0), "bytes")
    metrics["simcore.audit_checks"] = (audit_checks, "count")
    for name in ENGINE_P50:
        metrics[name] = (sample.get(name, 0), "s")
    for name in ENGINE_PER_JOB:
        metrics[name] = (median(sample.get(name)), "s")
    metrics["engine.network_bytes"] = (median(sample.get("engine.network_bytes")), "bytes")
    metrics["engine.tasks"] = (median(sample.get("engine.tasks")), "count")
    metrics["api.parallelize_s"] = (median(sample.get("api.parallelize_s")), "s")
    for bucket in fold.BUCKETS:
        metrics["host_share." + bucket] = (shares[bucket], "ratio")
    metrics["trace_overhead_s"] = (median(traced["pass_s"]) - median(sample["pass_s"]), "s")
    return metrics


def profile(binary, args, deadline, checks, notes):
    """The traced run: the -pg build of the same workload, folded by module."""
    run_dir = os.path.join(BUILD, "gprof", "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    traced = measure(binary, args, max(1.0, args.seconds / 3), deadline, run_dir)
    shares, problems, ambiguous = fold.host_shares(
        binary, os.path.join(run_dir, "gmon.out"), ROOT)
    for problem in problems:
        checks.run(False, "profile fold: " + problem)
    if ambiguous:
        notes.append("%d sampled symbols are defined in several modules; "
                     "folded into other" % ambiguous)
    return traced, shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build("release", gprof=False)
    profiled = build("gprof", gprof=True)  # Built up front: the first run pays both.
    deadline = time.monotonic() + DEADLINE_S

    sim = args.workload in SIMULATOR
    checks = Checks()
    notes = []
    sample = measure(binary, args, args.seconds, deadline, ROOT, audit=sim and args.trace == 1)
    if sim:
        check_sim_jobs(args.workload, args.seed, sample["jobs"], checks, notes.append)
        checks.run(sample["counters_repeat"], "work counters differ between passes")
    else:
        checks.attempted, checks.failed = int(sample["jobs"]), int(sample["wrong_counts"])
        checks.run(checks.failed == 0, "%d engine jobs counted the wrong number of records"
                   % checks.failed)

    if args.trace == 0:
        metrics, tail_note = end_to_end(args.workload, sample)
        notes.append(tail_note)
    else:
        audit_checks = 0
        if sim:
            audit_checks = sample["audit_checks"]
            checks.run(sample["audit_violations"] == 0,
                       "%d SimAudit violations" % sample["audit_violations"])
            checks.run(sample["audited_jobs"][0] == sample["jobs"][0],
                       "the audited pass's outputs differ from the untraced pass")
            traced, shares = profile(profiled, args, deadline, checks, notes)
            if traced["jobs"][0] != sample["jobs"][0]:
                notes.append("-pg build outputs differ from the untraced build")
        else:
            # gprof attributes the engine's time mostly to std::function
            # wrappers and sleeping threads; its layers are read from the
            # engine's own telemetry instead, and no -pg run is made.
            traced, shares = sample, dict.fromkeys(fold.BUCKETS, 0.0)
        metrics = per_layer(args.workload, sample, traced, shares, audit_checks)

    for note in notes:
        print(note)
    for problem in checks.problems:
        print("FAILED: " + problem)
    print("error_rate %.6f ratio (%d failed of %d attempted jobs)" % (
        checks.failed / checks.attempted, checks.failed, checks.attempted))
    for name, (value, unit) in metrics.items():
        print("%-34s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
