#!/usr/bin/env python3
"""Benchmark entry point: builds the trial binary from source, runs one workload
for a fixed wall-clock budget as a series of fixed-size trials, verifies
every inc, and prints the run's metrics.

    python3 perfbench/run.py --workload tree-closed --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout. perfbench_trial and dcnt_node are built
under .bench_build/perfbench on first use (RelWithDebInfo, the repository's
default build type).

A run is a sequence of trials. Each trial is a fresh perfbench_trial process
that runs a fixed number of incs (the op count decides what the runtime
pre-sizes, so a duration-cut trial would make memory track throughput).
Trials repeat until --seconds have passed, at least MIN_TRIALS times, and
every metric is the median over the run's trials. Trial i of a run uses
seed SEED * 1000 + i, so the same --seed gives the same inputs.

--trace 0 prints the end-to-end metrics from untraced trials. --trace 1
alternates traced and untraced trials and prints the per-layer metrics of
the traced ones plus the tracing overhead on every end-to-end metric
(traced median against untraced median, in percent).

stdout: one JSON line with the host fingerprint and per-trial rows, then,
as the last line, {"correct", "attempted", "failed", "metrics"}. The same
report is kept in .bench_build/perfbench/results/.
"""
import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRIAL = BUILD / "perfbench_trial"
NODE = BUILD / "dcnt" / "dcnt_node"
SHIM = BUILD / "libperfbench_syscount.so"

# Incs per trial (measured, warmup), both multiples of the counter's n so
# every processor initiates the same number of incs, and how many CPUs the
# trial (with its node processes) is confined to; None leaves placement to
# the runtime (tree-closed pins its one worker itself).
WORKLOADS = {
    "tree-closed": (81 * 2000, 81 * 200, None),
    "central-tcp": (16 * 25000, 16 * 2000, 1),
}
MIN_TRIALS = 3
TRIAL_TIMEOUT_S = 60
# Never start a trial past this point, whatever --seconds asks for.
LAST_START_S = 100

# Metric names and units come from BENCHMARK.json, the one list of what a
# run reports.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
HIGHER_IS_BETTER = {m["name"] for m in SPEC["end_to_end"]
                    if m["better"] == "higher"}
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
# Columns kept in every per-trial row of the report.
ROW_KEYS = ["seed", "verified", "inc_per_s", "p50_us", "p95_us", "samples",
            "cpu_us_per_inc", "setup_s", "peak_rss_mb", "msgs_per_inc",
            "traffic.max_ms", "host.steal_pct"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no repository sources under {ROOT}/src")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "perfbench_trial", "dcnt_node", "perfbench_syscount"],
                   check=True, stdout=sys.stderr)


def read_steal():
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_pct(before, after):
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def fingerprint(build_type):
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) + list(HERE.rglob("*"))):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release(), "build_type": build_type,
            "commit": commit, "source_sha256": digest.hexdigest()}


def kill_group(pgid):
    """SIGKILLs what is left of a trial's process group (nodes orphaned
    by an aborted trial, whose leader is already reaped) and waits until
    the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_trial(workload, seed, traced, tag):
    ops, warmup, ncpus = WORKLOADS[workload]
    cmd = [str(TRIAL), f"--workload={workload}", f"--seed={seed}",
           f"--ops={ops}", f"--warmup={warmup}", f"--node_bin={NODE}"]
    env = dict(os.environ)
    if traced:
        sysdir = BUILD / "syscount"
        sysdir.mkdir(parents=True, exist_ok=True)
        for stale in sysdir.glob("*.txt"):
            stale.unlink()
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace=1", f"--trace_out={traces / (tag + '.json')}",
                f"--syscount_dir={sysdir}"]
        env["LD_PRELOAD"] = str(SHIM)
        env["PERFBENCH_SYSCOUNT_DIR"] = str(sysdir)
    cpus = None if ncpus is None else set(sorted(os.sched_getaffinity(0))[-ncpus:])

    def confine():
        if cpus is not None:
            os.sched_setaffinity(0, cpus)

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True,
                            preexec_fn=confine)
    try:
        out, err = proc.communicate(timeout=TRIAL_TIMEOUT_S)
        status = f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        status = f"timeout after {TRIAL_TIMEOUT_S} s"
    if proc.returncode != 0:
        kill_group(proc.pid)  # an aborted trial may orphan its node
    row = None
    if proc.returncode == 0:
        try:
            row = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            row = None
    if row is None:
        log(f"perfbench: trial {tag} failed ({status}): {err.strip()[-2000:]}")
        return {"seed": seed, "verified": 0, "failure": status,
                "incs": ops + warmup}
    if not row["verified"]:
        log(f"perfbench: trial {tag} failed verification: {out.strip()}")
    row["incs"] = ops + warmup
    return row


def median(rows, key):
    values = [r[key] for r in rows if key in r]
    return statistics.median(values) if values else 0.0


def verified_ratio(rows):
    attempted = sum(r["incs"] for r in rows)
    verified = sum(r["incs"] for r in rows if r["verified"])
    return verified / attempted if attempted else 0.0


def end_to_end(rows):
    ok = [r for r in rows if "inc_per_s" in r]
    values = {k: median(ok, k) for k, _ in END_TO_END if k != "verified_ratio"}
    values["verified_ratio"] = verified_ratio(rows)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()

    start = time.monotonic()
    steal0 = read_steal()
    traced_rows, plain_rows = [], []
    i = 0
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain_rows) >= MIN_TRIALS and (
            not args.trace or len(traced_rows) >= MIN_TRIALS)
        if (enough and elapsed >= args.seconds) or (
                elapsed >= LAST_START_S and plain_rows):
            break
        traced = bool(args.trace) and i % 2 == 0
        tag = f"{args.workload}-seed{args.seed}-trial{i}"
        row = run_trial(args.workload, args.seed * 1000 + i, traced, tag)
        row["traced"] = int(traced)
        (traced_rows if traced else plain_rows).append(row)
        i += 1
    run_steal = steal_pct(steal0, read_steal())

    rows = traced_rows + plain_rows
    attempted = sum(r["incs"] for r in rows)
    failed = sum(r["incs"] for r in rows if not r["verified"])
    plain = end_to_end(plain_rows)
    if args.trace:
        ok = [r for r in traced_rows if "inc_per_s" in r]
        metrics = {k: {"value": median(ok, k), "unit": u} for k, u in PER_LAYER
                   if not k.startswith("trace_overhead.")}
        metrics["host.steal_pct"]["value"] = run_steal
        # Positive = tracing made the metric worse.
        traced = end_to_end(traced_rows)
        for k, _ in END_TO_END:
            base = plain[k]
            worse = base - traced[k] if k in HIGHER_IS_BETTER else traced[k] - base
            pct = 100.0 * worse / base if base else 0.0
            metrics[f"trace_overhead.{k}"] = {"value": pct, "unit": "%"}
    else:
        metrics = {k: {"value": plain[k], "unit": u} for k, u in END_TO_END}

    build_type = next((r["build_type"] for r in rows if "build_type" in r), None)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "trial_ops": WORKLOADS[args.workload][0],
        "trial_warmup": WORKLOADS[args.workload][1],
        "host": fingerprint(build_type),
        "host.steal_pct": run_steal,
        "nodes_seen": median(traced_rows, "net.nodes_seen"),
        "trials": [{k: r[k] for k in ROW_KEYS + ["traced", "failure"] if k in r}
                   for r in rows],
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and bool(rows),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
