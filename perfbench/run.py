#!/usr/bin/env python3
"""End-to-end benchmark of the hddpred daemon, streaming scorer and retrain loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_ingest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

It builds `perfbench/` (a CMake package compiling ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), generates the
workload's inputs from the seed in one process, measures the workload in a
second process, and prints a run header, the run's notes, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
A run whose correctness gate fails prints no metrics and exits non-zero.
Every run's header and full result are appended to
$CARGO_TARGET_DIR/perfbench-results.jsonl.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_ingest", "interval_forest", "retrain_cycle"]

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "serve.wire_encode_ns_per_sample": "ns",
    "serve.wire_decode_ns_per_sample": "ns",
    "serve.engine_ingest_ns_per_sample": "ns",
    "serve.transport_share": "ratio",
    "store.append_ns_per_sample": "ns",
    "store.bytes_per_sample": "B",
    "store.recover_s": "s",
    "core.resume_s": "s",
    "smart.extract_ns_per_row": "ns",
    "core.predict_ns_per_row": "ns",
    "forest.node_bytes": "B",
    "core.vote_ns_per_push": "ns",
    "core.pool_speedup": "x",
    "store.window_read_s": "s",
    "store.window_samples": "count",
    "store.window_read_share": "ratio",
    "data.training_matrix_s": "s",
    "tree.fit_s": "s",
    "tree.nodes": "count",
    "analysis.lint_s": "s",
    "core.gate_eval_s": "s",
    "sim.generate_s": "s",
    "span.shard_queue_wait_us": "us",
    "span.wire_respond_us": "us",
    "span.store_flush_os_us": "us",
    "trace.untraced_ms_per_op": "ms",
    "trace.traced_ms_per_op": "ms",
    "trace.unattributed_share": "ratio",
}

# Prep + run of one workload must end within this many seconds (the build
# before it is not counted).
RUN_BUDGET_S = 170
MEASURE_PROCESSES = 4
# Fewest ops an epoch needs for its own tail (11th-largest: p80 or deeper).
MIN_EPOCH_OPS = 50


class BenchError(Exception):
    pass


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        raise BenchError("library sources not found at %s" % src)
    out = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs], "build")
    binary = os.path.join(out, "perfbench")
    if not os.path.isfile(binary):
        raise BenchError("build produced no binary")
    return binary


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("%s failed (exit %d)" % (what, proc.returncode))


def call(binary, args, timeout):
    """Runs one perfbench phase; returns (exit code, parsed last JSON line)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log(proc.stderr[-4000:])
        raise BenchError("%s printed nothing (exit %d)" % (args[0], proc.returncode))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise BenchError("%s printed no result" % args[0])
    return proc.returncode, result


def fs_type(path):
    try:
        return subprocess.run(["stat", "-f", "-c", "%T", path], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        return "unknown"


def source_digest():
    """Digest of src/ and perfbench/, identifying the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def header(args, work):
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout.strip() or "not-a-git-checkout"
    cache = os.path.join(build_root(), "perfbench", "CMakeCache.txt")
    compiler, build_type = "unknown", "unknown"
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
    except OSError:
        version = compiler
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": (version.splitlines() or [compiler])[0],
        "build_type": build_type,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "journal_dir": os.path.relpath(work, ROOT),
        "journal_fs": fs_type(work),
    }


def run_workload(binary, workload, seed, seconds, trace, tiny=False, perturb=False):
    """Prep once, then measure; returns (gate passed, result).

    An untraced run splits its measured time over MEASURE_PROCESSES
    sequential processes on the same inputs and pools their raw samples:
    how fast a process runs here depends on which CPUs it lands on, and
    pooling several placements keeps one unlucky placement from setting a
    run's figures. A traced run is one process."""
    work = os.path.join(build_root(), "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    extra = ["--tiny"] if tiny else []
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        rc, prep = call(binary, ["prep", "--workload", workload, "--seed", str(seed),
                                 "--dir", work] + extra, RUN_BUDGET_S)
        if rc != 0 or not prep.get("correct"):
            raise BenchError("prep failed: %s" % prep.get("check"))
        t0 = time.monotonic()
        parts = 1 if trace else MEASURE_PROCESSES
        results = []
        for _ in range(parts):
            rc, res = call(binary, ["run", "--workload", workload, "--dir", work,
                                    "--seconds", str(seconds / parts), "--trace", str(trace)]
                           + extra + (["--perturb"] if perturb else []),
                           max(1.0, deadline - time.monotonic()))
            results.append(res)
            if rc != 0 or res.get("correct") is not True:
                return False, res
        res = results[-1] if trace else pool(results)
        res["notes"]["run_wall_s"] = "%.3f" % (time.monotonic() - t0)
        res["notes"].update(prep.get("notes", {}))
        if trace:
            res["metrics"].update(prep["metrics"])
        return True, res
    finally:
        shutil.rmtree(work, ignore_errors=True)


def pool(results):
    """The five end-to-end metrics from the raw samples of every process.

    setup_s: median of every cold set-up. latency_p50_ms: median of every
    op. latency_tail_ms: per epoch, the highest percentile with at least ten
    ops beyond it (the 11th-largest op), median over epochs; where an epoch
    holds fewer than MIN_EPOCH_OPS ops (retrain_cycle), over all ops pooled,
    since the 11th-largest of a few dozen ops would be near the median.
    throughput_per_s: work / busy time per epoch, median over epochs.
    peak_rss_mb: median over the processes."""
    setups, ops, epochs, rss = [], [], [], []
    for r in results:
        raw = r["raw"]
        setups += raw["setup_s"]
        epochs += raw["epochs"]
        rss.append(raw["peak_rss_mb"])
    for e in epochs:
        ops += e["latency_ms"]
    groups = [e["latency_ms"] for e in epochs]
    if min(len(g) for g in groups) < MIN_EPOCH_OPS:
        groups = [ops]
    if len(groups[0]) < 11:
        raise BenchError("a tail needs at least 11 ops, got %d" % len(groups[0]))
    tails = [sorted(g)[-11] for g in groups]
    pcts = [100.0 * (len(g) - 10) / len(g) for g in groups]
    out = dict(results[-1])
    out["attempted"] = sum(int(r["attempted"]) for r in results)
    out["failed"] = sum(int(r["failed"]) for r in results)
    out["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "throughput_per_s": {"value": statistics.median([e["work"] / e["busy_s"] for e in epochs]),
                             "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(ops), "unit": "ms"},
        "latency_tail_ms": {"value": statistics.median(tails), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    notes = dict(out["notes"])
    notes.update({
        "processes": str(len(results)),
        "throughput_unit": results[-1]["raw"]["work_unit"] + "/s",
        "latency_ops": str(len(ops)),
        "latency_tail_pct": "%.2f" % statistics.median(pcts),
        "epochs": str(len(epochs)),
        "setup_reps": str(len(setups)),
        "setup_s_range": "%.6f..%.6f" % (min(setups), max(setups)),
    })
    out["notes"] = notes
    del out["raw"]
    return out


def final_line(res, trace):
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        m = res["metrics"].get(name)
        if m is None or m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            raise BenchError("metric %s missing or malformed" % name)
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": True, "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main_run(args):
    binary = build()
    work_hint = os.path.join(build_root(), "work")
    os.makedirs(work_hint, exist_ok=True)
    hdr = header(args, work_hint)
    for k, v in hdr.items():
        print("# %s: %s" % (k, v))
    ok, res = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    for k, v in res.get("notes", {}).items():
        print("# %s: %s" % (k, v))
    res.pop("raw", None)
    with open(os.path.join(build_root(), "perfbench-results.jsonl"), "a") as f:
        f.write(json.dumps({"header": hdr, "result": res}) + "\n")
    if not ok:
        log("correctness gate failed: %s" % res.get("check"))
        return 1
    out = final_line(res, args.trace)
    if out["attempted"] < 1:
        raise BenchError("no ops attempted")
    print(json.dumps(out))
    return 0


def self_test():
    """Tiny-size check: every metric prints with its unit, every gate passes
    on this code and fails on a perturbed reference."""
    binary = build()
    failures = []
    for w in WORKLOADS:
        for trace in (0, 1):
            ok, res = run_workload(binary, w, 7, 1, trace, tiny=True)
            try:
                if not ok:
                    raise BenchError("gate failed: %s" % res.get("check"))
                final_line(res, trace)
                print("PASS %s trace=%d: gate passes, %d metrics with units"
                      % (w, trace, len(PER_LAYER if trace else END_TO_END)))
            except BenchError as e:
                failures.append("%s trace=%d: %s" % (w, trace, e))
        ok, res = run_workload(binary, w, 7, 1, 0, tiny=True, perturb=True)
        if ok or res.get("metrics"):
            failures.append("%s: gate passed on a perturbed reference" % w)
        else:
            print("PASS %s perturbed: gate fails (%s)" % (w, res.get("check")))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            p.error("--workload is required")
        return main_run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
