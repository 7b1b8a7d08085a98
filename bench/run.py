"""The lrpoly benchmark: one workload per invocation.

    python3 bench/run.py --workload lr-oracle --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src`.
Each workload runs in a fresh interpreter (bench/worker.py), single
threaded.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs
the workload once untraced and once traced, for half the time each, and
prints the per-layer metrics.  The last line of stdout is one JSON
object; the full record, with run metadata, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracer import SUBCOMMANDS, TRACED  # noqa: E402

try:
    from workloads import METHODS, WORKLOADS  # noqa: E402
except ImportError as exc:
    sys.exit(f"error: cannot import lrpoly from {ROOT}/src ({exc}); run "
             "from the repository root")

MODULES = ("lrpoly", "lrpoly.exactla", "lrpoly.typea", "lrpoly.kostant",
           "lrpoly.hive", "lrpoly.tableaux", "lrpoly.steinberg",
           "lrpoly.stretch", "lrpoly.lr3", "lrpoly.cli")
SETUP_REPEATS = 7  # before the workload, and as many again after it
IMPORTTIME_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
DEADLINE_S = 170.0

_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import lrpoly.cli\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, lrpoly.cli.__file__)\n"
)


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("benchmark ran past its deadline")
    return left


def setup_seconds(root: str, deadline: float) -> list:
    """Time for a fresh interpreter to import lrpoly.cli, once per probe."""
    src = os.path.join(root, "src")
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=root,
            env=child_env(root), capture_output=True, text=True,
            timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"import probe failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if not os.path.abspath(path.strip()).startswith(src + os.sep):
            raise BenchError(f"lrpoly imported from outside {src}")
        out.append(float(seconds))
    return out


def import_times(root: str, deadline: float) -> dict:
    """Median self time per lrpoly module from `python -X importtime`."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lrpoly.cli"],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"importtime probe failed:\n{proc.stderr}")
        self_us, total_us = {}, 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            own, cumulative, indent, module = m.groups()
            if module == "lrpoly" or module.startswith("lrpoly."):
                self_us[module] = int(own)
                if not indent.strip(" ") and len(indent) == 1:
                    total_us += int(cumulative)
        self_us["total"] = total_us
        runs.append(self_us)
    out = {}
    for module in MODULES + ("total",):
        out[module] = statistics.median(r.get(module, 0) for r in runs) / 1e3
    out["other"] = out["total"] - sum(out[m] for m in MODULES)
    return out


def run_worker(root, workload, seed, seconds, trace, deadline) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), str(seconds), str(trace)],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(percentile, value, samples beyond): the highest listed percentile
    with at least ten samples beyond it, by the nearest-rank rule."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def ops_per_s(result) -> float:
    return len(result["latencies_ms"]) / (sum(result["latencies_ms"]) / 1e3)


def end_to_end(result, setup) -> dict:
    lat = result["latencies_ms"]
    p, value, _ = tail(lat)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s(result), "1/s"),
        "op_ms.p50": (statistics.median(lat), "ms"),
        "op_ms.tail": (value, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(plain, traced, imports, workload) -> dict:
    tr = traced["trace"]
    fns = tr["functions"]
    counts = tr["counts"]
    ops = len(traced["latencies_ms"])
    loop_ns = traced["loop_s"] * 1e9
    out = {}
    attempted = plain["attempted"] + traced["attempted"]
    out["failed_frac"] = ((plain["failed"] + traced["failed"]) / attempted,
                          "ratio")
    out["op_ms.tail_pct"] = (tail(plain["latencies_ms"])[0], "%")
    for m in METHODS:
        n = plain["method_n"].get(m, 0)
        out[f"lr.{m}_per_s"] = (n / plain["method_s"][m] if n else 0.0, "1/s")
    traced_rate, plain_rate = ops_per_s(traced), ops_per_s(plain)
    out["trace.ops_per_s"] = (traced_rate, "1/s")
    out["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    out["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    self_sum = sum(row["self_ns"] for row in fns.values())
    self_pct = 100.0 * self_sum / loop_ns
    bench_pct = 100.0 * traced["bench_s"] / traced["loop_s"]
    out["trace.loop_s"] = (traced["loop_s"], "s")
    out["trace.self_sum_pct"] = (self_pct, "%")
    out["trace.bench_overhead_pct"] = (bench_pct, "%")
    out["trace.unaccounted_pct"] = (100.0 - self_pct - bench_pct, "%")
    zero = {"calls": 0, "busy_ns": 0, "self_ns": 0}
    for name in TRACED:
        row = fns.get(name, zero)
        out[f"{name}.calls"] = (row["calls"] / ops, "calls/op")
        out[f"{name}.busy_ms"] = (row["busy_ns"] / 1e6 / ops, "ms/op")
        out[f"{name}.self_ms"] = (row["self_ns"] / 1e6 / ops, "ms/op")
    walls = {}
    for kind, ms in zip(plain["kinds"], plain["latencies_ms"]):
        walls.setdefault(kind, []).append(ms)
    cli_self = 0
    for sub in SUBCOMMANDS:
        row = fns.get(f"cli.{sub}", zero)
        cli_self += row["self_ns"]
        out[f"cli.{sub}.calls"] = (row["calls"] / ops, "calls/op")
        out[f"cli.{sub}.ms"] = (
            row["busy_ns"] / 1e6 / row["calls"] if row["calls"] else 0.0,
            "ms/call")
        wall = walls.get(sub) if workload == "cli-cold" else None
        out[f"cli.{sub}.wall_ms"] = (statistics.median(wall) if wall else 0.0,
                                     "ms/call")
    out["cli.self_ms"] = (cli_self / 1e6 / ops, "ms/op")
    startup = sum(fns.get(n, zero)["self_ns"] for n in ("proc", "import"))
    out["cli.startup_ms"] = (startup / 1e6 / ops, "ms/op")
    lookups = counts["memo_hits"] + counts["memo_misses"]
    out["kostant.memo_hit_ratio"] = (
        counts["memo_hits"] / lookups if lookups else 0.0, "ratio")
    out["kostant.memo_entries"] = (counts["memo_entries"], "count")
    hive_ms = fns.get("hive.hive_count", zero)["busy_ns"] / 1e6
    out["hive.hives_per_ms"] = (
        counts["hives"] / hive_ms if hive_ms else 0.0, "1/ms")
    calls = counts["build_system_calls"]
    out["hive.build_system.reuse_ratio"] = (
        counts["build_system_distinct_k"] / calls if calls else 0.0, "ratio")
    calls = counts["membership_calls"]
    out["lr3.membership.true_ratio"] = (
        counts["membership_true"] / calls if calls else 0.0, "ratio")
    for module in MODULES + ("other", "total"):
        out[f"import.{module}_ms"] = (imports[module], "ms")
    return out


def git_commit(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "lrpoly")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def metadata(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "src_lines": src_lines(root),
    }


def measure(args, root: str, deadline: float):
    if args.trace == 0:
        # probes on both sides of the workload, so one slow spell of a
        # shared host moves the median less
        setup = setup_seconds(root, deadline)
        result = run_worker(root, args.workload, args.seed, args.seconds, 0,
                            deadline)
        setup += setup_seconds(root, deadline)
        metrics = end_to_end(result, setup)
        runs = [result]
        extra = {"setup_s_samples": setup}
    else:
        imports = import_times(root, deadline)
        half = args.seconds / 2.0
        plain = run_worker(root, args.workload, args.seed, half, 0, deadline)
        traced = run_worker(root, args.workload, args.seed, half, 1,
                            deadline)
        metrics = per_layer(plain, traced, imports, args.workload)
        runs = [plain, traced]
        extra = {"trace_spans": traced["trace"]["spans"]}
    return metrics, runs, extra


def report(args, root, metrics, runs, extra) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    first = runs[0]
    p, _, beyond = tail(first["latencies_ms"])
    by_kind = {}
    for kind, ms in zip(first["kinds"], first["latencies_ms"]):
        by_kind.setdefault(kind, []).append(ms)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(root),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in runs for e in r["errors"]],
        "tail": {"percentile": p, "samples_beyond": beyond,
                 "samples": len(first["latencies_ms"])},
        "op_ms_median_by_kind": {k: statistics.median(v)
                                 for k, v in sorted(by_kind.items())},
        "latencies_ms": first["latencies_ms"],
        "kinds": first["kinds"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        **extra,
    }
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, runs, extra = measure(args, ROOT, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = report(args, ROOT, metrics, runs, extra)
    meta = record["metadata"]
    tl = record["tail"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['attempted']} ops, {record['failed']} failed; "
          f"tail = p{tl['percentile']:g} with {tl['samples_beyond']} of "
          f"{tl['samples']} samples beyond; python {meta['python']}, "
          f"nproc {meta['nproc']}, commit {meta['git_commit'][:12]}, "
          f"src lines {meta['src_lines']}")
    for err in record["errors"]:
        print(f"# failure: {err}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
