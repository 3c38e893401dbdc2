"""Benchmark of the heilbronn library, driven from outside through its
public API.  Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in fresh worker processes, one at a time, with BLAS
held to one thread.  --trace 0 starts WORKERS workers in turn; each sets
up and then runs ops for an equal share of the seconds.  setup_s is their
median set-up time, and the op metrics pool the ops of all of them, so
set-up and ops are sampled across the same stretch of time.  --trace 1
runs one worker that times each op traced and untraced, and reports
per-layer metrics from the spans.
The last line of output is one JSON object: correct, attempted, failed and
metrics.  The exit code is 1 when any output failed its check and 2 when
the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS = 5
BLAS_THREADS = 1
# One workload must end within 180 s; its workers share this budget.
BUDGET_S = 170.0

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from worker import median, tail  # noqa: E402

# The keys of workloads.WORKLOADS, which imports heilbronn; this process does not.
WORKLOAD_NAMES = ("triples_p2003", "verify_p101", "tensor_p1009")


class RunError(RuntimeError):
    """A worker could not be started or did not report."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(workload: str, seed: int, seconds: float, deadline: float,
               trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace"] * trace
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                              cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} worker exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    runs = [run_worker(workload, seed, seconds / WORKERS, deadline)
            for _ in range(WORKERS)]
    latencies = [t for r in runs for t in r["latencies"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (median([r["setup_s"] for r in runs]), "s"),
        "ops_per_s": (sum(r["ops"] for r in runs) / sum(r["busy_s"] for r in runs),
                      "1/s"),
        "op_p50_s": (median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "pass_ratio": (1.0 - failed / attempted, "ratio"),
    }
    notes = [f"op_tail_s is p{pct:.3f} of {attempted} ops",
             f"fail_ratio {failed / attempted:.6g}",
             f"setup_s samples {[round(r['setup_s'], 4) for r in runs]}"]
    return attempted, failed, metrics, notes


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    r = run_worker(workload, seed, seconds, deadline, trace=True)
    layers = r["layers"]
    metrics = {}
    for name in spans.TRACED:
        layer = layers.get(name, {"calls": 0, "errors": 0, "self_s": 0.0,
                                  "peak_rss_delta_mb": 0.0})
        calls = layer["calls"]
        metrics[f"{name}.self_s"] = (layer["self_s"] / calls if calls else 0.0, "s")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.errors"] = (layer["errors"], "count")
        metrics[f"{name}.peak_rss_delta_mb"] = (layer["peak_rss_delta_mb"], "MB")
    metrics["fermat.fermat_F_spectral.residual_max"] = (r["residual_max"], "1")
    op_self = layers["op"]["self_s"]
    metrics["op.self_s"] = (op_self / r["ops"], "s")
    metrics["tracing.ops_per_s_ratio"] = (r["ops_per_s"] / r["plain_ops_per_s"],
                                          "ratio")
    busy = r["busy_s"]
    notes = [f"untraced ops_per_s {r['plain_ops_per_s']:.6g}, "
             f"traced {r['ops_per_s']:.6g}, over the same {r['ops']} ops",
             f"library spans cover {100 * (busy - op_self) / busy:.2f}% of "
             f"{busy:.3f} s traced op time; the rest, {op_self:.4f} s, is "
             "harness and tracer time inside ops"]
    for name in spans.TRACED:
        if name in layers:
            L, O = layers[name], r["op_layers"].get(name, {"self_s": 0.0})
            notes.append(f"{name}: {L['calls']} calls, self {L['self_s']:.4f} s, "
                         f"of which in ops {O['self_s']:.4f} s "
                         f"({100 * O['self_s'] / busy:.1f}% of op time); "
                         f"peak RSS +{L['peak_rss_delta_mb']:.1f} MB")
    return r["attempted"], r["failed"], metrics, notes


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    commit = ""
    if (ROOT / ".git").exists():  # an exported checkout has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    text=True, capture_output=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = {f.name: f.read_text().count("\n")
                 for f in sorted((SRC / "heilbronn").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": commit or "unknown",
        "src_lines": src_lines,
        "src_lines_total": sum(src_lines.values()),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "heilbronn" / "__init__.py").is_file():
        print(f"no heilbronn sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    print("env " + json.dumps(environment()))
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        try:
            a, f, m, notes = measure(name, args.seed, args.seconds,
                                     time.monotonic() + BUDGET_S)
        except RunError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 2
        attempted += a
        failed += f
        print(f"[{name}] seed {args.seed}, {args.seconds:g} s of ops, "
              f"{a} ops, {f} failed")
        for key, (value, unit) in m.items():
            print(f"  {key} = {value:.6g} {unit}")
            full = key if len(names) == 1 else f"{name}.{key}"
            metrics[full] = {"value": value, "unit": unit}
        for note in notes:
            print(f"  # {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
