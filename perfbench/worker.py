"""One workload in one fresh process: set up, run ops for a fixed busy
time, check every output, and print a JSON summary as the last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned-at T [--trace]

T is time.monotonic() in the parent just before it started this process;
CLOCK_MONOTONIC is system-wide, so set-up time includes interpreter start
and `import heilbronn`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import spans

# The tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# Highest percentile reported as the tail: beyond it, a run of several
# hundred thousand ops would report scheduler stalls, not the library.
TAIL_CAP = 99.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, at most TAIL_CAP, with
    at least TAIL_BEYOND samples above it; needs TAIL_BEYOND + 1 samples."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    rank = min(n - TAIL_BEYOND, int(n * TAIL_CAP / 100.0))
    return 100.0 * rank / n, sorted(latencies)[rank - 1]


def median(values: list[float]) -> float:
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def run_op(workload, i: int, tracer, report: bool) -> tuple[float, bool]:
    """(seconds, ok) for op i, inside a span if a tracer is given; a raising
    op or check counts as not ok, and its traceback goes to stderr if
    report."""
    start = time.perf_counter()
    try:
        out = (workload.op(i) if tracer is None
               else tracer.call("op", workload.op, i))
        dt = time.perf_counter() - start
        return dt, bool(workload.check(i, out))
    except Exception:
        dt = time.perf_counter() - start
        if report:
            traceback.print_exc()
        return dt, False


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run at least TAIL_BEYOND + 1 ops, and as many as fit in `seconds` of
    op time at the pace so far; check each output between ops, outside the
    timed region.

    With a tracer, each op runs twice in a row, traced and untraced in
    turn, so that both are timed under the same machine load; the
    untraced run has the tracer removed, wrappers and all.  The figures
    reported are the traced ones, plus plain_ops_per_s.
    """
    runs = (None,) if tracer is None else (True, False)
    latencies: list[float] = []
    plain_busy = 0.0
    failed = 0
    busy = 0.0
    i = 0
    while i <= TAIL_BEYOND or busy * (i + 1) / i <= seconds:
        for traced in runs if i % 2 else runs[::-1]:
            if traced:
                tracer.install()
                tracer.op = i
            elif traced is False:
                tracer.remove()
            dt, ok = run_op(workload, i, tracer if traced else None,
                            report=failed == 0)
            failed += not ok
            busy += dt
            if traced is False:
                plain_busy += dt
            else:
                latencies.append(dt)
        i += 1
    if tracer is not None:
        tracer.remove()
    timed = busy - plain_busy
    result = {"attempted": i * len(runs), "failed": failed, "ops": i,
              "busy_s": timed, "ops_per_s": i / timed, "latencies": latencies,
              "residual_max": workload.residual_max}
    if tracer is not None:
        result["plain_ops_per_s"] = i / plain_busy
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import workloads  # imports heilbronn, which run.py does not need

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.call("setup", workload.setup, args.seed)
    else:
        workload.setup(args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    result.update(measure(workload, args.seconds, tracer))
    if tracer is not None:
        for key, ops_only in (("layers", False), ("op_layers", True)):
            result[key] = {name: vars(layer) for name, layer
                           in spans.layers(tracer.spans, ops_only).items()}
    result["peak_rss_mb"] = spans.maxrss_kb() / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
