"""Wall-clock comparison of the counting strategies: naive exhaustion vs
the spectral route (the Theta(p) formula per F; for all triples, the
third-moment FFT correlation plus cyclic shifts), with log-log slope fits
and crossover detection."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .modarith import InvalidInput, build_context, check_odd_prime
from .fermat import (NAIVE_MAX_PRIME, _third_moment_block, fermat_F_spectral,
                     fermat_count_naive_reduced, structure_block_enumerated)
from .spectra import spectrum

MIN_REPS = 3


class MethodDisagreement(RuntimeError):
    """The naive and spectral routes gave different results."""


@dataclass(frozen=True)
class BenchSample:
    p: int
    method: str
    seconds: float
    repetitions: int


@dataclass(frozen=True)
class BenchReport:
    task: str  # "single-F" | "all-triples"
    samples: list[BenchSample]
    fitted_slopes: dict[str, float]
    crossover_p: int | None

    def to_csv(self) -> str:
        lines = ["p,method,seconds"]
        lines += [f"{s.p},{s.method},{s.seconds!r}" for s in self.samples]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "task": self.task,
            "samples": [vars(s) for s in self.samples],
            "fitted_slopes": self.fitted_slopes,
            "crossover_p": self.crossover_p,
        })

    def to_gnuplot(self) -> str:
        methods = sorted({s.method for s in self.samples})
        blocks = []
        for m in methods:
            rows = [f"{s.p} {s.seconds!r}" for s in self.samples if s.method == m]
            blocks.append(f"# method: {m}\n" + "\n".join(rows))
        return "\n\n\n".join(blocks) + "\n"


def _time_min(fn, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fit_slope(samples: list[BenchSample], method: str) -> float:
    pts = [(math.log(s.p), math.log(s.seconds))
           for s in samples if s.method == method and s.seconds > 0]
    xs, ys = zip(*pts)
    return float(np.polyfit(xs, ys, 1)[0])


def _validate(p_list: list[int], reps: int, naive_cap: int) -> None:
    if reps < MIN_REPS:
        raise InvalidInput(f"repetitions must be >= {MIN_REPS}, got {reps}")
    if not p_list:
        raise InvalidInput("empty prime list")
    for p in p_list:
        check_odd_prime(p)
        if p > naive_cap:
            raise InvalidInput(f"naive path capped at p <= {naive_cap}")


def _report(task: str, samples: list[BenchSample]) -> BenchReport:
    slopes = {m: _fit_slope(samples, m) for m in {s.method for s in samples}}
    by_p: dict[int, dict[str, float]] = {}
    for s in samples:
        by_p.setdefault(s.p, {})[s.method] = s.seconds
    crossover = next((p for p in sorted(by_p)
                      if by_p[p]["spectral"] < by_p[p]["naive"]), None)
    return BenchReport(task=task, samples=samples, fitted_slopes=slopes,
                       crossover_p=crossover)


def bench_single_F(p_list: list[int], reps: int = MIN_REPS) -> BenchReport:
    """Time one F(p;1,1,1): Theta(p^3) triple exhaustion vs spectrum build
    plus the Theta(p) spectral formula.  Results are cross-validated before
    any timing is recorded."""
    _validate(p_list, reps, naive_cap=NAIVE_MAX_PRIME)
    samples = []
    for p in sorted(p_list):
        ctx = build_context(p)
        s = spectrum(ctx)
        F = fermat_F_spectral(ctx, s, 1, 1, 1).F
        count = fermat_count_naive_reduced(ctx, 1, 1, 1)
        if count != (p - 1) * F:
            raise MethodDisagreement(f"method disagreement at p={p}: "
                                     f"naive {count}, spectral {(p - 1) * F}")
        t_naive = _time_min(lambda: fermat_count_naive_reduced(ctx, 1, 1, 1),
                            reps)

        def spectral_path():
            c = build_context(p)
            fermat_F_spectral(c, spectrum(c), 1, 1, 1)

        t_spec = _time_min(spectral_path, reps)
        samples.append(BenchSample(p, "naive", t_naive, reps))
        samples.append(BenchSample(p, "spectral", t_spec, reps))
    return _report("single-F", samples)


def _tensor_naive_all(ctx) -> np.ndarray:
    return np.stack([structure_block_enumerated(ctx, i)[:, :ctx.p]
                     for i in range(1, ctx.p + 1)])


def _tensor_spectral_all(ctx) -> np.ndarray:
    base, _ = _third_moment_block(spectrum(ctx))
    return np.stack([np.roll(base, (i, i), axis=(0, 1)) for i in range(1, ctx.p + 1)])


def bench_all_triples(p_list: list[int], reps: int = MIN_REPS) -> BenchReport:
    """Time all c(i,j,k) at once: Theta(p^4) exhaustion vs the paper's
    third-moment FFT block (_third_moment_block, O(p^2 log p) time; the
    library's tensor counts exactly instead) plus the p cyclic shifts that
    stack every block.  Tensors must agree exactly first."""
    _validate(p_list, reps, naive_cap=61)
    samples = []
    for p in sorted(p_list):
        ctx = build_context(p)
        if not np.array_equal(_tensor_naive_all(ctx), _tensor_spectral_all(ctx)):
            raise MethodDisagreement(f"tensor disagreement at p={p}")
        t_naive = _time_min(lambda: _tensor_naive_all(ctx), reps)
        t_spec = _time_min(lambda: _tensor_spectral_all(ctx), reps)
        samples.append(BenchSample(p, "naive", t_naive, reps))
        samples.append(BenchSample(p, "spectral", t_spec, reps))
    return _report("all-triples", samples)
