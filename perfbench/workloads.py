"""The benchmark's workloads.  Each builds its inputs from a seed in
setup(), runs one operation per op() call through the public API, and
checks that operation's output in check() against perfbench's own
oracles; check() runs outside the timed region."""

from __future__ import annotations

import random

import numpy as np

import heilbronn as hb
# Imported before any Tracer.install, so that the calls run_verify makes
# through this module's bindings are traced too.
from heilbronn.cli import run_verify

import oracles

def random_units(rng: random.Random, p: int, count: int) -> list[int]:
    p2 = p * p
    out = []
    while len(out) < count:
        u = rng.randrange(1, p2)
        if u % p:
            out.append(u)
    return out


class Workload:
    residual_max = 0.0  # largest fermat_F_spectral rounding residual seen


class Triples(Workload):
    """Context and spectrum built once; one op is one F(p;a,b,c) on a
    seeded triple of units, checked by exact counting."""

    def __init__(self, p: int = 2003, pool: int = 8192):
        self.p, self.pool = p, pool

    def setup(self, seed: int) -> None:
        self.ctx = hb.build_context(self.p)
        self.s = hb.spectrum(self.ctx)
        rng = random.Random(seed)
        units = random_units(rng, self.p, 3 * self.pool)
        self.triples = list(zip(units[0::3], units[1::3], units[2::3]))
        self.expected: dict[int, int] = {}
        self.lift = None  # built on first check, outside set-up

    def op(self, i: int):
        a, b, c = self.triples[i % self.pool]
        return hb.fermat_F_spectral(self.ctx, self.s, a, b, c)

    def check(self, i: int, out) -> bool:
        self.residual_max = max(self.residual_max, out.residual)
        k = i % self.pool
        if k not in self.expected:
            if self.lift is None:
                self.lift = oracles.teichmuller(self.p)
            self.expected[k] = oracles.fermat_count(self.p, *self.triples[k],
                                                    self.lift)
        return (out.a, out.b, out.c) == self.triples[k] and out.F == self.expected[k]


def row_sum_law(tensor) -> bool:
    """sum_k c(p,j,k) over all p+2 classes is p-1 for every j != p."""
    p = tensor.p
    return all(int(tensor.base[j - 1].sum()) + tensor.c(p, j, p + 1)
               + tensor.c(p, j, p + 2) == p - 1 for j in range(1, p))


class Verify(Workload):
    """One op is `heilbronn verify --quick` at p = 101, through the CLI's
    run_verify; every check row must pass.  It needs no seeded input."""

    P = 101

    def setup(self, seed: int) -> None:
        pass

    def op(self, i: int):
        return run_verify(self.P)

    def check(self, i: int, out) -> bool:
        return all(ok for _, ok, _ in out)


class Tensor(Workload):
    """Context and spectrum built once; one op is the all-triples
    structure tensor plus its diagonal report, checked by the row-sum law,
    symmetry, the report's verdict and seeded entries counted directly."""

    P = 1009
    ENTRIES = 32

    def setup(self, seed: int) -> None:
        self.ctx = hb.build_context(self.P)
        self.s = hb.spectrum(self.ctx)
        rng = random.Random(seed)
        self.cells = [(rng.randint(1, self.P), rng.randint(1, self.P))
                      for _ in range(self.ENTRIES)]
        self.expected: list[int] | None = None

    def op(self, i: int):
        tensor = hb.structure_constants_spectral_all(self.ctx, self.s)
        return tensor, hb.ciik_report(tensor)

    def check(self, i: int, out) -> bool:
        tensor, report = out
        if self.expected is None:
            lift = oracles.teichmuller(self.P)
            self.expected = [oracles.tensor_entry(self.P, self.ctx.g, j, k, lift)
                             for j, k in self.cells]
        base = tensor.base
        return (report.passed and row_sum_law(tensor)
                and bool(np.array_equal(base, base.T))
                and [int(base[j - 1, k - 1]) for j, k in self.cells] == self.expected)


WORKLOADS = {
    "triples_p2003": Triples,
    "verify_p101": Verify,
    "tensor_p1009": Tensor,
}
