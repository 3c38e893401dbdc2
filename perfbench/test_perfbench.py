"""Tests of the benchmark harness: its oracles, span arithmetic, and the
failure accounting of the timed loop."""

import random

import pytest

import heilbronn as hb

import oracles
import spans
import workloads
from worker import TAIL_BEYOND, measure, tail

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_fermat_oracle_matches_naive_count(p):
    ctx = hb.build_context(p)
    lift = oracles.teichmuller(p)
    rng = random.Random(p)
    for a, b, c in [(1, 1, 1)] + [tuple(workloads.random_units(rng, p, 3))
                                  for _ in range(4)]:
        naive = hb.fermat_count_naive_reduced(ctx, a, b, c)
        assert naive == (p - 1) * oracles.fermat_count(p, a, b, c, lift)


@pytest.mark.parametrize("p", [5, 13, 31])
def test_tensor_oracle_matches_library(p):
    ctx = hb.build_context(p)
    base = hb.structure_constants_spectral_all(ctx, hb.spectrum(ctx)).base
    lift = oracles.teichmuller(p)
    for j in range(1, p + 1):
        for k in range(1, p + 1):
            assert base[j - 1, k - 1] == oracles.tensor_entry(p, ctx.g, j, k, lift)


def span(name, start, end, parent=None, op=0):
    return spans.Span(name, start, end, parent, op, 0, False)


def test_self_times_subtract_children():
    # op [0,10] -> a [1,6] -> b [2,4]; op -> c [7,9]
    tree = [span("op", 0, 10), span("a", 1, 6, 0), span("b", 2, 4, 1),
            span("c", 7, 9, 0)]
    assert spans.self_times(tree) == [3, 3, 2, 2]
    layers = spans.layers(tree + [span("b", 11, 12, op="setup")])
    assert layers["b"].calls == 2 and layers["b"].self_s == 3
    assert spans.layers(tree + [span("b", 11, 12, op="setup")],
                        ops_only=True)["b"].self_s == 2


def test_tracer_records_nested_library_calls():
    original = hb.build_context
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.call("op", hb.build_context, 7)
        with pytest.raises(hb.InvalidInput):
            hb.build_context(9)
    finally:
        tracer.remove()
    assert hb.build_context is original
    names = [s.name for s in tracer.spans]
    assert names == ["op", "modarith.build_context",
                     "modarith.primitive_root_mod_p2", "modarith.build_context"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, None]
    assert tracer.spans[-1].error


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(11))) == (100 / 11, 0)
    pct, value = tail([float(i) for i in range(1000)])
    assert value == 989.0 and 1000 - (value + 1) == TAIL_BEYOND and pct == 99.0
    with pytest.raises(ValueError):
        tail([1.0] * TAIL_BEYOND)


POOL = 16


def small_triples():
    w = workloads.Triples(p=31, pool=POOL)
    w.setup(seed=1)
    return w


def test_correct_answers_do_not_fail():
    r = measure(small_triples(), seconds=0.0)
    assert r["failed"] == 0 and r["attempted"] > TAIL_BEYOND


def test_traced_measure_pairs_each_op_with_an_untraced_run():
    tracer = spans.Tracer()
    r = measure(small_triples(), seconds=0.0, tracer=tracer)
    ops = [s for s in tracer.spans if s.name == "op"]
    assert len(ops) == r["ops"] and r["attempted"] == 2 * r["ops"]
    assert r["failed"] == 0 and r["plain_ops_per_s"] > 0


def test_untraced_runs_call_the_library_unwrapped():
    w = small_triples()
    original = hb.fermat_F_spectral
    wrapped = []
    op = w.op

    def spying_op(i):
        wrapped.append(hb.fermat_F_spectral is not original)
        return op(i)

    w.op = spying_op
    r = measure(w, seconds=0.0, tracer=spans.Tracer())
    assert wrapped.count(True) == wrapped.count(False) == r["ops"]
    assert hb.fermat_F_spectral is original


def test_verify_op_passes_its_check():
    w = workloads.Verify()
    w.setup(seed=1)
    assert w.check(0, w.op(0))


def test_wrong_answer_counts_as_failed(monkeypatch):
    w = small_triples()
    right = hb.fermat_F_spectral

    def off_by_one(*args):
        r = right(*args)
        return hb.FermatResult(r.p, r.a, r.b, r.c, r.F + 1, r.residual, r.method)

    monkeypatch.setattr(hb, "fermat_F_spectral", off_by_one)
    r = measure(w, seconds=0.0)
    assert r["failed"] == r["attempted"] > 0


def test_raising_op_counts_as_failed(monkeypatch):
    w = small_triples()

    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(hb, "fermat_F_spectral", broken)
    r = measure(w, seconds=0.0)
    assert r["failed"] == r["attempted"] > 0
