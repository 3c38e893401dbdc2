import csv
import dataclasses
import io
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from heilbronn.modarith import (InvalidInput, build_context, odd_primes_upto,
                                pow_mod, primitive_roots_mod_p2)
from heilbronn.sctheory import (SuperclassPartition, UnitAction, build_U,
                                superclasses)
import heilbronn.spectra as spectra_mod
from heilbronn.spectra import (_autocorrelation, bordered_unitary,
                               heilbronn_partition, heilbronn_sum,
                               heilbronn_table, spectrum, subgroup_pth_powers,
                               verify_spectrum_identities)


def direct_sum(p, a):
    """Independent oracle: complex exponential sum, no cosine shortcut.

    Exponents are exact Python ints reduced mod p^2 so the phase stays in
    a floating-friendly range.
    """
    return sum(complex(math.cos(2 * math.pi * (a * l ** p % p ** 2) / p ** 2),
                       math.sin(2 * math.pi * (a * l ** p % p ** 2) / p ** 2))
               for l in range(1, p))


def mp_heilbronn_sum(p, a):
    """Reference oracle: H_p(a) summed at 256 bits with mpmath.fsum, each
    residue a * l^p mod p^2 from Python's pow, not the context's table."""
    p2 = p * p
    with mpmath.workprec(256):
        w = 2 * mpmath.pi / p2
        return float(mpmath.fsum(mpmath.cos(w * (a * pow(l, p, p2) % p2))
                                 for l in range(1, p)))


def float64_tol(p):
    """Round-off of a float64 sum of p - 1 unit-modulus terms."""
    return 4 * p * math.log2(p) * np.finfo(np.float64).eps


class TestHeilbronnSum:
    def test_p3_direct(self):
        ctx = build_context(3)
        v, err = heilbronn_sum(ctx, 1)
        assert v == pytest.approx(2 * math.cos(2 * math.pi / 9), abs=1e-12)
        assert err > 0

    def test_zero_argument(self):
        for p in (3, 7, 13):
            v, _ = heilbronn_sum(build_context(p), 0)
            assert v == pytest.approx(p - 1, abs=1e-10)

    def test_multiple_of_p(self):
        for p in (5, 11):
            ctx = build_context(p)
            for m in (1, 2, p - 1):
                v, _ = heilbronn_sum(ctx, p * m)
                assert v == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_matches_complex_oracle(self, p):
        ctx = build_context(p)
        for a in range(1, p * p, 7):
            v, _ = heilbronn_sum(ctx, a)
            z = direct_sum(p, a)
            assert abs(z.imag) < 1e-9
            assert v == pytest.approx(z.real, abs=1e-9)

    def test_periodicity_in_exponent(self):
        # H_p(g^k) depends on k mod p only
        for p in (5, 11, 31, 101):
            ctx = build_context(p)
            for k in range(1, 2 * p + 1):
                a1 = pow_mod(ctx.g, k, ctx.modulus)
                a2 = pow_mod(ctx.g, k + p, ctx.modulus)
                v1, e1 = heilbronn_sum(ctx, a1)
                v2, e2 = heilbronn_sum(ctx, a2)
                assert abs(v1 - v2) <= max(2 * max(e1, e2), 1e-9)

    @pytest.mark.parametrize("p", [7, 13, 101])
    def test_matches_256_bit_oracle(self, p):
        ctx = build_context(p)
        for l in range(1, p + 1):
            a = pow(ctx.g, l, ctx.modulus)
            v, _ = heilbronn_sum(ctx, a)
            assert abs(v - mp_heilbronn_sum(p, a)) <= float64_tol(p)

    def test_unpaired_sines_raise(self):
        # an explicit check, kept under python -O
        ctx = dataclasses.replace(build_context(13),
                                  pth_powers=np.array([0] + [1] * 12, dtype=np.int64))
        with pytest.raises(RuntimeError, match="pair off"):
            heilbronn_sum(ctx, 5)

    def test_trivial_bound(self):
        ctx = build_context(31)
        for a in range(0, 31 * 31, 13):
            v, _ = heilbronn_sum(ctx, a)
            assert abs(v) <= 31 - 1 + 1e-9


class TestSpectrum:
    def test_p3_values(self):
        ctx = build_context(3)
        s = spectrum(ctx)
        for l in range(1, 4):
            a = pow_mod(ctx.g, l, 9)
            assert s.value_at(l) == pytest.approx(direct_sum(3, a).real, abs=1e-10)

    @pytest.mark.parametrize("p", odd_primes_upto(101) + [46349])
    def test_fft_matches_direct_cosine_sum(self, p):
        # Both sides round a sum of p-1 unit-modulus terms in float64.
        tol = float64_tol(p)
        ctx = build_context(p)
        s = spectrum(ctx)
        # every exponent for small p; 8 of them at p = 46349, where p^2 > 2^31
        ls = range(1, p + 1) if p <= 101 else (1, 2, 3, 1000, 23174, p - 2, p - 1, p)
        for l in ls:
            direct, _ = heilbronn_sum(ctx, pow_mod(ctx.g, l, ctx.modulus))
            assert abs(s.value_at(l) - direct) <= tol

    def test_sum_vanishes(self):
        s = spectrum(build_context(31))
        assert abs(s.values.sum()) <= 31 * s.err_bound

    def test_direct_sum_past_int64_products(self):
        # a * l^p reaches p^4 > 2^63 at p = 65537; int64 products would wrap
        p = 65537
        ctx = build_context(p)
        s = spectrum(ctx)
        tol = float64_tol(p)
        for l in (1, 32768, p):
            direct, _ = heilbronn_sum(ctx, pow(ctx.g, l, ctx.modulus))
            assert abs(s.value_at(l) - direct) <= tol

    @pytest.mark.parametrize("p", [7, 13, 101])
    def test_matches_256_bit_oracle(self, p):
        ctx = build_context(p)
        s = spectrum(ctx)
        for l in range(1, p + 1):
            exact = mp_heilbronn_sum(p, pow(ctx.g, l, ctx.modulus))
            assert abs(s.value_at(l) - exact) <= float64_tol(p)

    def test_other_root_permutes_values(self):
        # a different primitive root reindexes the spectrum by a unit multiplier
        p = 11
        g1, g2 = primitive_roots_mod_p2(p, 2)
        s1 = spectrum(build_context(p, g=g1))
        s2 = spectrum(build_context(p, g=g2))
        ctx1 = build_context(p, g=g1)
        t = ctx1.dlog_of(g2)
        expected = [s1.value_at(t * l) for l in range(1, p + 1)]
        assert np.abs(np.array(expected) - s2.values).max() < 1e-9
        assert sorted(np.round(s1.values, 6)) == sorted(np.round(s2.values, 6))

    def test_csv_roundtrip(self):
        s = spectrum(build_context(7))
        rows = list(csv.DictReader(io.StringIO(s.to_csv())))
        assert len(rows) == 7
        assert [int(r["ell"]) for r in rows] == list(range(1, 8))
        vals = [float(r["value"]) for r in rows]
        assert vals == [float(v) for v in s.values]

    def test_json_roundtrip(self):
        s = spectrum(build_context(5))
        d = json.loads(s.to_json())
        assert d["p"] == 5 and d["g"] == s.g
        assert set(d) == {"p", "g", "err_bound", "values"}
        assert d["values"] == [float(v) for v in s.values]


class TestSpectrumIdentities:
    def test_p7_residuals_small(self):
        rep = verify_spectrum_identities(spectrum(build_context(7)))
        assert rep.sum_residual < 1e-9
        assert rep.norm_residual < 1e-9
        assert rep.dot_residual < 1e-9
        assert rep.passed

    def test_p3_norm(self):
        s = spectrum(build_context(3))
        assert float((s.values ** 2).sum()) == pytest.approx(6, abs=1e-9)

    @pytest.mark.parametrize("p", [3, 13, 101])
    def test_autocorrelation_matches_rolled_dot_products(self, p):
        v = spectrum(build_context(p)).values
        rng = np.random.default_rng(p)
        for w in (v, rng.standard_normal(p)):
            # round-off of a length-p transform pair, relative to |w|^2
            tol = 4 * p * math.log2(p) * np.finfo(np.float64).eps * float(w @ w)
            acf = _autocorrelation(w)
            explicit = [float((w * np.roll(w, -i)).sum()) for i in range(p)]
            assert np.abs(acf - explicit).max() <= tol

    def test_zero_shift_gives_norm_not_minus_p(self):
        s = spectrum(build_context(7))
        assert float((s.values * s.values).sum()) == pytest.approx(42, abs=1e-9)


class TestSubgroup:
    @pytest.mark.parametrize("p", odd_primes_upto(101))
    def test_pth_powers_form_subgroup(self, p):
        A = subgroup_pth_powers(build_context(p))
        assert len(A) == p - 1
        As = set(A)
        p2 = p * p
        assert all(x * y % p2 in As for x in A for y in A)

    def test_partition_labels(self):
        for p in (3, 5, 7, 11):
            ctx = build_context(p)
            part = heilbronn_partition(ctx)
            assert part.num_classes == p + 2
            assert part.members(p + 1).tolist() == [p * m for m in range(1, p)]
            assert part.members(p + 2).tolist() == [0]
            assert part.members(p).tolist() == subgroup_pth_powers(ctx)


class TestHeilbronnPartition:
    @pytest.mark.parametrize("p", odd_primes_upto(101))
    def test_matches_orbit_closure(self, p):
        for g in primitive_roots_mod_p2(p, 2):
            ctx = build_context(p, g=g)
            part = heilbronn_partition(ctx)
            p2 = p * p
            closure = superclasses(UnitAction(n=p2, generators=(pow(g, p, p2),)))
            classes = [tuple(part.members(i).tolist()) for i in range(1, p + 3)]
            assert set(classes) == {tuple(closure.members(i).tolist())
                                    for i in range(1, closure.num_classes + 1)}
            assert part.num_classes == p + 2
            for i, cls in enumerate(classes, start=1):
                assert all(part.labels[x] == i for x in cls)
            assert all(part.labels[u] == ctx.class_index(u)
                       for u in range(1, p2) if u % p)

    @pytest.mark.parametrize("p", odd_primes_upto(101))
    def test_members_are_the_sorted_cosets(self, p):
        p2 = p * p
        A = [pow(m, p, p2) for m in range(1, p)]
        for g in primitive_roots_mod_p2(p, 2):
            part = heilbronn_partition(build_context(p, g=g))
            expected = [tuple(sorted(pow(g, i, p2) * a % p2 for a in A))
                        for i in range(1, p + 1)]
            expected += [tuple(range(p, p2, p)), (0,)]
            assert [tuple(part.members(i).tolist())
                    for i in range(1, p + 3)] == expected

    def test_labels_are_read_only_uint16(self):
        part = heilbronn_partition(build_context(13))
        assert part.labels.dtype == np.uint16
        assert not part.labels.flags.writeable

    def test_holds_at_most_16_bytes_per_residue(self):
        # the uint16 labels and the int64 argsort: 10 bytes per residue
        ctx = build_context(1009)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            part = heilbronn_partition(ctx)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert part.n == 1009 ** 2
        assert held <= 16 * part.n

    def test_layout(self):
        ctx = build_context(5)
        cls = heilbronn_partition(ctx).labels
        assert cls[0] == 7  # X_{p+2} = {0}
        assert all(cls[5 * m] == 6 for m in range(1, 5))
        assert cls[ctx.g % 25] == 1

    def test_rejects_int64_overflow(self):
        # 55109 is the least prime with p**4 > 2**63 - 1
        with pytest.raises(InvalidInput, match="int64"):
            heilbronn_partition(build_context(55109))


def elementwise_U(s):
    """The bordered U entry by entry, as a Python double loop."""
    p = s.p
    sq = math.sqrt(p - 1)
    U = np.empty((p + 2, p + 2))
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            U[i - 1, j - 1] = s.value_at(i + j) / p
    U[:p, p] = -1.0 / p
    U[:p, p + 1] = sq / p
    U[p, :p] = -1.0 / p
    U[p, p] = (p - 1.0) / p
    U[p, p + 1] = sq / p
    U[p + 1, :p + 1] = sq / p
    U[p + 1, p + 1] = 1.0 / p
    return U


class TestHeilbronnTable:
    @pytest.mark.parametrize("p", [3, 13, 101])
    def test_one_bordered_U(self, p):
        ctx = build_context(p)
        s = spectrum(ctx)
        U = elementwise_U(s)
        assert np.array_equal(bordered_unitary(s), U)
        table = heilbronn_table(ctx, s)
        assert np.array_equal(table.U, U)
        sigma_block = [[s.value_at(i + j) for j in range(1, p + 1)]
                       for i in range(1, p + 1)]
        assert np.array_equal(table.sigma[:p, :p], np.array(sigma_block))

    def test_unitary_p11(self):
        ctx = build_context(11)
        table = heilbronn_table(ctx, spectrum(ctx))
        N = 13
        assert np.abs(table.U @ table.U.T - np.eye(N)).max() < 1e-8

    def test_bottom_right_entry(self):
        ctx = build_context(7)
        table = heilbronn_table(ctx, spectrum(ctx))
        assert table.U[-1, -1] == pytest.approx(1 / 7)

    def test_last_sigma_row_all_ones(self):
        ctx = build_context(5)
        table = heilbronn_table(ctx, spectrum(ctx))
        assert np.array_equal(table.sigma[-1], np.ones(7))

    def test_border_pattern(self):
        ctx = build_context(7)
        p = 7
        table = heilbronn_table(ctx, spectrum(ctx))
        assert np.all(table.sigma[:p, p] == -1)
        assert np.all(table.sigma[:p, p + 1] == p - 1)
        assert np.all(table.sigma[p, :p] == -1)
        assert table.sigma[p, p] == p - 1

    def test_mislabelled_partition_raises(self, monkeypatch):
        # X_1 and X_2 swapped: the same orbits under the wrong labels
        ctx = build_context(7)
        s = spectrum(ctx)
        labels = heilbronn_partition(ctx).labels
        swapped = np.array([0, 2, 1, *range(3, 10)])[labels]
        monkeypatch.setattr(spectra_mod, "heilbronn_partition",
                            lambda ctx: SuperclassPartition(swapped))
        with pytest.raises(InvalidInput, match="class labeling"):
            heilbronn_table(ctx, s)

    @pytest.mark.parametrize("p", [101, 1009, 2003])
    def test_cross_check_fails_on_a_spectrum_off_by_1e6(self, p):
        # the tolerance is absolute; the largest |sigma| is p - 1
        ctx = build_context(p)
        s = spectrum(ctx)
        bad = dataclasses.replace(s, values=s.values + 1e-6)
        with pytest.raises(InvalidInput, match="class labeling"):
            heilbronn_table(ctx, bad)

    def test_matches_generic_engine(self):
        # the pattern assembly cross-validates inside heilbronn_table;
        # check the U entries here as the second code path
        ctx = build_context(7)
        s = spectrum(ctx)
        table = heilbronn_table(ctx, s)
        generic = build_U(heilbronn_partition(ctx))
        assert np.abs(generic.U.real - table.U).max() < 1e-8
        assert np.abs(generic.U.imag).max() < 1e-10
