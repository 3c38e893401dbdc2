import dataclasses
import itertools
import json

import mpmath
import numpy as np
import pytest

import heilbronn.fermat as fermat_mod
import heilbronn.modarith as modarith_mod
import heilbronn.spectra as spectra_mod
from heilbronn.modarith import (InvalidInput, build_context, odd_primes_upto, pow_mod,
                               pth_power_table)
from heilbronn.sctheory import structure_tensor_enumerated
from heilbronn.spectra import (Spectrum, bordered_unitary, heilbronn_partition,
                               spectrum)
from heilbronn.fermat import (NAIVE_MAX_PRIME, RESIDUAL_LIMIT, GoldenMismatch,
                              ciik_report, fermat_count_full_naive,
                              fermat_count_naive_reduced, fermat_F_spectral,
                              fermat_table, fourth_moment_check, golden_table,
                              quartic_power_check, structure_block_enumerated,
                              structure_constants_spectral_all,
                              third_moment_check)


@pytest.fixture(scope="module")
def ctx7():
    return build_context(7)


@pytest.fixture(scope="module")
def s7(ctx7):
    return spectrum(ctx7)


class TestSpectralF:
    @pytest.mark.parametrize("p,expected", [(3, 0), (5, 0), (7, 2), (59, 12)])
    def test_reference_values(self, p, expected):
        ctx = build_context(p)
        r = fermat_F_spectral(ctx, spectrum(ctx), 1, 1, 1)
        assert r.F == expected
        assert r.residual < 0.25
        assert r.solution_count == p ** 3 * (p - 1) * expected

    def test_shift_invariance(self, ctx7, s7):
        g = ctx7.g
        for a, b, c in [(1, 1, 1), (2, 3, 5), (1, 4, 2)]:
            F0 = fermat_F_spectral(ctx7, s7, a, b, c).F
            F1 = fermat_F_spectral(ctx7, s7, g * a, g * b, g * c).F
            assert F0 == F1

    def test_rejects_divisible_coefficient(self, ctx7, s7):
        with pytest.raises(InvalidInput):
            fermat_F_spectral(ctx7, s7, 7, 1, 1)

    def test_json_fields(self, ctx7, s7):
        d = json.loads(fermat_F_spectral(ctx7, s7, 1, 1, 1).to_json())
        assert d["method"] == "spectral"
        assert d["solution_count"] == 7 ** 3 * 6 * d["F"]

    def test_residual_bitwise_equal_to_roll_formula(self):
        # the residual is pinned bit for bit to the np.roll formula, so a
        # rewrite of the inner product must multiply and sum the same
        # elements in the same order
        p = 2003
        ctx = build_context(p)
        s = spectrum(ctx)
        v = s.values
        rng = np.random.default_rng(2003)
        units = [u for u in rng.integers(1, p * p, size=256) if u % p][:192]
        assert len(units) == 192
        for a, b, c in zip(units[0::3], units[1::3], units[2::3]):
            i, j, k = (ctx.class_index(int(x)) for x in (a, b, c))
            triple = float((v * np.roll(v, -(j - i) % p)
                            * np.roll(v, -(k - i) % p)).sum())
            f_tilde = 1.0 - 2.0 / p + triple / (p * p)
            r = fermat_F_spectral(ctx, s, int(a), int(b), int(c))
            assert r.F == round(f_tilde)
            assert r.residual == abs(f_tilde - round(f_tilde))


class TestNaiveCounts:
    def test_p3_reduced(self):
        assert fermat_count_naive_reduced(build_context(3), 1, 1, 1) == 0

    def test_p7_reduced(self):
        assert fermat_count_naive_reduced(build_context(7), 1, 1, 1) == 12

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_reduced_divisible_by_p_minus_1(self, p):
        ctx = build_context(p)
        for a, b, c in [(1, 1, 1), (1, 2, p + 1), (2, 2, 1)]:
            assert fermat_count_naive_reduced(ctx, a, b, c) % (p - 1) == 0

    @pytest.mark.parametrize("p,expected", [(3, 0), (5, 0), (7, 4116)])
    def test_full_counts(self, p, expected):
        assert fermat_count_full_naive(build_context(p), 1, 1, 1) == expected

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_full_count_law(self, p):
        # lifting (x+rp, y+sp, z+tp) multiplies the reduced count by p^3
        ctx = build_context(p)
        s = spectrum(ctx)
        for a, b, c in [(1, 1, 1), (1, 1, 2), (2, p + 1, 1)]:
            F = fermat_F_spectral(ctx, s, a, b, c).F
            assert fermat_count_full_naive(ctx, a, b, c) == p ** 3 * (p - 1) * F

    def test_full_count_scale_cap(self):
        with pytest.raises(InvalidInput):
            fermat_count_full_naive(build_context(13), 1, 1, 1)

    def test_reduced_count_scale_cap(self):
        assert NAIVE_MAX_PRIME == 199
        with pytest.raises(InvalidInput, match="p <= 199"):
            fermat_count_naive_reduced(build_context(211), 1, 1, 1)

    def test_rejects_divisible(self):
        with pytest.raises(InvalidInput):
            fermat_count_naive_reduced(build_context(5), 1, 10, 1)


class TestTrivialSolutions:
    """With p | x the congruence drops to b y^p == c z^p mod p^2."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_counts_by_exhaustion(self, p):
        ctx = build_context(p)
        p2 = p * p
        units = [u for u in range(1, p2) if u % p]
        xp = {u: pow_mod(u, p, p2) for u in units}

        def count(b, c):
            return sum(1 for y in units for z in units
                       if b * xp[y] % p2 == c * xp[z] % p2)

        # same class: one z-residue class mod p per y, so p lifts each
        assert count(1, 1) == p * p * (p - 1)
        # distinct classes mod the subgroup: empty
        assert count(ctx.g, 1) == 0


def bordered_product_block(s, i):
    """[U D_i U]_{j,k} for 1 <= j,k <= p: the dense (p+2)^3 route."""
    p = s.p
    U = bordered_unitary(s)
    d = np.concatenate([s.shifted(i), [-1.0, p - 1.0]])
    return (U @ np.diag(d) @ U)[:p, :p]


def exact_block_all_rows(ctx):
    """c(p, ., .) in int64 from one np.bincount over all p rows of indices
    (k' beta + gamma) mod p + k' p, gamma = alpha - 1 + beta, from the lines
    of _quotient_lines: the reference for _exact_block, which counts only
    (p+1)/2 rows and mirrors the rest."""
    p = ctx.p
    alpha, beta = fermat_mod._quotient_lines(ctx)
    gamma = (alpha - 1 + beta) % p
    k = np.arange(p)[:, None]
    idx = (k * beta + gamma) % p + k * p
    return np.bincount(idx.ravel(), minlength=p * p).reshape(p, p)


def perturbed(s):
    """s with every H shifted by 0.15: at p = 13 the rounding residuals of F
    and of the tensor block are then 0.42."""
    return dataclasses.replace(s, values=s.values + 0.15)


def spectrum_at_bits(ctx, bits):
    """The spectrum of ctx from the float64 FFT (bits = 53) or, for more
    bits, from an mpmath.fsum at that precision rounded to float64, with
    each residue g^k * l^p mod p^2 from Python's pow."""
    s = spectrum(ctx)
    if bits == 53:
        return s
    p, p2 = ctx.p, ctx.modulus
    with mpmath.workprec(bits):
        w = 2 * mpmath.pi / p2
        values = [float(mpmath.fsum(
            mpmath.cos(w * (pow(ctx.g, k, p2) * pow(l, p, p2) % p2))
            for l in range(1, p))) for k in range(1, p + 1)]
    return dataclasses.replace(s, values=np.array(values))


class TestSpectralTensor:
    @pytest.mark.parametrize("p", odd_primes_upto(199) + [1009])
    def test_fft_base_equals_bordered_product(self, p):
        ctx = build_context(p)
        s = spectrum(ctx)
        tensor = structure_constants_spectral_all(ctx, s)
        expected = np.rint(bordered_product_block(s, p)).astype(np.int64)
        assert np.array_equal(tensor.base, expected)

    def test_diagonal_matches_entries_p31(self):
        ctx = build_context(31)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx))
        for i in range(1, 32):
            loop = [tensor.c(i, i, k) for k in range(1, 32)]
            assert tensor.diagonal(i).tolist() == loop
        with pytest.raises(IndexError):
            tensor.diagonal(0)

    @pytest.mark.parametrize("i", [0, 32])
    def test_block_rejects_out_of_range_index(self, i):
        # i is a class index in 1..p, as in c and diagonal, not read mod p
        ctx = build_context(31)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx))
        with pytest.raises(IndexError):
            tensor.block(i)
        for k in (1, 7, 31):
            assert np.array_equal(tensor.block(k)[:, 4],
                                  [tensor.c(k, j, 5) for j in range(1, 32)])

    def test_oversized_prime_refused_before_allocating(self, monkeypatch):
        # p = 100,003 would need a 40 GB p x p int32 block
        def no_block(*args):
            raise AssertionError("p x p block allocated")

        monkeypatch.setattr(fermat_mod, "_third_moment_block", no_block)
        monkeypatch.setattr(fermat_mod, "_exact_block", no_block)
        ctx = build_context(100003)
        stub = Spectrum(p=ctx.p, g=ctx.g, values=np.zeros(ctx.p),
                        err_bound=0.0)
        with pytest.raises(InvalidInput, match="int32 tensor block would take 40 GB"):
            structure_constants_spectral_all(ctx, stub)

    def test_debug_mismatch_raises_runtime_error(self, monkeypatch):
        # kept under python -O: one corrupted entry of the FFT block disagrees
        ctx = build_context(13)
        s = spectrum(ctx)
        fft_block = fermat_mod._third_moment_block

        def corrupted(sp):
            block, residual = fft_block(sp)
            block[3, 5] += 1
            return block, residual

        monkeypatch.setattr(fermat_mod, "_third_moment_block", corrupted)
        with pytest.raises(RuntimeError, match="mismatch"):
            structure_constants_spectral_all(ctx, s, debug=True)

    def test_p3_matches_enumeration_all_triples(self):
        ctx = build_context(3)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx), debug=True)
        part = heilbronn_partition(ctx)
        enum = structure_tensor_enumerated(part)
        for i, j, k in itertools.product(range(1, 4), range(1, 4), range(1, 6)):
            assert tensor.c(i, j, k) == enum(i, j, k)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_matches_enumeration(self, p):
        ctx = build_context(p)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx))
        part = heilbronn_partition(ctx)
        enum = structure_tensor_enumerated(part)
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                for k in range(1, p + 3):
                    assert tensor.c(i, j, k) == enum(i, j, k)

    def test_diagonal_sums_p31(self):
        ctx = build_context(31)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx))
        for i in (1, 7, 31):
            assert int(tensor.diagonal(i).sum()) == 29

    def test_matches_F_values_p31(self):
        ctx = build_context(31)
        s = spectrum(ctx)
        tensor = structure_constants_spectral_all(ctx, s)
        g = ctx.g
        p2 = ctx.modulus
        for i, j, k in [(1, 1, 1), (3, 7, 11), (31, 2, 19), (5, 5, 5)]:
            F = fermat_F_spectral(ctx, s,
                                  pow_mod(g, i, p2), pow_mod(g, j, p2),
                                  pow_mod(g, k, p2)).F
            assert tensor.c(i, j, k) == F

    def test_block_enumeration_agrees(self):
        ctx = build_context(13)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx))
        for i in (1, 6, 13):
            block = structure_block_enumerated(ctx, i)
            for j in range(1, 14):
                for k in range(1, 16):
                    assert tensor.c(i, j, k) == block[j - 1, k - 1]

    def test_block_index_is_cyclic_and_nonnegative(self, monkeypatch):
        # classes and labels come from the one partition, not from the table
        ctx = build_context(7)
        block = structure_block_enumerated(ctx, 1)

        def no_table(*args):
            raise AssertionError("pth_power_table called")

        monkeypatch.setattr(modarith_mod, "pth_power_table", no_table)
        assert np.array_equal(structure_block_enumerated(ctx, 8), block)
        assert np.array_equal(structure_block_enumerated(ctx, 0),
                              structure_block_enumerated(ctx, 7))
        with pytest.raises(InvalidInput):
            structure_block_enumerated(ctx, -1)


class TestTensorLaws:
    @pytest.mark.parametrize("p", odd_primes_upto(31))
    def test_permutation_symmetry(self, p):
        ctx = build_context(p)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx))
        for i, j, k in itertools.product(range(1, p + 1), repeat=3):
            base = tensor.c(i, j, k)
            for perm in itertools.permutations((i, j, k)):
                assert tensor.c(*perm) == base

    @pytest.mark.parametrize("p", odd_primes_upto(31))
    def test_row_sums(self, p):
        ctx = build_context(p)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx))
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                if j == i:
                    continue
                total = sum(tensor.c(i, j, k) for k in range(1, p + 3))
                assert total == p - 1

    @pytest.mark.parametrize("p", odd_primes_upto(31))
    def test_border_formulas(self, p):
        # verify the closed forms against raw enumeration
        ctx = build_context(p)
        block = structure_block_enumerated(ctx, p)
        for j in range(1, p + 1):
            assert block[j - 1, p] == (1 if j != p else 0)
            assert block[j - 1, p + 1] == (p - 1 if j == p else 0)

    @pytest.mark.parametrize("p", odd_primes_upto(31))
    def test_diagonal_sum(self, p):
        ctx = build_context(p)
        tensor = structure_constants_spectral_all(ctx, spectrum(ctx))
        for i in range(1, p + 1):
            assert int(tensor.diagonal(i).sum()) == p - 2


class TestExactFallback:
    @pytest.fixture
    def no_spectrum(self, monkeypatch):
        """The fallback must never rebuild the spectrum."""
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum recomputed")

        monkeypatch.setattr(fermat_mod, "spectrum", refuse)

    @pytest.mark.parametrize("bits", [53, 256])
    def test_tensor_falls_back_to_exact(self, no_spectrum, bits):
        # the tensor is always the exact count; debug compares rounded
        # entries, and at +0.15 every FFT entry still rounds to its count
        ctx = build_context(13)
        s = spectrum_at_bits(ctx, bits)
        bad = perturbed(s)
        block = bordered_product_block(bad, 13)
        assert np.abs(block - np.rint(block)).max() > RESIDUAL_LIMIT
        expected = np.rint(bordered_product_block(s, 13)).astype(np.int64)
        for debug in (False, True):
            tensor = structure_constants_spectral_all(ctx, bad, debug=debug)
            assert tensor.origin == "exact"
            assert np.array_equal(tensor.base, expected)

    @pytest.mark.parametrize("bits", [53, 256])
    def test_F_falls_back_to_exact(self, no_spectrum, bits):
        ctx = build_context(13)
        bad = perturbed(spectrum_at_bits(ctx, bits))
        f_tilde = 1 - 2 / 13 + float((bad.values ** 3).sum()) / 13 ** 2
        assert abs(f_tilde - round(f_tilde)) > RESIDUAL_LIMIT
        r = fermat_F_spectral(ctx, bad, 1, 1, 1)
        assert r.method == "exact"
        assert r.F == fermat_count_naive_reduced(ctx, 1, 1, 1) // 12
        # the result keeps the residual that was rejected
        assert r.residual == pytest.approx(abs(f_tilde - round(f_tilde)))

    def test_nan_spectrum_falls_back(self, no_spectrum):
        ctx = build_context(13)
        s = spectrum(ctx)
        bad = dataclasses.replace(s, values=np.full(13, np.nan))
        r = fermat_F_spectral(ctx, bad, 2, 3, 5)
        assert r.method == "exact"
        assert r.F == fermat_F_spectral(ctx, s, 2, 3, 5).F
        # the tensor ignores s unless debug is set, and debug rejects NaN
        tensor = structure_constants_spectral_all(ctx, bad)
        assert tensor.origin == "exact"
        assert np.array_equal(tensor.base,
                              structure_constants_spectral_all(ctx, s).base)
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError,
                                                          match="mismatch"):
            structure_constants_spectral_all(ctx, bad, debug=True)

    def test_negative_tensor_entry_falls_back(self, no_spectrum, monkeypatch):
        ctx = build_context(13)
        s = spectrum(ctx)
        clean = structure_constants_spectral_all(ctx, s)
        negative = clean.base.copy()
        negative[0, 0] = -1
        monkeypatch.setattr(fermat_mod, "_third_moment_block",
                            lambda sp: (negative, 0.0))
        tensor = structure_constants_spectral_all(ctx, s)
        assert tensor.origin == "exact"
        assert np.array_equal(tensor.base, clean.base)
        with pytest.raises(RuntimeError, match="mismatch"):
            structure_constants_spectral_all(ctx, s, debug=True)

    def test_debug_checks_the_spectrum_given(self):
        # U D_1 U is formed from the spectrum given: shifted by 0.2, the
        # entries move by up to 0.55, which forces the exact block and
        # rounds U D_1 U away from it
        ctx = build_context(13)
        s = spectrum(ctx)
        bad = dataclasses.replace(s, values=s.values + 0.2)
        with pytest.raises(RuntimeError, match="mismatch"):
            structure_constants_spectral_all(ctx, bad, debug=True)
        assert structure_constants_spectral_all(ctx, bad).origin == "exact"

    @pytest.mark.parametrize("p", [101, 2003])
    def test_exact_F_matches_spectral(self, p):
        ctx = build_context(p)
        s = spectrum(ctx)
        rng = np.random.default_rng(p)
        units = [int(u) for u in rng.integers(1, p * p, size=200) if u % p][:150]
        for a, b, c in zip(units[0::3], units[1::3], units[2::3]):
            r = fermat_F_spectral(ctx, s, a, b, c)
            assert r.method == "spectral"
            assert fermat_mod._fermat_F_exact(ctx, a, b, c) == r.F

    @pytest.mark.parametrize("p", odd_primes_upto(199) + [1009, 2003])
    def test_exact_block_matches_fft(self, p):
        ctx = build_context(p)
        s = spectrum(ctx)
        fft_block, residual = fermat_mod._third_moment_block(s)
        assert residual < RESIDUAL_LIMIT
        tensor = structure_constants_spectral_all(ctx, s)
        assert tensor.origin == "exact"
        assert np.array_equal(fermat_mod._exact_block(ctx), fft_block)
        assert np.array_equal(tensor.base, fft_block)

    @pytest.mark.parametrize("p", [65537, 100003])
    def test_exact_F_past_int64_p4(self, p):
        # p^4 >= 2^63 here; the reference divides the congruence by y^p and
        # tests v in A as T[v mod p] == v, in Python ints
        ctx = build_context(p)
        p2 = p * p
        T = pth_power_table(p).tolist()
        rng = np.random.default_rng(p)
        units = [int(u) for u in rng.integers(1, p2, size=8) if u % p][:3]
        for a, b, c in [(1, 1, 1)] + list(zip(units[0::3], units[1::3], units[2::3])):
            a2, b2 = (x * pow(c, -1, p2) % p2 for x in (a, b))
            expected = sum(1 for u in T[1:]
                           if (v := (a2 * u + b2) % p2) % p and T[v % p] == v)
            assert fermat_mod._fermat_F_exact(ctx, a, b, c) == expected


class TestExactBlock:
    """The tensor's one route: p-2 permutation matrices from Fermat
    quotients, (p+1)/2 rows counted in batches of _ROW_BLOCK rows and the
    rest mirrored by c(p,j,k) = c(p,j-k,-k)."""

    @pytest.mark.parametrize("p", odd_primes_upto(31))
    def test_equals_enumeration(self, p):
        ctx = build_context(p)
        block = structure_block_enumerated(ctx, p)[:, :p]
        assert np.array_equal(exact_block_all_rows(ctx), block)
        assert np.array_equal(fermat_mod._exact_block(ctx), block)

    @pytest.mark.parametrize("p", odd_primes_upto(400) + [1009, 2003])
    def test_equals_all_rows_reference(self, p):
        ctx = build_context(p)
        block = fermat_mod._exact_block(ctx)
        assert block.dtype == np.int32
        assert np.array_equal(block, exact_block_all_rows(ctx))

    @pytest.mark.parametrize("p", odd_primes_upto(31))
    def test_fermat_symmetry_on_enumeration(self, p):
        """c(p,j,k) = c(p,j-k,-k), indices mod p with p read as 0, on the
        exhaustive counts, so independently of both block builders.

        c(p,j,k) counts x + y = z with x in A = X_p, y in X_j, z in X_k.
        Since -1 = (-1)^p lies in A, z + (-y) = x has the same shape, and
        scaling it by an element of X_{-k} moves z into A: the congruence
        a x^p + b y^p == c z^p is symmetric in (a, b, c).  _exact_block
        mirrors half its rows by this identity."""
        ctx = build_context(p)
        block = structure_block_enumerated(ctx, p)[:, :p]  # [j-1, k-1]
        j = np.arange(1, p + 1)[:, None]
        k = np.arange(1, p + 1)[None, :]
        assert np.array_equal(block, block[(j - k - 1) % p, (-k - 1) % p])

    @pytest.mark.parametrize("p", [3, 5, 61, 67, 127, 131, 193])
    def test_row_block_edges(self, p):
        # (p-1)/2 rows are counted in batches besides row p-1: 1 and 2 rows
        # at p = 3 and 5; 61 fills one batch of 32 partly, 67 spills 1 row
        # into a second, 127 fills all but one row of two, 131 spills into
        # a third and 193 fills three exactly; rows reach each next batch
        # by addition, and each batch mirrors its own rows
        assert fermat_mod._ROW_BLOCK == 32
        ctx = build_context(p)
        base = structure_constants_spectral_all(ctx, spectrum(ctx)).base
        assert np.array_equal(base, structure_block_enumerated(ctx, p)[:, :p])
        assert (base.sum(axis=0) == p - 2).all()

    def test_counts_half_the_rows(self, monkeypatch):
        # rows 0..(p-3)/2 and p-1 are counted, p-2 lines each; the other
        # (p-1)/2 rows are copies
        p = 1009
        ctx = build_context(p)
        bincount = np.bincount
        counted = []

        def counting(x, *args, **kwargs):
            counted.append(len(x))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(fermat_mod.np, "bincount", counting)
        fermat_mod._exact_block(ctx)
        assert 0 < sum(counted) <= (p + 1) // 2 * (p - 2)

    def test_uses_no_fft_and_no_labels(self, monkeypatch):
        class Refuse:
            def __getattr__(self, name):
                raise AssertionError(f"np.fft.{name} called")

        def no_labels(*args):
            raise AssertionError("residue labels built")

        ctx = build_context(101)
        s = spectrum(ctx)
        expected = fermat_mod._third_moment_block(s)[0]
        monkeypatch.setattr(fermat_mod.np, "fft", Refuse())
        monkeypatch.setattr(spectra_mod, "heilbronn_partition", no_labels)
        monkeypatch.setattr(fermat_mod, "heilbronn_partition", no_labels)
        tensor = structure_constants_spectral_all(ctx, s)
        assert np.array_equal(tensor.base, expected)
        with pytest.raises(AssertionError, match="np.fft"):
            structure_constants_spectral_all(ctx, s, debug=True)

    def test_shifted_spectrum_regression_p13(self):
        # every H shifted by +0.3 rounds one FFT entry to a wrong integer
        # with residual 0.23, which a rounding gate accepts: the tensor
        # stays exact, and debug mode reports the wrong entry
        ctx = build_context(13)
        s = spectrum(ctx)
        bad = dataclasses.replace(s, values=s.values + 0.3)
        fft_block, residual = fermat_mod._third_moment_block(bad)
        assert residual < RESIDUAL_LIMIT
        expected = np.rint(bordered_product_block(s, 13)).astype(np.int64)
        assert not np.array_equal(fft_block, expected)
        assert np.array_equal(structure_constants_spectral_all(ctx, bad).base,
                              expected)
        with pytest.raises(RuntimeError, match="mismatch"):
            structure_constants_spectral_all(ctx, bad, debug=True)


class TestMoments:
    def test_third_moment_needs_no_residue_table(self, monkeypatch):
        def no_table(ctx):
            raise AssertionError("heilbronn_partition called")

        monkeypatch.setattr(fermat_mod, "heilbronn_partition", no_table)
        ctx = build_context(31)
        assert third_moment_check(ctx, spectrum(ctx), 31, 5, 17).passed

    def test_third_moment_p7(self, ctx7, s7):
        chk = third_moment_check(ctx7, s7, 7, 7, 7)
        assert chk.passed
        assert abs(chk.lhs - chk.rhs) < 1e-6

    def test_third_moment_p3_known_value(self):
        ctx = build_context(3)
        s = spectrum(ctx)
        chk = third_moment_check(ctx, s, 3, 3, 1)
        # c(3,3,1) = 1 from enumeration, so rhs = 9*(1-1) + 6
        assert chk.rhs == 6.0
        assert chk.passed

    def test_third_moment_all_triples_p13(self):
        ctx = build_context(13)
        s = spectrum(ctx)
        for i, j, k in itertools.product((1, 4, 13), repeat=3):
            assert third_moment_check(ctx, s, i, j, k).passed

    def test_fourth_moment_cases(self):
        ctx = build_context(13)
        s = spectrum(ctx)
        tensor = structure_constants_spectral_all(ctx, s)
        cases = [(2, 3, 2, 3),    # i=k, j=l
                 (2, 3, 5, 7),    # i!=k, j!=l
                 (2, 3, 2, 7),    # i=k only
                 (2, 3, 5, 3)]    # j=l only
        for i, j, k, l in cases:
            chk = fourth_moment_check(ctx, s, tensor, i, j, k, l)
            assert chk.passed, (i, j, k, l, chk)

    def test_fourth_moment_exhaustive_p7(self, ctx7, s7):
        tensor = structure_constants_spectral_all(ctx7, s7)
        for i, j, k, l in itertools.product(range(1, 8), repeat=4):
            assert fourth_moment_check(ctx7, s7, tensor, i, j, k, l).passed

    def test_quartic_power_identity(self):
        for p in (3, 7, 31):
            ctx = build_context(p)
            s = spectrum(ctx)
            tensor = structure_constants_spectral_all(ctx, s)
            chk = quartic_power_check(ctx, s, tensor)
            assert chk.passed
            # i-independence of the right-hand side
            assert quartic_power_check(ctx, s, tensor, i=1).rhs == chk.rhs


class TestDiagonalBounds:
    def test_p3_max(self):
        ctx = build_context(3)
        rep = ciik_report(structure_constants_spectral_all(ctx, spectrum(ctx)))
        assert rep.max_ciik == 1
        assert rep.passed

    def test_p31_sum(self):
        ctx = build_context(31)
        rep = ciik_report(structure_constants_spectral_all(ctx, spectrum(ctx)))
        assert rep.diag_sum == 29
        assert rep.passed

    def test_p101_level_counts(self):
        ctx = build_context(101)
        rep = ciik_report(structure_constants_spectral_all(ctx, spectrum(ctx)))
        assert rep.level_counts[0.5] < 101 ** 0.5
        assert rep.passed


class TestGoldenTable:
    def test_fixture_shape(self):
        table = golden_table()
        assert len(table) == 174
        assert table[0] == (3, 0)
        assert table[-1] == (1039, 8)
        assert dict(table)[59] == 12 and dict(table)[701] == 12

    def test_small_run(self):
        rows = fermat_table(100)
        assert len(rows) == 24
        assert all(r.match for r in rows)
        assert next(r.F for r in rows if r.p == 59) == 12

    def test_single_row(self):
        rows = fermat_table(3)
        assert len(rows) == 1
        assert rows[0].p == 3 and rows[0].F == 0 and rows[0].match

    def test_strict_raises_on_forced_mismatch(self, monkeypatch):
        import heilbronn.fermat as fm
        monkeypatch.setattr(fm, "golden_table", lambda: [(3, 99)])
        with pytest.raises(GoldenMismatch):
            fm.fermat_table(10)
