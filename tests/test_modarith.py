import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heilbronn.modarith import (InvalidInput, build_context, is_odd_prime,
                                log_level_sets, odd_primes_upto, pow_mod,
                                primitive_root_mod_p2, primitive_roots_mod_p2,
                                pth_power_table, truncated_log)


def slow_pow(base, exp, mod):
    r = 1 % mod
    for _ in range(exp):
        r = r * base % mod
    return r


def horner_truncated_log(p, u):
    """Sum of u^k / k over k = 1..p-1 mod p by p-1 Horner steps, with
    inv(k) = -(p // k) * inv(p mod k): the oracle for truncated_log."""
    u = u % p
    inv = [0, 1] + [0] * (p - 2)
    for k in range(2, p):
        inv[k] = -(p // k) * inv[p % k] % p
    acc = 0
    for k in range(p - 1, 0, -1):
        acc = (acc * u + inv[k]) % p
    return acc * u % p


class TestPowMod:
    def test_identity_exponent(self):
        assert pow_mod(17, 1, 9) == 17 % 9

    def test_small_product(self):
        assert pow_mod(2, 3, 9) == 8

    def test_derived_value(self):
        assert slow_pow(2, 13, 169) == 80
        assert pow_mod(2, 13, 169) == 80

    def test_zero_exponent(self):
        assert pow_mod(5, 0, 7) == 1

    @given(st.integers(0, 49), st.integers(0, 49), st.integers(2, 99))
    def test_matches_iterated_multiplication(self, base, exp, mod):
        assert pow_mod(base, exp, mod) == slow_pow(base, exp, mod)

    def test_rejects_bad_modulus(self):
        with pytest.raises(InvalidInput):
            pow_mod(2, 3, 1)
        with pytest.raises(InvalidInput):
            pow_mod(2, -1, 9)


def multiplicative_order(g, n):
    x, k = g % n, 1
    while x != 1:
        x = x * g % n
        k += 1
    return k


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p,expected", [(3, 2), (5, 2), (7, 3)])
    def test_known_roots(self, p, expected):
        g = primitive_root_mod_p2(p)
        assert g == expected
        assert multiplicative_order(g, p * p) == p * (p - 1)

    @pytest.mark.parametrize("p", odd_primes_upto(101))
    def test_full_order(self, p):
        g = primitive_root_mod_p2(p)
        assert multiplicative_order(g, p * p) == p * (p - 1)

    def test_two_distinct_roots(self):
        g1, g2 = primitive_roots_mod_p2(13, 2)
        assert g1 != g2
        assert multiplicative_order(g2, 169) == 13 * 12

    def test_rejects_non_prime(self):
        for bad in (9, 4, 1, -3):
            with pytest.raises(InvalidInput):
                primitive_root_mod_p2(bad)


class TestBuildContext:
    def test_p3_table(self):
        ctx = build_context(3)
        assert ctx.g == 2
        assert ctx.dlog_of(2) == 1
        assert ctx.dlog_of(4) == 2
        assert ctx.dlog_of(8) == 3

    def test_identity_has_full_order(self):
        ctx = build_context(7)
        assert ctx.dlog_of(1) == 7 * 6

    def test_table_size(self):
        ctx = build_context(5)
        assert len({ctx.dlog_of(u) for u in range(25) if u % 5}) == 20
        with pytest.raises(InvalidInput):
            ctx.dlog_of(10)

    def test_dlog_is_bijective_inverse(self):
        ctx = build_context(11)
        seen = set()
        for u in range(1, 121):
            if u % 11 == 0:
                continue
            e = ctx.dlog_of(u)
            assert pow_mod(ctx.g, e, 121) == u
            seen.add(e)
        assert seen == set(range(1, 111))

    def test_rejects_non_prime(self):
        with pytest.raises(InvalidInput):
            build_context(15)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("which", [0, 1])
    def test_matches_brute_force_walk(self, p, which):
        g = primitive_roots_mod_p2(p, 2)[which]
        ctx = build_context(p, g=g)
        p2, x = p * p, 1
        seen = set()
        for e in range(1, p * (p - 1) + 1):
            x = x * g % p2
            assert ctx.dlog_of(x) == e
            assert ctx.class_index(x) == (e % p or p)
            seen.add(x)
        assert len(seen) == p * (p - 1)

    @pytest.mark.parametrize("p,g", [
        (29, 14),  # primitive root mod 29, but 14**28 == 1 mod 29**2
        (13, 3),   # order 3 mod 13
        (7, 14),   # divisible by p
        (7, 0),
    ])
    def test_rejects_g_without_full_order(self, p, g):
        with pytest.raises(InvalidInput):
            build_context(p, g=g)


class TestPthPowerCriterion:
    """x^p == y^p mod p^2 exactly when x == y mod p."""

    @pytest.mark.parametrize("p", odd_primes_upto(61))
    def test_criterion(self, p):
        p2 = p * p
        by_residue = {}
        for x in range(1, p2):
            if x % p == 0:
                continue
            by_residue.setdefault(x % p, set()).add(pow_mod(x, p, p2))
        # constant on residue classes mod p, distinct across them
        assert all(len(v) == 1 for v in by_residue.values())
        values = [next(iter(v)) for v in by_residue.values()]
        assert len(set(values)) == p - 1


class TestPthPowerTable:
    @pytest.mark.parametrize("p", odd_primes_upto(199) + [2003])
    def test_matches_builtin_pow(self, p):
        T = pth_power_table(p)
        assert T.dtype == np.int64
        assert T.tolist() == [pow(m, p, p * p) for m in range(p)]

    @pytest.mark.parametrize("p", odd_primes_upto(199) + [2003])
    def test_negation_symmetry(self, p):
        # (p - m)^p == -m^p mod p^2
        T = pth_power_table(p)
        m = np.arange(1, p)
        assert not ((T[p - m] + T[m]) % (p * p)).any()

    @pytest.mark.parametrize("p", [1, 2, 9, 15])
    def test_rejects_non_odd_prime(self, p):
        with pytest.raises(InvalidInput):
            pth_power_table(p)


class TestContextPthPowers:
    """build_context's walk z = (g^p)^e mod p^2 against the pow loop."""

    def test_matches_pow_loop_below_3000(self):
        for p in odd_primes_upto(3000):
            T = pth_power_table(p)
            for g in primitive_roots_mod_p2(p, 2):
                ctx = build_context(p, g=g)
                assert ctx.pth_powers.dtype == np.int64
                assert np.array_equal(ctx.pth_powers, T), (p, g)

    @pytest.mark.parametrize("p", [65537, 100003])
    def test_matches_pow_loop_large(self, p):
        T = pth_power_table(p)
        for g in primitive_roots_mod_p2(p, 2):
            assert np.array_equal(build_context(p, g=g).pth_powers, T)

    def test_read_only(self):
        ctx = build_context(13)
        with pytest.raises(ValueError):
            ctx.pth_powers[2] = 0
        assert ctx.pth_powers[2] == pow(2, 13, 169)

    def test_contexts_from_same_root_compare_equal(self):
        g = primitive_roots_mod_p2(101, 2)[1]
        assert build_context(101, g=g) == build_context(101, g=g)
        assert build_context(101) != build_context(101, g=g)

    @pytest.mark.parametrize("p,g", [
        (1009, pow(11, 1009, 1009 ** 2)),  # primitive root mod p, q(g) = 0
        (1009, 4),                          # a square: order (p-1)/2 mod p
        (1009, 1009 * 11),                  # divisible by p
    ])
    def test_bad_root_still_raises(self, p, g):
        with pytest.raises(InvalidInput, match="does not have order"):
            build_context(p, g=g)


class TestTruncatedLog:
    def test_direct_sum_p5(self):
        # 1 + 1/2 + 1/3 + 1/4 = 1 + 3 + 2 + 4 = 10 = 0 mod 5
        assert truncated_log(5, 1) == 0

    def test_direct_sum_p3(self):
        assert truncated_log(3, 2) == (2 + 2 * 4) % 3

    def test_rejects_multiple_of_p(self):
        with pytest.raises(InvalidInput):
            truncated_log(7, 14)

    @pytest.mark.parametrize("p", odd_primes_upto(199))
    def test_array_matches_scalar_calls(self, p):
        u = np.arange(1, p)
        assert truncated_log(p, u).tolist() == [truncated_log(p, x) for x in range(1, p)]

    def test_array_rejects_multiple_of_p(self):
        with pytest.raises(InvalidInput):
            truncated_log(7, np.array([1, 2, 14, 3]))

    @pytest.mark.parametrize("p", odd_primes_upto(61))
    def test_binomial_identity(self, p):
        # 1 - (1-u)^p == u^p + p L_p(u) mod p^2 for u != 0, 1
        p2 = p * p
        for u in range(2, p):
            lhs = (1 - pow_mod((1 - u) % p2, p, p2)) % p2
            rhs = (pow_mod(u, p, p2) + p * truncated_log(p, u)) % p2
            assert lhs == rhs

    @pytest.mark.parametrize("p", odd_primes_upto(61))
    def test_functional_identity(self, p):
        # L_p(u) == -u^p L_p(u^-1) mod p for all units
        for u in range(1, p):
            u_inv = pow_mod(u, p - 2, p)
            lhs = truncated_log(p, u)
            rhs = (-pow_mod(u, p, p) * truncated_log(p, u_inv)) % p
            assert lhs == rhs


class TestBlockedTruncatedLog:
    """The blocked evaluation against the p-step Horner oracle."""

    @pytest.mark.parametrize("p", odd_primes_upto(499) + [1009, 2003])
    def test_array_matches_oracle(self, p):
        u = np.arange(1, p, dtype=np.int64)
        L = truncated_log(p, u)
        assert L.dtype == np.int64
        assert np.array_equal(L, horner_truncated_log(p, u))

    def test_slices_match_oracle(self):
        # M = 257 at p = 65,537, so 4,096 units need two slices of the
        # 2^20-entry power table; a 2-D input keeps its shape
        p = 65537
        u = np.arange(1, p, 16, dtype=np.int64).reshape(64, 64)
        assert np.array_equal(truncated_log(p, u), horner_truncated_log(p, u))

    @pytest.mark.parametrize("p", [3, 5, 7, 1009])
    def test_int_matches_oracle(self, p):
        # p = 3 and 5 have M = 2 and 3, the smallest coefficient blocks
        for u in (1, 2, p - 1, p + 2, -1, 3 * p * p + 2):
            L = truncated_log(p, u)
            assert type(L) is int
            assert L == horner_truncated_log(p, u)


class TestTruncatedLogClosedForm:
    @pytest.mark.parametrize("p", [3, 5, 7, 101, 199])
    def test_matches_binomial_closed_form(self, p):
        # L_p(u) = ((1 - (1-u)^p - u^p) mod p^2) / p, an exact division
        p2 = p * p
        for u in range(1, p):
            t = (1 - pow(1 - u, p, p2) - pow(u, p, p2)) % p2
            assert t % p == 0
            assert truncated_log(p, u) == t // p

    def test_no_modular_exponentiation(self, monkeypatch):
        import heilbronn.modarith as modarith_mod

        def forbidden(*args):
            raise RuntimeError("pow_mod called")

        monkeypatch.setattr(modarith_mod, "pow_mod", forbidden)
        assert modarith_mod.truncated_log(5, 1) == 0


class TestLevelSets:
    def test_partition_p5(self):
        table = log_level_sets(build_context(5))
        members = sorted(x for s in table.level_sets.values() for x in s)
        assert members == [2, 3, 4, 5]

    def test_sizes_sum_p31(self):
        table = log_level_sets(build_context(31))
        assert sum(len(s) for s in table.level_sets.values()) == 30

    def test_bound_p101(self):
        table = log_level_sets(build_context(101))
        assert table.max_level_size <= 44 * 101 ** (2 / 3)

    @pytest.mark.parametrize("p", odd_primes_upto(399))
    def test_lemma_values_match_horner(self, p):
        values = log_level_sets(build_context(p)).values
        assert sorted(values) == list(range(1, p))
        assert all(values[u] == truncated_log(p, u) for u in range(1, p))

    def test_bound_violation_raises_runtime_error(self):
        # with L_p constant, one level set holds p-1 > 44 p^(2/3) points
        ctx = dataclasses.replace(build_context(100003),
                                  pth_powers=np.zeros(100003, dtype=np.int64))
        with pytest.raises(RuntimeError, match="level-set bound"):
            log_level_sets(ctx)
