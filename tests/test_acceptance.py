"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else."""

import itertools

import numpy as np

from heilbronn.bench import bench_single_F
from heilbronn.fermat import (ciik_report, fermat_count_full_naive,
                              fermat_count_naive_reduced, fermat_F_spectral,
                              fermat_table, golden_table,
                              structure_block_enumerated,
                              structure_constants_spectral_all)
from heilbronn.modarith import (build_context, log_level_sets,
                                odd_primes_upto, pow_mod,
                                primitive_roots_mod_p2)
from heilbronn.sctheory import build_T, build_U, structure_tensor_enumerated
from heilbronn.spectra import heilbronn_partition, spectrum

_cache: dict[int, tuple] = {}


def prepared(p):
    if p not in _cache:
        ctx = build_context(p)
        s = spectrum(ctx)
        _cache[p] = (ctx, s)
    return _cache[p]


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_golden_table_reproduction(self):
        rows = fermat_table(1039, strict=False)
        golden = dict(golden_table())
        ok = (len(rows) == 174
              and all(r.match for r in rows)
              and all(golden[r.p] == r.F for r in rows))
        report("golden-table-174", ok,
               f"{sum(r.match for r in rows)}/174 matches")

    def test_oracle_equivalence_counting(self):
        bad = []
        for p in odd_primes_upto(61):
            ctx, s = prepared(p)
            p2 = ctx.modulus
            # exhaustive counts for i = p (shift invariance), all (j,k)
            block = structure_block_enumerated(ctx, p)
            for j in range(1, p + 1):
                gj = pow_mod(ctx.g, j, p2)
                for k in range(1, p + 1):
                    gk = pow_mod(ctx.g, k, p2)
                    F = fermat_F_spectral(ctx, s, 1, gj, gk).F
                    if (p - 1) * F != (p - 1) * block[j - 1, k - 1]:
                        bad.append((p, j, k))
            # tie the exhaustive counts to the declared naive oracle
            for j, k in [(1, 1), (2, p), (p, 3 % p + 1)]:
                gj = pow_mod(ctx.g, j, p2)
                gk = pow_mod(ctx.g, k, p2)
                count = fermat_count_naive_reduced(ctx, 1, gj, gk)
                if count != (p - 1) * block[j - 1, k - 1]:
                    bad.append((p, j, k, "naive"))
        for p in (3, 5, 7, 11):
            ctx, s = prepared(p)
            F = fermat_F_spectral(ctx, s, 1, 1, 1).F
            if fermat_count_full_naive(ctx, 1, 1, 1) != p ** 3 * (p - 1) * F:
                bad.append((p, "full"))
        report("oracle-equivalence", not bad, f"failures: {bad[:5]}")

    def test_spectrum_identities(self):
        worst = (0.0, 0.0, 0.0)
        ok = True
        for p in odd_primes_upto(499):
            _, s = prepared(p)
            v = s.values
            r1 = abs(float(v.sum()))
            r2 = abs(float((v * v).sum()) - p * (p - 1))
            r3 = max(abs(float((v * np.roll(v, -i)).sum()) + p)
                     for i in range(1, p))
            worst = tuple(max(a, b) for a, b in zip(worst, (r1, r2, r3)))
            ok = ok and r1 < 1e-6 and r2 < 1e-5 * p and r3 < 1e-5 * p
        report("spectrum-identities", ok,
               f"worst residuals {worst[0]:.2e} {worst[1]:.2e} {worst[2]:.2e}")

    def test_diagonalization_law(self):
        worst_t, worst_u = 0.0, 0.0
        for p in odd_primes_upto(101):
            ctx, _ = prepared(p)
            part = heilbronn_partition(ctx)
            mats = build_U(part)
            tensor = structure_tensor_enumerated(part)
            N = part.num_classes
            U = mats.U
            worst_u = max(worst_u,
                          float(np.abs(U @ U.conj().T - np.eye(N)).max()),
                          float(np.abs(U - U.T).max()))
            for i in range(1, N + 1):
                T = build_T(part, tensor, i)
                res = float(np.abs(T @ U - U @ mats.D(i)).max())
                worst_t = max(worst_t, res)
        ok = worst_t < 1e-7 and worst_u < 1e-8
        report("diagonalization-law", ok,
               f"max |T_iU-UD_i| = {worst_t:.2e}, U residual {worst_u:.2e}")

    def test_tensor_laws_exact(self):
        bad = []
        for p in odd_primes_upto(31):
            ctx, s = prepared(p)
            part = heilbronn_partition(ctx)
            enum = structure_tensor_enumerated(part)
            c = enum.c
            n, N = part.n, part.num_classes
            # permutation symmetry on the unit-class cube
            for i, j, k in itertools.product(range(p), repeat=3):
                vals = {c[a, b, d] for a, b, d in
                        itertools.permutations((i, j, k))}
                if len(vals) != 1:
                    bad.append((p, "perm", i, j, k))
            # representative independence, every representative of every class
            cls = part.labels.astype(np.int64)
            xs = np.arange(n)
            for k in range(1, N + 1):
                for z in part.members(k):
                    counts = np.zeros((N, N), dtype=np.int64)
                    np.add.at(counts, (cls[xs] - 1, cls[(z - xs) % n] - 1), 1)
                    if not np.array_equal(counts, c[:, :, k - 1]):
                        bad.append((p, "rep", k, z))
            # row sums p-1 for j != i (unit classes)
            for i in range(p):
                for j in range(p):
                    if j != i and int(c[i, j].sum()) != p - 1:
                        bad.append((p, "rowsum", i, j))
            # border formulas
            for i in range(p):
                for j in range(p):
                    if c[i, j, p] != (1 if j != i else 0):
                        bad.append((p, "border-p+1", i, j))
                    if c[i, j, p + 1] != (p - 1 if j == i else 0):
                        bad.append((p, "border-p+2", i, j))
            # diagonal sums
            for i in range(p):
                if int(c[i, i, :p].sum()) != p - 2:
                    bad.append((p, "diagsum", i))
        # spot checks at larger scale against the spectral tensor
        for p in (61, 101):
            ctx, s = prepared(p)
            tensor = structure_constants_spectral_all(ctx, s, debug=True)
            block = structure_block_enumerated(ctx, p)
            if not np.array_equal(tensor.base, block[:, :p]):
                bad.append((p, "spectral-vs-enum"))
            if not np.array_equal(tensor.base, tensor.base.T):
                bad.append((p, "spot-symmetry"))
            if int(tensor.diagonal().sum()) != p - 2:
                bad.append((p, "spot-diagsum"))
        report("tensor-laws-exact", not bad, f"failures: {bad[:5]}")

    def test_moment_identities(self):
        worst = 0.0
        # enumerated tensors, exhaustive, p <= 31
        for p in odd_primes_upto(31):
            ctx, s = prepared(p)
            part = heilbronn_partition(ctx)
            C = structure_tensor_enumerated(part).c[:p, :p, :p].astype(float)
            M = np.stack([s.shifted(i) for i in range(1, p + 1)])
            third = np.einsum("ir,jr,kr->ijk", M, M, M)
            expect3 = p * p * (C - 1.0) + 2.0 * p
            worst = max(worst, float(np.abs(third - expect3).max()))
            lhs4 = p * p * np.einsum("ikr,jlr->ijkl", C, C)
            quartic = np.einsum("ir,jr,kr,lr->ijkl", M, M, M, M)
            eye = np.eye(p, dtype=bool)
            ik = eye[:, None, :, None]
            jl = eye[None, :, None, :]
            corr = np.where(ik & jl, -2.0 * p * p + 3 * p,
                            np.where(~ik & ~jl, float(p ** 3 - 4 * p * p + 3 * p),
                                     float(p ** 3 - 3 * p * p + 3 * p)))
            worst = max(worst, float(np.abs(lhs4 - (quartic + corr)).max()))
            # the quartic special case
            diag = np.array([C[i, i, :] for i in range(p)])
            special = p * p * (diag[0] ** 2).sum() + 2 * p * p - 3 * p
            worst = max(worst, abs(float((s.values ** 4).sum()) - special))
        ok_small = worst < 1e-3
        # spectral-vs-spectral up to 199
        worst_spec = 0.0
        rng = np.random.default_rng(20250823)
        for p in odd_primes_upto(199):
            ctx, s = prepared(p)
            tensor = structure_constants_spectral_all(ctx, s)
            for _ in range(12):
                i, j, k, l = rng.integers(1, p + 1, size=4)
                lhs = p * p * sum(tensor.c(i, k, r) * tensor.c(j, l, r)
                                  for r in range(1, p + 1))
                quart = float((s.shifted(i) * s.shifted(j)
                               * s.shifted(k) * s.shifted(l)).sum())
                if i == k and j == l:
                    corr = -2 * p * p + 3 * p
                elif i != k and j != l:
                    corr = p ** 3 - 4 * p * p + 3 * p
                else:
                    corr = p ** 3 - 3 * p * p + 3 * p
                worst_spec = max(worst_spec, abs(lhs - (quart + corr)))
                t3 = float((s.shifted(i) * s.shifted(j) * s.shifted(k)).sum())
                worst_spec = max(worst_spec,
                                 abs(t3 - (p * p * (tensor.c(i, j, k) - 1)
                                           + 2 * p)))
        ok = ok_small and worst_spec < 1e-3
        report("moment-identities", ok,
               f"worst enumerated {worst:.2e}, spectral {worst_spec:.2e}")

    def test_bound_checks(self):
        bad = []
        for p in odd_primes_upto(199):
            ctx, s = prepared(p)
            rep = ciik_report(structure_constants_spectral_all(ctx, s))
            if not rep.passed:
                bad.append((p, rep))
        report("ciik-bounds", not bad, f"failures: {bad[:3]}")

    def test_truncated_log_identities(self):
        bad = []
        for p in odd_primes_upto(199):
            p2 = p * p
            table = log_level_sets(build_context(p))
            L = table.values
            for u in range(2, p):
                lhs = (1 - pow_mod((1 - u) % p2, p, p2)) % p2
                if lhs != (pow_mod(u, p, p2) + p * L[u]) % p2:
                    bad.append((p, "binomial", u))
            for u in range(1, p):
                u_inv = pow_mod(u, p - 2, p)
                if L[u] != (-pow_mod(u, p, p) * L[u_inv]) % p:
                    bad.append((p, "functional", u))
            if sum(len(v) for v in table.level_sets.values()) != p - 1:
                bad.append((p, "partition"))
            if table.max_level_size > 44 * p ** (2 / 3):
                bad.append((p, "bound"))
        report("truncated-log", not bad, f"failures: {bad[:5]}")

    def test_benchmark_separation(self):
        rep = bench_single_F([31, 47, 71, 107, 151, 199], reps=3)
        gap = rep.fitted_slopes["naive"] - rep.fitted_slopes["spectral"]
        ok = gap >= 0.5 and rep.crossover_p is not None
        report("benchmark-separation", ok,
               f"naive {rep.fitted_slopes['naive']:.2f}, spectral "
               f"{rep.fitted_slopes['spectral']:.2f}, crossover "
               f"{rep.crossover_p}")

    def test_root_independence(self):
        bad = []
        for p in odd_primes_upto(199):
            g1, g2 = primitive_roots_mod_p2(p, 2)
            c1 = build_context(p, g=g1)
            c2 = build_context(p, g=g2)
            F1 = fermat_F_spectral(c1, spectrum(c1), 1, 1, 1).F
            F2 = fermat_F_spectral(c2, spectrum(c2), 1, 1, 1).F
            if F1 != F2:
                bad.append((p, F1, F2))
        report("root-independence", not bad, f"failures: {bad[:3]}")
