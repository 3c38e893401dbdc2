"""Fermat-congruence counting mod p^2: the spectral formula for F(p;a,b,c)
with an exact O(p) fallback, brute-force oracles, the all-triples structure
tensor counted exactly from Fermat quotients (O(p^2), no FFT, no rounding,
its index rows advanced by addition) and the paper's third-moment FFT block
that debug mode and verify check it against, moment identities, and
diagonal-coefficient bounds.  Every p-th power is read from the context's
table PrimeContext.pth_powers."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .modarith import (MAX_PRIME, InvalidInput, PrimeContext, build_context,
                       odd_primes_upto)
from .spectra import Spectrum, heilbronn_partition, spectrum

# Residuals of this or more send F to its exact integer count; 0.5 is the
# hard validity limit, 0.25 leaves a factor-2 margin.
RESIDUAL_LIMIT = 0.25

TENSOR_PRIME_CAP = 55_109  # the tensor refuses p from here on

# Cap of the Theta(p^3) naive count: about 10^9 Python steps at p = 1009.
NAIVE_MAX_PRIME = 199

# Rows of a tensor block built per batch, which bounds the temporaries to a
# few (32, p) or (32, 2^ceil(log2(2p-1))) arrays: the FFT block's rows, and
# the exact block's index rows, advanced 32 rows at a time by addition.  All
# rows at once raised a process's peak RSS at p = 1009 from 51 to 77 MB
# (FFT), 39 to 53 MB (exact).  The exact block, the tensor's hot path, took
# about 3.0 ms at p = 1009 with 32-row batches and 3.5 ms with 64, on one
# core of a shared 2-core Xeon VM.
_ROW_BLOCK = 32


class GoldenMismatch(RuntimeError):
    """Computed F(p) disagrees with the embedded reference table."""


def _check_coprime(ctx: PrimeContext, *coeffs: int) -> None:
    for c in coeffs:
        if c % ctx.p == 0:
            raise InvalidInput(f"p = {ctx.p} divides coefficient {c}")


@dataclass(frozen=True)
class FermatResult:
    """Solution count of a*x^p + b*y^p == c*z^p mod p^2 with p not dividing xyz."""

    p: int
    a: int
    b: int
    c: int
    F: int
    residual: float
    method: str  # "spectral" | "exact" | "naive"

    @property
    def solution_count(self) -> int:
        return self.p ** 3 * (self.p - 1) * self.F

    def to_json(self) -> str:
        return json.dumps({
            "p": self.p, "a": self.a, "b": self.b, "c": self.c,
            "F": self.F, "solution_count": self.solution_count,
            "residual": self.residual, "method": self.method,
        })


def fermat_F_spectral(ctx: PrimeContext, s: Spectrum,
                      a: int, b: int, c: int) -> FermatResult:
    """F(p;a,b,c) = 1 - 2/p + (1/p^2) * sum_l H(a g^l) H(b g^l) H(c g^l).

    Coefficients are reduced to spectrum shifts through their superclass
    indices, so no new cosines are evaluated.  The pre-rounding value must
    land within RESIDUAL_LIMIT of a nonnegative integer; otherwise F comes
    from _fermat_F_exact, with method "exact" and the rejected residual.
    """
    _check_coprime(ctx, a, b, c)
    p = ctx.p
    i, j, k = (ctx.class_index(x) for x in (a, b, c))
    # Shift invariance: sum_l H(i+l) H(j+l) H(k+l) = sum_m H(m) H(m+j-i) H(m+k-i).
    triple = float((s.values * s.shifted(j - i) * s.shifted(k - i)).sum())
    f_tilde = 1.0 - 2.0 / p + triple / (p * p)
    F = np.rint(f_tilde)  # NaN, not an error, when f_tilde is not finite
    residual = float(abs(f_tilde - F))
    ok = residual < RESIDUAL_LIMIT and F >= 0
    return FermatResult(p=p, a=a, b=b, c=c,
                        F=int(F) if ok else _fermat_F_exact(ctx, a, b, c),
                        residual=residual, method="spectral" if ok else "exact")


def _quotient_lines(ctx: PrimeContext) -> tuple[np.ndarray, np.ndarray]:
    """(alpha_r, beta_r) for r = 2..p-1, int64 mod p, such that
    c(p,j,k) = #{r : j == alpha_r + beta_r k (mod p)}, j = p read as 0.

    c(p,j,k) = #{y in X_k : y - 1 in X_j}, and X_k holds the one lift
    y = r + ps of each unit r with q(y) == q(r) - s/r == k q(g), q the Fermat
    quotient: beta_r = r/(r-1), alpha_r = ((r-1) q(r-1) - r q(r)) / ((r-1) q(g))
    with r q(r) == (T[r] - r)/p.  O(p); all products are below p^2."""
    p = ctx.p
    r = np.arange(1, p)
    rq = (ctx.pth_powers[1:] - r) // p  # r q(r) mod p, already in 0..p-1
    log = np.asarray(ctx.log_mod_p[1:])  # g^log[r-1] == r mod p
    inv = np.argsort(log)[-log[:-1] % (p - 1)] + 1  # (r-1)^-1 mod p, r = 2..p-1
    alpha = (rq[:-1] - rq[1:]) * inv % p * ctx.inv_quotient_g % p
    beta = r[1:] * inv % p
    return alpha, beta


def _fermat_F_exact(ctx: PrimeContext, a: int, b: int, c: int) -> int:
    """F(p;a,b,c) = c(p, j, k) with j == ind(c) - ind(b) and
    k == ind(a) - ind(b) (mod p), ind = ctx.class_index: one O(p) count
    over the lines of _quotient_lines."""
    p = ctx.p
    i_a, i_b, i_c = (ctx.class_index(x) for x in (a, b, c))
    alpha, beta = _quotient_lines(ctx)
    return int(np.count_nonzero((alpha + beta * (i_a - i_b) - (i_c - i_b)) % p == 0))


def fermat_count_naive_reduced(ctx: PrimeContext, a: int, b: int, c: int) -> int:
    """Exhaustive count of 1 <= x,y,z <= p-1 with a x^p + b y^p == c z^p
    mod p^2; equals (p-1) * F(p;a,b,c).  Theta(p^3): p <= NAIVE_MAX_PRIME."""
    _check_coprime(ctx, a, b, c)
    p, p2 = ctx.p, ctx.modulus
    if p > NAIVE_MAX_PRIME:
        raise InvalidInput(f"naive count limited to p <= {NAIVE_MAX_PRIME}, got {p}")
    A = ctx.pth_powers[1:].tolist()
    axp = [a * t % p2 for t in A]
    byp = [b * t % p2 for t in A]
    czp = [c * t % p2 for t in A]
    total = 0
    for u in axp:
        for v in byp:
            s = (u + v) % p2
            for w in czp:
                if w == s:
                    total += 1
    return total


def fermat_count_full_naive(ctx: PrimeContext, a: int, b: int, c: int) -> int:
    """Count of (x,y,z) in (Z/p^2 Z)^3 with p not dividing xyz satisfying
    a x^p + b y^p == c z^p mod p^2.  Restricted to p <= 11 (p^6 scale)."""
    _check_coprime(ctx, a, b, c)
    p, p2 = ctx.p, ctx.modulus
    if p > 11:
        raise InvalidInput(f"full naive count limited to p <= 11, got {p}")
    units = [u for u in range(1, p2) if u % p != 0]
    T = ctx.pth_powers.tolist()  # x^p == T[x mod p] mod p^2
    pair_counts = Counter((a * T[x % p] + b * T[y % p]) % p2
                          for x in units for y in units)
    return sum(pair_counts.get(c * T[z % p] % p2, 0) for z in units)


def structure_block_enumerated(ctx: PrimeContext, i: int) -> np.ndarray:
    """c(i,j,k) for fixed i >= 0 (read mod p), all 1 <= j <= p and
    1 <= k <= p+2, by exhaustive enumeration of (x, y) in X_i x X_j per j,
    with heilbronn_partition read as Python ints.  Exact integers,
    Theta(p^3)."""
    if i < 0:
        raise InvalidInput(f"class index must be nonnegative, got {i}")
    p, p2 = ctx.p, ctx.modulus
    part = heilbronn_partition(ctx)
    cls = part.labels.tolist()
    lhs = part.members((i - 1) % p + 1).tolist()
    out = np.zeros((p, p + 2), dtype=np.int64)
    for j in range(1, p + 1):
        row = out[j - 1]
        rhs = part.members(j).tolist()
        for u in lhs:
            for v in rhs:
                row[cls[(u + v) % p2] - 1] += 1
        # counts per class k still carry the p-1 representatives of X_k
        for k in range(p + 1):
            size = p - 1
            if row[k] % size != 0:
                raise RuntimeError(
                    f"class count {row[k]} for (i,j,k) = ({i},{j},{k + 1}) "
                    f"is not a multiple of |X_k| = {size}")
            row[k] //= size
    return out


@dataclass(frozen=True)
class StructureTensorP:
    """All c(i,j,k) for the Heilbronn classes, stored as the single block
    c(p, ., .) plus closed-form borders; shift invariance recovers the rest."""

    p: int
    base: np.ndarray = field(repr=False)  # (p, p) int32, base[j-1, k-1] = c(p, j, k)
    origin: str  # always "exact": base is an integer count, never rounded

    def c(self, i: int, j: int, k: int) -> int:
        p = self.p
        if not (1 <= i <= p and 1 <= j <= p and 1 <= k <= p + 2):
            raise IndexError(f"indices out of range: ({i},{j},{k})")
        if k == p + 1:
            return 1 if j != i else 0
        if k == p + 2:
            return p - 1 if j == i else 0
        return int(self.base[(j - i - 1) % p, (k - i - 1) % p])

    def block(self, i: int) -> np.ndarray:
        """The p x p matrix [c(i,j,k)]_{j,k} via cyclic index shifts."""
        if not 1 <= i <= self.p:
            raise IndexError(f"index out of range: i = {i}")
        return np.roll(self.base, (i, i), axis=(0, 1))

    def diagonal(self, i: int | None = None) -> np.ndarray:
        """(c(i,i,1), ..., c(i,i,p)); the multiset is i-independent.

        c(i,i,k) = base[p-1, (k-1-i) mod p], a cyclic shift of the last row.
        """
        p = self.p
        i = p if i is None else i
        if not 1 <= i <= p:
            raise IndexError(f"index out of range: i = {i}")
        return np.roll(self.base[p - 1], i)


def _third_moment_block(s: Spectrum) -> tuple[np.ndarray, float]:
    """The p x p block c(p,j,k) = 1 + (S_{j,k} - 2p)/p^2 rounded to int64,
    and the largest distance of an unrounded entry from its integer.

    S_{j,k} = sum_l h_l h_{l+j} h_{l+k} with h_e = H(g^e), indices mod p.
    Row j is the circular correlation of v_j = h * h[. + j] with h, taken
    from one real FFT of length n = 2^ceil(log2(2p-1)) against h repeated
    twice, so no product wraps around; prime-length FFTs would be about
    three times slower.  Only rows j <= p//2 are transformed: the rest
    follow from S(-j, k) = S(j, k+j).
    """
    p = s.p
    n = 1 << (2 * p - 1).bit_length()
    h = np.roll(s.values, 1)
    hh = np.concatenate([h, h])
    h_hat = np.fft.rfft(hh, n)
    windows = np.lib.stride_tricks.sliding_window_view(hh, p)  # row j: h[. + j]
    cols = np.arange(p)
    half = p // 2
    out = np.empty((p, p), dtype=np.int64)  # out[j-1, k-1] = c(p, j, k)
    residual = 0.0
    for j0 in range(0, half + 1, _ROW_BLOCK):
        j1 = min(j0 + _ROW_BLOCK, half + 1)
        js = np.arange(j0, j1)
        v_hat = np.fft.rfft(windows[j0:j1] * h, n, axis=1)
        np.conjugate(v_hat, out=v_hat)
        v_hat *= h_hat
        # Lags 1..p, so column k-1 holds S_{j,k} with k = p read as 0.
        c = np.fft.irfft(v_hat, n, axis=1)[:, 1:p + 1]
        c -= 2 * p
        c /= p * p
        c += 1.0
        rounded = np.rint(c)
        c -= rounded
        residual = np.maximum(residual, np.abs(c, out=c).max())  # keeps NaN
        out[(js - 1) % p] = rounded
        mirrored = js > 0
        out[p - 1 - js[mirrored]] = np.take_along_axis(
            rounded[mirrored], (cols + js[mirrored, None]) % p, axis=1)
    return out, float(residual)


def _exact_block(ctx: PrimeContext) -> np.ndarray:
    """The p x p block c(p,j,k) as int32 (no entry exceeds p-2), summing the
    p-2 permutation matrices of _quotient_lines.  Row k' = k-1 counts the
    j' = j-1 they hit, which is column k of c = c^T (r -> 1-r transposes
    each matrix).

    Only rows k' = 0..(p-3)/2 and k' = p-1 are counted, one np.bincount per
    _ROW_BLOCK rows, which keeps each row's writes inside that row.  The
    rest are mirrored: a x^p + b y^p == c z^p is symmetric in (a, b, c),
    because -1 = (-1)^p is a p-th power, so c(p,j,k) = c(p,j-k,-k), and row
    p-2-k' is row k' shifted left by k'+1.  Each counted batch is written
    twice side by side into a buffer of rows of length 2p, whose windows of
    length p give its mirrored rows in one strided copy.

    The index rows (k' beta + gamma) mod p + (k' - k0) p are built once, for
    k0 = 0; each next batch adds _ROW_BLOCK beta mod p and subtracts p where
    an entry reached its row's limit, so no entry costs a multiply or a
    division.  They are int32 (below 34p < 2^31) and cast for np.bincount,
    which is slow on int32 input."""
    p = ctx.p
    alpha, beta = _quotient_lines(ctx)
    gamma = (alpha - 1 + beta) % p  # j' == gamma_r + beta_r k'
    half = (p - 1) // 2  # counted rows besides k' = p-1
    out = np.empty((p, p), dtype=np.int32)
    out[p - 1] = np.bincount((gamma - beta) % p, minlength=p)
    k = np.arange(min(_ROW_BLOCK, half))[:, None]
    offset = k * p
    idx = ((k * beta + gamma) % p + offset).astype(np.int32)
    limit = (offset + p).astype(np.int32)
    step = (_ROW_BLOCK * beta % p).astype(np.int32)
    wrap = np.empty(idx.shape, dtype=bool)
    shift = np.empty_like(idx)
    twice = np.empty((len(k), 2 * p), dtype=np.int32)
    # window k0+1 + r(2p+1) is row r of the batch at k0, shifted by k0+r+1
    windows = np.lib.stride_tricks.sliding_window_view(twice.ravel(), p)
    for k0 in range(0, half, _ROW_BLOCK):
        n = min(_ROW_BLOCK, half - k0)
        twice[:n, :p] = np.bincount(idx[:n].ravel().astype(np.intp),
                                    minlength=n * p).reshape(n, p)
        twice[:n, p:] = twice[:n, :p]
        out[k0:k0 + n] = twice[:n, :p]
        out[p - 1 - k0 - n:p - 1 - k0] = windows[k0 + 1::2 * p + 1][n - 1::-1]
        idx += step
        np.greater_equal(idx, limit, out=wrap)
        np.multiply(wrap, np.int32(p), out=shift)
        idx -= shift
    return out


def structure_constants_spectral_all(ctx: PrimeContext, s: Spectrum,
                                     debug: bool = False) -> StructureTensorP:
    """All c(i,j,k): the block c(p,.,.) from _exact_block, O(p^2) time and
    memory with no FFT and no rounding; shift invariance supplies every
    other i.  p >= TENSOR_PRIME_CAP raises InvalidInput before allocating.
    s is read only by debug mode, which checks the third-moment identity on
    all p^2 entries: the rounded FFT block of _third_moment_block must equal
    the exact block, or RuntimeError is raised."""
    p = ctx.p
    if p >= TENSOR_PRIME_CAP:
        raise InvalidInput(f"p = {p}: the p x p int32 tensor block would take "
                           f"{4e-9 * p * p:.0f} GB; it needs p < {TENSOR_PRIME_CAP}")
    base = _exact_block(ctx)
    if debug and not np.array_equal(_third_moment_block(s)[0], base):
        raise RuntimeError("third-moment identity mismatch")
    return StructureTensorP(p=p, base=base, origin="exact")


@dataclass(frozen=True)
class MomentCheck:
    lhs: float
    rhs: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.tolerance


def third_moment_check(ctx: PrimeContext, s: Spectrum,
                       i: int, j: int, k: int,
                       tolerance: float = 1e-3) -> MomentCheck:
    """sum_l H(g^{i+l}) H(g^{j+l}) H(g^{k+l}) against p^2 (c(i,j,k) - 1) + 2p
    with c(i,j,k) obtained by exhaustive enumeration."""
    p, p2 = ctx.p, ctx.modulus
    lhs = float((s.shifted(i) * s.shifted(j) * s.shifted(k)).sum())
    gi, gk = pow(ctx.g, i, p2), pow(ctx.g, k, p2)
    # Residues divisible by p lie outside X_1..X_p.
    diffs = ((gk - t * gi) % p2 for t in ctx.pth_powers[1:].tolist())
    c = sum(1 for v in diffs if v % p and ctx.class_index(v) == j)
    rhs = p * p * (c - 1) + 2 * p
    return MomentCheck(lhs=lhs, rhs=float(rhs), tolerance=tolerance)


def fourth_moment_check(ctx: PrimeContext, s: Spectrum,
                        tensor: StructureTensorP,
                        i: int, j: int, k: int, l: int,
                        tolerance: float = 1e-3) -> MomentCheck:
    """p^2 sum_r c(i,k,r) c(j,l,r) against the quartic spectral sum plus the
    case-dependent correction term."""
    p = ctx.p
    lhs = p * p * sum(tensor.c(i, k, r) * tensor.c(j, l, r)
                      for r in range(1, p + 1))
    quartic = float((s.shifted(i) * s.shifted(j)
                     * s.shifted(k) * s.shifted(l)).sum())
    # 1 + (p-1)^3 - p^2 e, where e counts the two border terms of
    # sum_r |X_r| c(i,k,r) c(j,l,r): p-1 when i = k and j = l, 1 when
    # i != k and j != l, 0 in the mixed cases.
    e = {(True, True): p - 1, (False, False): 1}.get((i == k, j == l), 0)
    correction = 1 + (p - 1) ** 3 - p * p * e
    return MomentCheck(lhs=float(lhs), rhs=quartic + correction,
                       tolerance=tolerance)


def quartic_power_check(ctx: PrimeContext, s: Spectrum,
                        tensor: StructureTensorP, i: int | None = None,
                        tolerance: float = 1e-3) -> MomentCheck:
    """sum_l H^4(g^l) against p^2 sum_l c(i,i,l)^2 + 2p^2 - 3p."""
    p = ctx.p
    i = p if i is None else i
    lhs = float((s.values ** 4).sum())
    diag = tensor.diagonal(i).astype(np.int64)
    rhs = p * p * int((diag * diag).sum()) + 2 * p * p - 3 * p
    return MomentCheck(lhs=lhs, rhs=float(rhs), tolerance=tolerance)


@dataclass(frozen=True)
class DiagonalBoundReport:
    """Bounds on the diagonal coefficients c(i,i,k)."""

    p: int
    max_ciik: int
    max_bound: float
    diag_sum: int
    level_counts: dict[float, int]  # alpha -> #{k : c(i,i,k) >= p^alpha}

    @property
    def passed(self) -> bool:
        if self.max_ciik > self.max_bound or self.diag_sum != self.p - 2:
            return False
        return all(cnt < self.p ** (1.0 - alpha)
                   for alpha, cnt in self.level_counts.items())


def ciik_report(tensor: StructureTensorP,
                alphas: tuple[float, ...] = (0.25, 0.5)) -> DiagonalBoundReport:
    """max_k c(i,i,k) <= 44 p^(2/3), sum_k c(i,i,k) = p-2, and the level
    counts #{k : c(i,i,k) >= p^alpha} < p^(1-alpha)."""
    p = tensor.p
    diag = tensor.diagonal()
    return DiagonalBoundReport(
        p=p,
        max_ciik=int(diag.max()),
        max_bound=44.0 * p ** (2.0 / 3.0),
        diag_sum=int(diag.sum()),
        level_counts={a: int((diag >= p ** a).sum()) for a in alphas},
    )


def golden_table() -> list[tuple[int, int]]:
    """The embedded reference values of F(p;1,1,1) for the first 174 odd primes."""
    text = resources.files("heilbronn.data").joinpath("fermat_table.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    return [(int(r["p"]), int(r["F"])) for r in rows]


@dataclass(frozen=True)
class TableRow:
    p: int
    F: int
    golden: int | None
    match: bool


def fermat_table(p_max: int, strict: bool = True) -> list[TableRow]:
    """F(p;1,1,1) for all odd primes <= p_max via the spectral path, compared
    against the embedded reference table where it has entries.  Raises
    InvalidInput for p_max > MAX_PRIME before sieving."""
    if p_max > MAX_PRIME:
        raise InvalidInput(f"p_max = {p_max} exceeds supported cap {MAX_PRIME}")
    golden = dict(golden_table())
    rows = []
    for p in odd_primes_upto(p_max):
        ctx = build_context(p)
        s = spectrum(ctx)
        F = fermat_F_spectral(ctx, s, 1, 1, 1).F
        ref = golden.get(p)
        ok = ref is None or F == ref
        rows.append(TableRow(p=p, F=F, golden=ref, match=ok))
        if strict and not ok:
            raise GoldenMismatch(f"F({p}) = {F}, reference says {ref}")
    return rows
