"""Heilbronn sums H_p(a), the spectrum (H_p(g^1), ..., H_p(g^p)) with an
a-priori error budget (an estimate, not a rigorous bound), the superclass
partition X_1..X_{p+2}, the (p+2)x(p+2) supercharacter table, and the
explicit bordered unitary matrix.  Every p-th power l^p mod p^2 is read
from the context's table PrimeContext.pth_powers."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .modarith import InvalidInput, PrimeContext, fermat_quotient
from .sctheory import SuperclassPartition, build_U

# Largest |sigma_generic - sigma_pattern| heilbronn_table accepts, absolute:
# |sigma| <= p - 1, and the mismatch measured at every p <= 2003 is <= 3.7e-13.
TABLE_TOL = 1e-8


def _err_bound(p: int) -> float:
    # Worst-case budget: each of the p-1 float64 cosines is accurate to
    # 2^-(53 - ceil(4 log2 p)) after angle scaling by p^2 and the
    # 2*pi*a*l^p reduction.
    return (p - 1) * 2.0 ** (-(53 - math.ceil(4 * math.log2(p))))


def heilbronn_sum(ctx: PrimeContext, a: int) -> tuple[float, float]:
    """H_p(a) = sum over l = 1..p-1 of cos(2*pi*a*l^p / p^2).

    The residues a*l^p mod p^2 are computed exactly; only the final cosine
    is approximate.  Sines cancel structurally (l pairs with p-l), which is
    checked on the residues rather than summed numerically; RuntimeError if
    they do not.  Returns the value and the error budget _err_bound(p), a
    worst-case estimate of the cosine error, not a rigorous bound.
    """
    p = ctx.p
    p2 = p * p
    a %= p2
    # Python ints: a * l^p reaches p^4, past int64 for p >= 55,109.
    residues = [a * lp % p2 for lp in ctx.pth_powers[1:].tolist()]
    for l in range(1, (p + 1) // 2):
        if (residues[l - 1] + residues[p - 1 - l]) % p2 != 0:
            raise RuntimeError(f"sine terms fail to pair off at l = {l}, p = {p}")
    r = np.asarray(residues, dtype=np.float64)
    return float(np.cos((2.0 * np.pi / p2) * r).sum()), _err_bound(p)


@dataclass(frozen=True)
class Spectrum:
    """The real vector (H_p(g^1), ..., H_p(g^p)) with a uniform error bound.

    values[m] holds H_p(g^(m+1)); by periodicity H_p(g^k) depends only on
    k mod p, so value_at(k) indexes cyclically.
    """

    p: int
    g: int
    values: np.ndarray = field(repr=False)
    err_bound: float

    def value_at(self, k: int) -> float:
        return float(self.values[(k - 1) % self.p])

    def shifted(self, t: int) -> np.ndarray:
        """Vector (H_p(g^(t+1)), ..., H_p(g^(t+p))) as a cyclic shift."""
        return np.roll(self.values, -t % self.p)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["ell", "value", "err_bound"])
        for m, v in enumerate(self.values, start=1):
            w.writerow([m, repr(float(v)), repr(self.err_bound)])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "p": self.p,
            "g": self.g,
            "err_bound": self.err_bound,
            "values": [float(v) for v in self.values],
        })


def spectrum(ctx: PrimeContext) -> Spectrum:
    """All p Heilbronn sums H_p(g^l), l = 1..p, in float64.

    One length-p FFT, O(p log p): with w_m = e(m^p / p^2) for 1 <= m < p,
    w_0 = 0 and W = fft(w), H_p(g^i) = Re W[i q(g) mod p], q the Fermat
    quotient.  (Expand the indicator of the p-th powers over the p
    characters trivial on them and evaluate their Gauss sums mod p^2;
    Iwaniec & Kowalski, Analytic Number Theory, ch. 12.)
    """
    p, p2 = ctx.p, ctx.modulus
    w = np.zeros(p, dtype=np.complex128)
    w[1:] = np.exp((2j * np.pi / p2) * ctx.pth_powers[1:])
    W = np.fft.fft(w).real
    values = W[np.arange(1, p + 1) * fermat_quotient(ctx.g, p) % p]
    return Spectrum(p=p, g=ctx.g, values=values, err_bound=_err_bound(p))


@dataclass(frozen=True)
class SpectrumIdentityReport:
    """Residuals of the three unitarity identities on the spectrum."""

    sum_residual: float            # |sum H|
    norm_residual: float           # |sum H^2 - p(p-1)|
    dot_residual: float            # max over shifts i != 0 of |sum H H_shift + p|
    tolerances: tuple[float, float, float]

    @property
    def passed(self) -> bool:
        r = (self.sum_residual, self.norm_residual, self.dot_residual)
        return all(x <= t for x, t in zip(r, self.tolerances))


def _autocorrelation(v: np.ndarray) -> np.ndarray:
    """The circular autocorrelation, entry i = sum_m v[m] v[(m + i) mod n]."""
    return np.fft.irfft(np.abs(np.fft.rfft(v)) ** 2, len(v))


def verify_spectrum_identities(s: Spectrum) -> SpectrumIdentityReport:
    """Check sum H = 0, sum H^2 = p(p-1), and the shifted dot products = -p."""
    p = s.p
    v = s.values
    sum_res = abs(float(v.sum()))
    norm_res = abs(float((v * v).sum()) - p * (p - 1))
    dot_res = float(np.abs(_autocorrelation(v)[1:] + p).max())
    # Worst-case propagation of the per-entry bound.
    e = s.err_bound
    hmax = p - 1
    tol1 = p * e
    tol2 = p * (2 * hmax * e + e * e)
    return SpectrumIdentityReport(sum_residual=sum_res, norm_residual=norm_res,
                                  dot_residual=dot_res,
                                  tolerances=(tol1, tol2, tol2))


def subgroup_pth_powers(ctx: PrimeContext) -> list[int]:
    """A = {1^p, ..., (p-1)^p} mod p^2; a subgroup of order p-1."""
    return sorted(ctx.pth_powers[1:].tolist())


def heilbronn_partition(ctx: PrimeContext) -> SuperclassPartition:
    """Orbits of A on Z/p^2Z as the uint16 labels label[r] = i for r in X_i:
    X_i = g^i A for i = 1..p, X_{p+1} the nonzero multiples of p,
    X_{p+2} = {0}.  One scatter of the (p, p-1) int64 cosets; p < 55,109
    keeps p + 2 < 2^16."""
    p, p2 = ctx.p, ctx.modulus
    if p ** 4 > np.iinfo(np.int64).max:
        raise InvalidInput(f"p = {p} overflows the int64 products of the cosets g^i A")
    A = ctx.pth_powers[1:]
    gi = np.array([pow(ctx.g, i, p2) for i in range(1, p + 1)], dtype=np.int64)
    labels = np.empty(p2, dtype=np.uint16)
    labels[gi[:, None] * A[None, :] % p2] = np.arange(1, p + 1)[:, None]
    labels[p::p] = p + 1
    labels[0] = p + 2
    return SuperclassPartition(labels)


@dataclass(frozen=True)
class HeilbronnTable:
    """Table-pattern sigma and the explicit bordered U for the X_1..X_{p+2}
    labeling, cross-validated against the generic engine."""

    partition: SuperclassPartition
    sigma: np.ndarray
    U: np.ndarray


def _sigma_and_unitary(s: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The (p+2) x (p+2) table sigma: [H_p(g^(i+j))]_{i,j = 1..p}, cyclic in
    i + j, bordered by -1, p-1 and the all-ones row; and the unitary U, sigma
    scaled by 1/p with sqrt(p-1) / p in the last row and column but their
    corner 1/p."""
    p = s.p
    idx = np.arange(p)
    sigma = np.full((p + 2, p + 2), p - 1.0)
    sigma[:p, :p] = s.values[(idx[:, None] + idx[None, :] + 1) % p]
    sigma[:p, p] = sigma[p, :p] = -1.0
    sigma[p + 1] = 1.0
    U = sigma / p
    U[:p + 1, p + 1] = U[p + 1, :p + 1] = math.sqrt(p - 1) / p
    return sigma, U


def bordered_unitary(s: Spectrum) -> np.ndarray:
    """The explicit (p+2) x (p+2) unitary of heilbronn_table."""
    return _sigma_and_unitary(s)[1]


def heilbronn_table(ctx: PrimeContext, s: Spectrum) -> HeilbronnTable:
    """Assemble sigma and U from the spectrum by the known block pattern
    (sigma[i,j] = H_p(g^(i+j)) on the p x p block, U its bordered scaling),
    and check sigma against build_U on heilbronn_partition to TABLE_TOL."""
    sigma, U = _sigma_and_unitary(s)
    partition = heilbronn_partition(ctx)
    generic = build_U(partition).sigma
    if np.abs(generic.imag).max() > 1e-10:
        raise InvalidInput("generic sigma has nonreal entries for Heilbronn action")
    mismatch = np.abs(generic.real - sigma).max()
    if mismatch > TABLE_TOL:
        raise InvalidInput(
            f"table pattern disagrees with generic engine by {mismatch:.3g}; "
            "class labeling is inconsistent")
    return HeilbronnTable(partition=partition, sigma=sigma, U=U)
