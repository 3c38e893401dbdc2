"""Exact modular arithmetic mod p and p**2: modexp, primitive roots, and a
per-prime context holding O(p) state from one walk over the powers of g:
a log table mod p, the Fermat quotient of g, and the p-th-power table
T[r] = r**p mod p**2 that every consumer reads.  The truncated logarithm
is read from T; pth_power_table is its independent pow-loop reference."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

# Caps p for trial division and for the O(p) context and spectrum.  It does
# not bound operations whose output has p**2 entries or more (the partition,
# whose int64 cosets need p < 55,109, and the tensor).
MAX_PRIME = 1 << 20


class InvalidInput(ValueError):
    """Raised when an argument violates a documented precondition."""


def pow_mod(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus, checking the modulus and exponent."""
    if modulus < 2:
        raise InvalidInput(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise InvalidInput("exponent must be nonnegative")
    return pow(base, exponent, modulus)


def is_odd_prime(n: int) -> bool:
    """Deterministic trial division; intended for desk-scale n."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(p: int) -> None:
    """Raise InvalidInput unless p is an odd prime no larger than MAX_PRIME."""
    if not is_odd_prime(p):
        raise InvalidInput(f"{p} is not an odd prime")
    if p > MAX_PRIME:
        raise InvalidInput(f"p = {p} exceeds supported cap {MAX_PRIME}")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primitive_roots_mod_p2(p: int, count: int = 1) -> list[int]:
    """First `count` primitive roots mod p**2, in deterministic search order.

    Candidates are the primitive roots h mod p in increasing order; each is
    kept if h**(p-1) != 1 mod p**2 and replaced by h + p otherwise (the lift
    always has full order p(p-1)).  If that pool is too small (only p = 3),
    further lifts h + k*p are used: among the p lifts of a primitive root
    mod p, every one except a single exception has full order mod p**2.
    """
    check_odd_prime(p)
    p2 = p * p
    factors = _prime_factors(p - 1)
    roots: list[int] = []
    base_roots: list[int] = []
    for h in range(2, p):
        if any(pow_mod(h, (p - 1) // q, p) == 1 for q in factors):
            continue  # not a primitive root mod p
        base_roots.append(h)
        g = h if pow_mod(h, p - 1, p2) != 1 else h + p
        roots.append(g)
        if len(roots) == count:
            return roots
    for k in range(1, p):
        for h in base_roots:
            g = h + k * p
            if g in roots or pow_mod(g, p - 1, p2) == 1:
                continue
            roots.append(g)
            if len(roots) == count:
                return roots
    raise InvalidInput(f"fewer than {count} primitive roots found for p={p}")


def primitive_root_mod_p2(p: int) -> int:
    """Smallest-candidate primitive root mod p**2 (order p(p-1))."""
    return primitive_roots_mod_p2(p, 1)[0]


def fermat_quotient(u: int, p: int) -> int:
    """q(u) = (u**(p-1) - 1)/p mod p for a unit u mod p**2.

    q(uv) = q(u) + q(v) mod p, and q vanishes exactly on the p-th powers, so
    q(g**e) = e*q(g) mod p.
    """
    return (pow(u, p - 1, p * p) - 1) // p % p


@dataclass(frozen=True)
class PrimeContext:
    """A prime p with modulus p**2 and a fixed primitive root g, holding
    O(p) state for discrete logs.

    The discrete log e of a unit u (g**e == u mod p**2) is fixed by its two
    CRT residues: e mod p-1 is the log of u mod p, read from log_mod_p, and
    e mod p is q(u) * q(g)**-1 with q the Fermat quotient.  log_mod_p[r] is
    the exponent in {0, ..., p-2} with g**e == r mod p (index 0 unused).

    pth_powers is the read-only int64 table T[r] = r**p mod p**2, 0 <= r < p:
    T[0] = 0 and T[1:] lists the subgroup A of p-th powers.  It serves every
    residue, as (r + kp)**p == r**p mod p**2.  It is derived from (p, g), so
    equality ignores it.  Immutable after construction.
    """

    p: int
    modulus: int
    g: int
    log_mod_p: list[int] = field(repr=False)
    inv_quotient_g: int
    pth_powers: np.ndarray = field(repr=False, compare=False)

    def dlog_of(self, u: int) -> int:
        """The exponent e in {1, ..., p(p-1)} with g**e == u mod p**2."""
        p = self.p
        b = self.class_index(u)
        a = self.log_mod_p[u % p]
        # e == a mod p-1 and e == b mod p; (p-1)*t == -t mod p gives t.
        e = a + (p - 1) * ((a - b) % p)
        return e if e != 0 else p * (p - 1)

    def class_index(self, u: int) -> int:
        """Superclass index in 1..p of a unit u (dlog mod p, p for 0)."""
        p = self.p
        if u % p == 0:
            raise InvalidInput(f"{u} is not a unit mod {self.modulus}")
        e = fermat_quotient(u, p) * self.inv_quotient_g % p
        return e if e != 0 else p


def build_context(p: int, g: int | None = None) -> PrimeContext:
    """PrimeContext for p and g (default: primitive_root_mod_p2(p)); O(p)
    time and space.  Raises InvalidInput unless g has order p(p-1) mod p**2,
    that is, unless g is a primitive root mod p with q(g) != 0.

    One walk over e = 1..p-2 fills both tables: x = g**e mod p gives
    log_mod_p[x] = e, and z = (g**p)**e mod p**2 gives T[x] = z, since
    r == g**e (mod p) implies r**p == g**(ep) (mod p**2)."""
    check_odd_prime(p)
    if g is None:
        g = primitive_root_mod_p2(p)
    p2 = p * p
    order = p * (p - 1)
    log_mod_p = [0] * p
    T = array("q", bytes(8 * p))  # int64 slots, no Python int kept per entry
    T[1] = 1
    h, gp = g % p, pow(g, p, p2)
    x = z = 1
    for e in range(1, p - 1):
        x = x * h % p
        z = z * gp % p2
        if x <= 1:  # 0 when p | g, 1 when g has order e < p-1 mod p
            raise InvalidInput(f"g = {g} does not have order {order} mod {p2}")
        log_mod_p[x] = e
        T[x] = z
    q = fermat_quotient(g, p)
    if q == 0:
        raise InvalidInput(f"g = {g} does not have order {order} mod {p2}")
    pth_powers = np.frombuffer(T, dtype=np.int64)
    pth_powers.flags.writeable = False
    return PrimeContext(p=p, modulus=p2, g=g, log_mod_p=log_mod_p,
                        inv_quotient_g=pow(q, -1, p), pth_powers=pth_powers)


def pth_power_table(p: int) -> np.ndarray:
    """The int64 array T[m] = m**p mod p**2 for 0 <= m < p, by one pow per
    entry: the reference only, which tests compare PrimeContext.pth_powers
    against.  The library reads the context's table instead."""
    check_odd_prime(p)
    p2 = p * p
    return np.array([pow(m, p, p2) for m in range(p)], dtype=np.int64)


def truncated_log(p: int, u: int | np.ndarray) -> int | np.ndarray:
    """L_p(u) = u + u^2/2 + ... + u^(p-1)/(p-1) mod p, for p not dividing u.

    u is an int or an int64 array of units, evaluated elementwise: the
    independent reference for the lemma that log_level_sets reads, so it
    never reads T.  Blocked Horner (Paterson and Stockmeyer, 1973): with
    M = ceil(sqrt(p)) and c_k = inv(k) = -(p // k) * inv(p mod k) mod p,
    the sum is sum over b of (u^M)^b * P_b(u), P_b(u) = sum over i < M of
    c_{bM+i} u^i.  All P_b come from one int64 matmul of the coefficient
    blocks with the table u^0..u^(M-1); its entries stay below
    M * p^2 < 2^51 for p <= MAX_PRIME.  Then ceil(p/M) Horner steps in u^M.
    Units are taken in slices, so the table never exceeds 2^20 entries."""
    check_odd_prime(p)
    r = np.asarray(u) % p
    if np.any(r == 0):
        raise InvalidInput(f"p = {p} divides u = {u}")
    inv = [0, 1] + [0] * (p - 2)
    for k in range(2, p):
        inv[k] = -(p // k) * inv[p % k] % p
    M = math.isqrt(p - 1) + 1
    B = -(-p // M)
    coeffs = np.zeros(B * M, dtype=np.int64)
    coeffs[:p] = inv
    coeffs = coeffs.reshape(B, M)
    units = r.astype(np.int64).ravel()
    out = np.empty_like(units)
    width = (1 << 20) // M
    for lo in range(0, len(units), width):
        x = units[lo:lo + width]
        powers = np.empty((M, len(x)), dtype=np.int64)
        powers[0] = 1
        for i in range(1, M):
            powers[i] = powers[i - 1] * x % p
        step = powers[-1] * x % p
        blocks = coeffs @ powers % p
        acc = blocks[-1]
        for b in range(B - 2, -1, -1):
            acc = (acc * step + blocks[b]) % p
        out[lo:lo + width] = acc
    return int(out[0]) if r.ndim == 0 else out.reshape(r.shape)


@dataclass(frozen=True)
class TruncatedLogTable:
    """Values of L_p on units mod p and the level sets N_r over {2,...,p}."""

    p: int
    values: dict[int, int]
    level_sets: dict[int, list[int]]
    max_level_size: int


def log_level_sets(ctx: PrimeContext) -> TruncatedLogTable:
    """Tabulate L_p and its level sets N_r = {2 <= x <= p : L_p(x) == r}.

    L_p is read from ctx.pth_powers in O(p) by the binomial lemma
    1 - (1-u)^p == u^p + p L_p(u) mod p^2."""
    p, T = ctx.p, ctx.pth_powers
    u = np.arange(1, p)
    L = (1 - T[(1 - u) % p] - T[u]) % (p * p) // p
    values = dict(zip(range(1, p), L.tolist()))
    level_sets: dict[int, list[int]] = {}
    for x in range(2, p + 1):
        r = values[x] if x < p else 0  # x = p reduces to 0, where L_p vanishes
        level_sets.setdefault(r, []).append(x)
    max_size = max(len(s) for s in level_sets.values())
    bound = 44.0 * p ** (2.0 / 3.0)
    if max_size > bound:
        raise RuntimeError(
            f"level-set bound violated at p={p}: {max_size} > {bound:.3f}"
        )
    return TruncatedLogTable(p=p, values=values, level_sets=level_sets,
                             max_level_size=max_size)


def odd_primes_upto(n: int) -> list[int]:
    """Odd primes <= n by sieve."""
    if n < 3:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for d in range(2, int(math.isqrt(n)) + 1):
        if sieve[d]:
            sieve[d * d:: d] = bytearray(len(sieve[d * d:: d]))
    return [i for i in range(3, n + 1, 2) if sieve[i]]
