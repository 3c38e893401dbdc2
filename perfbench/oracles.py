"""Reference answers the benchmark checks the library against.

None of them touches a PrimeContext's dlog table: Fermat counts come from
membership in A = {r^p mod p^2}, and superclass labels from the Fermat
quotient q(v) = (v^(p-1) - 1)/p mod p, which is additive on units mod p^2
and vanishes exactly on A, so the class of v is q(v) * q(g)^-1 mod p.
"""

from __future__ import annotations

import numpy as np

# a * r^p < p^4 must fit int64 in fermat_count.
MAX_PRIME = 55_108


def teichmuller(p: int) -> np.ndarray:
    """T[r] = r^p mod p^2 for 0 <= r < p; T[1:] lists A."""
    if p >= MAX_PRIME:
        raise ValueError(f"p = {p} overflows int64 arithmetic")
    p2 = p * p
    return np.array([pow(r, p, p2) for r in range(p)], dtype=np.int64)


def fermat_count(p: int, a: int, b: int, c: int, lift: np.ndarray) -> int:
    """F(p;a,b,c) = #{u in A : (a u + b) c^-1 mod p^2 in A}, with lift from
    teichmuller(p).  v lies in A iff p does not divide v and v = T[v mod p]."""
    p2 = p * p
    v = (a % p2 * lift[1:] + b % p2) % p2 * pow(c, -1, p2) % p2
    r = v % p
    return int(np.count_nonzero((r != 0) & (lift[r] == v)))


def fermat_quotient(v: int, p: int) -> int:
    return (pow(v, p - 1, p * p) - 1) // p % p


def tensor_entry(p: int, g: int, j: int, k: int, lift: np.ndarray) -> int:
    """c(p,j,k) = #{a in A : g^k - a in X_j}, since X_p = A."""
    p2 = p * p
    z = pow(g, k, p2)
    inv_qg = pow(fermat_quotient(g, p), -1, p)
    count = 0
    for a in lift[1:].tolist():
        v = (z - a) % p2
        if v % p and (fermat_quotient(v, p) * inv_qg - j) % p == 0:
            count += 1
    return count
