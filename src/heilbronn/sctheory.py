"""Generic supercharacter engine for unit-subgroup actions on Z/nZ:
orbits, character values, the symmetric unitary matrix U, structure
constants by enumeration, and the T_i matrices diagonalized by U.

The table uses orbit-stabilizer: a sum over the orbit X_i = r_i * A is
|X_i|/|A| times a sum over A, so each value is a scaled Gauss period."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modarith import InvalidInput


@dataclass(frozen=True)
class UnitAction:
    """A subgroup A of (Z/nZ)* given by generators, acting by multiplication."""

    n: int
    generators: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInput(f"modulus must be >= 2, got {self.n}")
        for g in self.generators:
            if math.gcd(g, self.n) != 1:
                raise InvalidInput(f"generator {g} is not a unit mod {self.n}")

    def subgroup(self) -> list[int]:
        """Elements of A by closure under multiplication; sorted."""
        elems = {1 % self.n}
        frontier = [1 % self.n]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = x * g % self.n
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return sorted(elems)


@dataclass(frozen=True, eq=False)
class SuperclassPartition:
    """Orbits X_1..X_N of A on Z/nZ as one read-only integer array, with
    labels[x] = i for x in X_i (1-based).  One stable argsort of the labels,
    taken at construction, lists each class in increasing order; members(i)
    is a view into it.  InvalidInput unless the labels are 1-D integers
    using exactly 1..N and n^2 fits the consumers' int64 products."""

    labels: np.ndarray = field(repr=False)
    _order: np.ndarray = field(init=False, repr=False)   # int64 residues by label
    _starts: np.ndarray = field(init=False, repr=False)  # offsets of X_1..X_N in _order

    def __post_init__(self):
        labels = np.asarray(self.labels).view()
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise InvalidInput("labels must be a 1-D integer array")
        n = len(labels)
        if n * n > np.iinfo(np.int64).max:
            raise InvalidInput(f"n = {n} overflows the int64 products r_i * r_j")
        order = np.argsort(labels, kind="stable").astype(np.int64, copy=False)
        ordered = labels[order]
        bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        if n == 0 or ordered[0] != 1 or ordered[-1] != len(bounds) + 1:
            raise InvalidInput("labels must use exactly the values 1..N")
        starts = np.concatenate(([0], bounds, [n]))
        for a in (labels, order, starts):
            a.flags.writeable = False
        vars(self).update(labels=labels, _order=order, _starts=starts)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return len(self._starts) - 1

    def size(self, i: int) -> int:
        return int(self._starts[i] - self._starts[i - 1])

    def representative(self, i: int) -> int:
        return int(self._order[self._starts[i - 1]])

    def members(self, i: int) -> np.ndarray:
        """X_i in increasing order, a read-only int64 view."""
        return self._order[self._starts[i - 1]:self._starts[i]]


def superclasses(action: UnitAction) -> SuperclassPartition:
    """Orbit partition of Z/nZ under multiplication by A, by closure over
    all n residues.

    Order: increasing minimal representative, zero class last.  The
    Heilbronn labeling X_1..X_{p+2} of the same orbits is built directly by
    `spectra.heilbronn_partition`.
    """
    n = action.n
    subgroup = np.array(action.subgroup(), dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    N = 0
    for x in range(1, n):
        if not labels[x]:
            N += 1
            labels[x * subgroup % n] = N
    labels[0] = N + 1
    return SuperclassPartition(labels)


def supercharacter_value(partition: SuperclassPartition, i: int, j: int,
                         debug: bool = False) -> complex:
    """sigma_i(X_j) = sum over x in X_i of e(x*y/n), y any element of X_j."""
    N = partition.num_classes
    if not (1 <= i <= N and 1 <= j <= N):
        raise IndexError(f"class index out of range: ({i},{j}) with N={N}")
    n = partition.n
    xs = partition.members(i)
    reps = partition.members(j) if debug else partition.members(j)[:1]
    vals = [np.exp(2j * np.pi * ((xs * y) % n) / n).sum() for y in reps.tolist()]
    if debug:
        spread = max(abs(v - vals[0]) for v in vals)
        if not spread < 1e-9 * len(xs):
            raise RuntimeError(
                f"sigma_{i} differs by {spread:.3g} across the elements of "
                f"X_{j}; the classes are not orbits")
    return complex(vals[0])


@dataclass(frozen=True)
class SupercharacterMatrices:
    """sigma table, the symmetric unitary U, and the eigenvalue diagonals."""

    partition: SuperclassPartition
    sigma: np.ndarray  # complex, sigma[i-1, j-1] = sigma_i(X_j)
    U: np.ndarray

    def D(self, i: int) -> np.ndarray:
        return np.diag(self.sigma[i - 1])


def _is_unit_subgroup(A: np.ndarray, in_A: np.ndarray, n: int) -> bool:
    """Whether the residues A (in_A their indicator mod n) form a subgroup of
    (Z/nZ)*: each a outside the subgroup H generated so far must map A into
    A, and H grows to <H, a>.  O(|A| log|A|), not the |A|^2 of all a * b."""
    if np.any(np.gcd(A, n) != 1):
        return False
    in_H = np.zeros(n, dtype=bool)
    in_H[1 % n] = True
    H = np.ones(1, dtype=np.int64)
    for a in A.tolist():
        if in_H[a]:
            continue
        if not in_A[A * a % n].all():
            return False
        powers, x = [1], a
        while not in_H[x]:
            powers.append(x)
            x = x * a % n
        H = (np.array(powers)[:, None] * H[None, :] % n).ravel()
        in_H[H] = True
    return True


def build_U(partition: SuperclassPartition) -> SupercharacterMatrices:
    """U[i,j] = sigma_i(X_j) * sqrt(|X_j|) / (sqrt(n) * sqrt(|X_i|)).

    A is the class containing 1 and r_k the first element of X_k.  If A is
    a group of units and the classes are A-orbits, the products r_k * a,
    a in A, hit every member of X_k exactly |A|/|X_k| times, so

        sigma_i(X_j) = |X_i|/|A| * eta(r_i * r_j),

    with eta(t) = sum over a in A of e(t*a/n) constant on each class.  The N
    Gauss periods eta(r_k) are gathered from a length-n phase table of the
    exact residues r_k * a mod n, and sigma is one N x N gather of them by
    the label of r_i * r_j mod n: O(N*|A| + N^2) time after the O(n) table.
    Raises InvalidInput if A is not a subgroup or the products do not cover
    each class in that way, so a partition that is not made of A-orbits
    fails instead of giving a wrong sigma.
    """
    N = partition.num_classes
    n = partition.n
    labels = partition.labels
    A = partition.members(labels[1])
    reps = partition._order[partition._starts[:-1]]
    sizes = np.diff(partition._starts)
    if not _is_unit_subgroup(A, labels == labels[1], n):
        raise InvalidInput("the classes are not orbits: the class of 1 is "
                           "not a subgroup of the units")
    products = reps[:, None] * A[None, :] % n
    if not (np.all(labels[products] == np.arange(1, N + 1)[:, None])
            and np.all(np.bincount(products.ravel(), minlength=n)
                       * sizes[labels - 1] == len(A))):
        raise InvalidInput("the classes are not orbits of the class of 1: "
                           "some r_k * A does not cover X_k evenly")
    phase = np.exp(2j * np.pi * np.arange(n) / n)
    eta = phase[products].sum(axis=1)
    sigma = (sizes / len(A))[:, None] * eta[labels[reps[:, None] * reps[None, :] % n] - 1]
    root = np.sqrt(sizes)
    U = sigma * root[None, :] / (np.sqrt(n) * root[:, None])
    return SupercharacterMatrices(partition=partition, sigma=sigma, U=U)


@dataclass(frozen=True)
class StructureTensor:
    """Nonnegative integers c(i,j,k): pair counts x+y == z with x in X_i,
    y in X_j, z a fixed representative of X_k."""

    N: int
    c: np.ndarray  # int64, shape (N, N, N), 0-based internally
    origin: str  # "enumeration" | "spectral"

    def __call__(self, i: int, j: int, k: int) -> int:
        return int(self.c[i - 1, j - 1, k - 1])


def structure_constants_enumerated(partition: SuperclassPartition,
                                   i: int, j: int, k: int,
                                   debug: bool = False) -> int:
    """Count pairs (x,y) in X_i x X_j with x + y == z mod n, z the minimal
    representative of X_k.  Debug mode re-counts with a second representative."""
    n = partition.n
    reps = partition.members(k)

    def count(z: int) -> int:
        xs = partition.members(i)
        return int(np.count_nonzero(partition.labels[(z - xs) % n] == j))

    c = count(reps[0])
    if debug and len(reps) > 1 and count(reps[1]) != c:
        raise RuntimeError(
            f"c({i},{j},{k}) depends on the representative of X_{k}")
    return c


def structure_tensor_enumerated(partition: SuperclassPartition) -> StructureTensor:
    """Full tensor by exhaustive counting, O(N * n) per representative choice."""
    n = partition.n
    N = partition.num_classes
    labels = partition.labels.astype(np.int64) - 1
    x = np.arange(n)
    c = np.zeros((N, N, N), dtype=np.int64)
    for k in range(1, N + 1):
        z = partition.representative(k)
        pairs = labels * N + labels[(z - x) % n]
        c[:, :, k - 1] = np.bincount(pairs, minlength=N * N).reshape(N, N)
    return StructureTensor(N=N, c=c, origin="enumeration")


def build_T(partition: SuperclassPartition, tensor: StructureTensor,
            i: int) -> np.ndarray:
    """[T_i]_{j,k} = c(i,j,k) * sqrt(|X_k|) / sqrt(|X_j|)."""
    root = np.sqrt(np.diff(partition._starts))
    return tensor.c[i - 1] * root[None, :] / root[:, None]
