import math

import numpy as np
import pytest

from heilbronn.modarith import InvalidInput, build_context
from heilbronn.sctheory import (SuperclassPartition, UnitAction, build_T,
                                build_U,
                                structure_constants_enumerated,
                                structure_tensor_enumerated, superclasses,
                                supercharacter_value)
from heilbronn.spectra import heilbronn_partition


def heilbronn_partition_for(p):
    return heilbronn_partition(build_context(p))


def classes_of(part):
    """The classes X_1..X_N as tuples of residues."""
    return [tuple(part.members(i).tolist())
            for i in range(1, part.num_classes + 1)]


def partition_of(n, classes):
    """The partition with X_i = classes[i-1], from its label array."""
    labels = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(classes, start=1):
        labels[list(c)] = i
    return SuperclassPartition(labels)


def ramanujan_sum(n, x):
    """Classical Ramanujan sum c_n(x) by direct summation over units mod n."""
    return sum(np.exp(2j * np.pi * j * x / n)
               for j in range(1, n + 1) if math.gcd(j, n) == 1)


ORACLE_PARTITIONS = {
    "Z/9<8>": lambda: superclasses(UnitAction(9, (8,))),
    "Z/10<3>": lambda: superclasses(UnitAction(10, (3,))),
    "Z/45<2>": lambda: superclasses(UnitAction(45, (2,))),
    "Z/100<3,7>": lambda: superclasses(UnitAction(100, (3, 7))),
    "Z/12 trivial": lambda: superclasses(UnitAction(12, (1,))),
    "heilbronn p=3": lambda: heilbronn_partition_for(3),
    "heilbronn p=13": lambda: heilbronn_partition_for(13),
    "heilbronn p=101": lambda: heilbronn_partition_for(101),
    "heilbronn p=199": lambda: heilbronn_partition_for(199),
    # non-trivial stabilizers: the orbit of 512 under <3> mod 1024 is {512}
    "Z/1024<3>": lambda: superclasses(UnitAction(1024, (3,))),
    "Z/2310<13,17>": lambda: superclasses(UnitAction(2310, (13, 17))),
}


class TestSuperclasses:
    def test_mod9_pth_power_action(self):
        part = superclasses(UnitAction(9, (8,)))
        assert set(classes_of(part)) == {(1, 8), (2, 7), (4, 5), (3, 6), (0,)}

    def test_trivial_action_gives_singletons(self):
        part = superclasses(UnitAction(7, (1,)))
        assert all(len(c) == 1 for c in classes_of(part))
        assert part.num_classes == 7

    def test_full_unit_group_mod6(self):
        # Ramanujan-sum superclasses are the divisor classes
        part = superclasses(UnitAction(6, (5,)))
        assert set(classes_of(part)) == {(1, 5), (2, 4), (3,), (0,)}

    def test_partition_covers_everything(self):
        for n, gens in [(9, (8,)), (25, (7,)), (12, (5, 7))]:
            part = superclasses(UnitAction(n, gens))
            members = sorted(x for c in classes_of(part) for x in c)
            assert members == list(range(n))
            assert all(part.labels[x] == i
                       for i, c in enumerate(classes_of(part), 1) for x in c)

    def test_rejects_non_unit_generator(self):
        with pytest.raises(InvalidInput):
            superclasses(UnitAction(9, (3,)))

    def test_zero_class_is_singleton(self):
        part = superclasses(UnitAction(10, (3,)))
        assert (0,) in classes_of(part)


class TestSuperclassPartition:
    def test_derived_from_labels(self):
        part = SuperclassPartition(np.array([3, 1, 2, 1, 2, 2]))
        assert (part.n, part.num_classes) == (6, 3)
        assert classes_of(part) == [(1, 3), (2, 4, 5), (0,)]
        assert [part.size(i) for i in (1, 2, 3)] == [2, 3, 1]
        assert [part.representative(i) for i in (1, 2, 3)] == [1, 2, 0]
        assert part.members(2).dtype == np.int64

    def test_arrays_are_read_only(self):
        part = superclasses(UnitAction(9, (8,)))
        for array in (part.labels, part.members(1)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("labels", [[1, 0, 2], [1, 3, 3], [[1, 2], [2, 1]],
                                        [], [1.0, 2.0]],
                             ids=["zero", "gap", "2-D", "empty", "float"])
    def test_rejects_bad_labels(self, labels):
        with pytest.raises(InvalidInput, match="labels"):
            SuperclassPartition(np.array(labels))


class TestSupercharacterValue:
    def test_value_at_zero_class_is_class_size(self):
        part = heilbronn_partition_for(5)
        zero = part.num_classes
        for i in range(1, part.num_classes + 1):
            v = supercharacter_value(part, i, zero)
            assert v == pytest.approx(part.size(i))

    def test_mod9_heilbronn_value(self):
        # sigma at (class of A, class of A): A = {1, 8} mod 9
        part = superclasses(UnitAction(9, (8,)))
        i = part.labels[1]
        v = supercharacter_value(part, i, i)
        expected = sum(math.cos(2 * math.pi * x / 9) for x in (1, 8))
        assert v.real == pytest.approx(expected)
        assert abs(v.imag) < 1e-12

    def test_real_when_closed_under_negation(self):
        part = heilbronn_partition_for(7)
        for i in range(1, part.num_classes + 1):
            for j in range(1, part.num_classes + 1):
                assert abs(supercharacter_value(part, i, j).imag) < 1e-10

    def test_representative_independence_debug(self):
        part = heilbronn_partition_for(5)
        supercharacter_value(part, 2, 3, debug=True)

    def test_index_out_of_range(self):
        part = heilbronn_partition_for(3)
        with pytest.raises(IndexError):
            supercharacter_value(part, 0, 1)
        with pytest.raises(IndexError):
            supercharacter_value(part, 1, part.num_classes + 1)


class TestBuildU:
    def test_unitary_and_symmetric_p7(self):
        mats = build_U(heilbronn_partition_for(7))
        N = mats.U.shape[0]
        assert np.abs(mats.U @ mats.U.conj().T - np.eye(N)).max() < 1e-10
        assert np.abs(mats.U - mats.U.T).max() < 1e-10

    def test_zero_class_row(self):
        part = heilbronn_partition_for(5)
        mats = build_U(part)
        n = part.n
        expected = [math.sqrt(part.size(j)) / math.sqrt(n)
                    for j in range(1, part.num_classes + 1)]
        assert np.abs(mats.U[-1].real - np.array(expected)).max() < 1e-12

    def test_sigma_constant_on_superclasses(self):
        part = superclasses(UnitAction(10, (9,)))
        for i in range(1, part.num_classes + 1):
            for j in range(1, part.num_classes + 1):
                ref = supercharacter_value(part, i, j)
                for y in part.members(j):
                    xs = part.members(i)
                    v = np.exp(2j * np.pi * ((xs * y) % 10) / 10).sum()
                    assert abs(v - ref) < 1e-10


@pytest.mark.parametrize("name", sorted(ORACLE_PARTITIONS))
class TestBuildUAgainstOracle:
    """The vectorised table against the per-entry supercharacter_value."""

    def test_sigma_matches_per_entry_values(self, name):
        part = ORACLE_PARTITIONS[name]()
        sigma = build_U(part).sigma
        N = part.num_classes
        assert sigma.shape == (N, N)
        for i in range(1, N + 1):
            tol = 1e-12 * part.size(i)
            for j in range(1, N + 1):
                assert abs(sigma[i - 1, j - 1]
                           - supercharacter_value(part, i, j)) <= tol

    def test_U_symmetric_and_unitary(self, name):
        U = build_U(ORACLE_PARTITIONS[name]()).U
        N = U.shape[0]
        assert np.abs(U - U.T).max() < 1e-10
        assert np.abs(U @ U.conj().T - np.eye(N)).max() < 1e-10


def test_build_U_makes_no_per_entry_calls(monkeypatch):
    import heilbronn.sctheory as sctheory_mod

    def forbidden(*args, **kwargs):
        raise RuntimeError("supercharacter_value called")

    part = heilbronn_partition_for(13)
    monkeypatch.setattr(sctheory_mod, "supercharacter_value", forbidden)
    build_U(part)


def corrupted_partition():
    """Z/9 with 1 and 2 lumped into one 'class': not an orbit partition."""
    return SuperclassPartition(np.array([5, 1, 1, 2, 3, 3, 2, 4, 4]))


def moved_residue_partition():
    """heilbronn p=7 with one non-representative of X_1 moved into X_2;
    X_1 and X_2 are no longer orbits."""
    part = heilbronn_partition_for(7)
    labels = part.labels.copy()
    labels[part.members(1)[1]] = 2
    return SuperclassPartition(labels)


def merged_orbits_partition():
    """heilbronn p=7 with X_1 and X_2 merged into one class: every product
    r_k * a keeps its label, but half the merged class is never hit."""
    part = heilbronn_partition_for(7)
    return SuperclassPartition(np.maximum(part.labels - 1, 1))


def split_orbit_partition():
    """heilbronn p=7 with X_1 split into two halves: every member is still
    hit |A|/|half| times, but r_1 * A runs into the other half."""
    part = heilbronn_partition_for(7)
    labels = part.labels + 1
    labels[part.members(1)[:3]] = 1
    return SuperclassPartition(labels)


def non_group_pairs_partition():
    """Z/13 in pairs {r, 4r}: each r_k * {1, 4} covers X_k once, but
    {1, 4} is not a group (4 * 4 = 3), so the Gauss period is not constant
    on classes and the orbit-stabilizer table would be wrong by ~2."""
    return partition_of(13, ((1, 4), (2, 8), (3, 12), (5, 7), (6, 11),
                             (9, 10), (0,)))


def merged_stabilizer_partition():
    """Z/1024 under <3> with the orbit {512} merged into {256, 768}: every
    product r_k * a keeps its label, but r = 256 has a stabilizer of 128 in
    the 256 elements of A, and 3 * 128 != 256."""
    classes = classes_of(superclasses(UnitAction(1024, (3,))))
    merged = [c for c in classes if c not in ((512,), (256, 768))]
    return partition_of(1024, merged + [(256, 512, 768)])


class TestBuildUValidation:
    @pytest.mark.parametrize("make", [moved_residue_partition,
                                      merged_orbits_partition,
                                      merged_stabilizer_partition,
                                      split_orbit_partition,
                                      non_group_pairs_partition,
                                      corrupted_partition])
    def test_non_orbit_partition_raises(self, make):
        with pytest.raises(InvalidInput, match="not orbits"):
            build_U(make())

    def test_rejects_int64_overflow_before_allocating(self):
        # r_i * r_j < n^2 must fit in int64; the check precedes every array,
        # and the zero-stride labels of n = 2^32 allocate nothing
        labels = np.broadcast_to(np.uint8(1), (2 ** 32,))
        with pytest.raises(InvalidInput, match="int64"):
            build_U(SuperclassPartition(labels))


class TestDebugChecks:
    """The debug checks raise RuntimeError, so python -O keeps them."""

    def test_supercharacter_value_on_corrupted_classes(self):
        part = corrupted_partition()
        supercharacter_value(part, 1, 1)
        with pytest.raises(RuntimeError, match="not orbits"):
            supercharacter_value(part, 1, 1, debug=True)

    def test_structure_constant_on_corrupted_classes(self):
        # x + y == z with x, y in {1, 2}: two pairs for z = 3, none for z = 6
        part = corrupted_partition()
        assert structure_constants_enumerated(part, 1, 1, 2) == 2
        with pytest.raises(RuntimeError, match="representative"):
            structure_constants_enumerated(part, 1, 1, 2, debug=True)


class TestStructureConstants:
    def test_mod9_examples(self):
        part = superclasses(UnitAction(9, (8,)))
        a = part.labels[1]       # class {1, 8}
        k27 = part.labels[2]     # class {2, 7}
        k45 = part.labels[4]     # class {4, 5}
        assert structure_constants_enumerated(part, a, a, k27) == 1
        assert structure_constants_enumerated(part, a, a, k45) == 0

    def test_adding_zero_class(self):
        part = heilbronn_partition_for(5)
        zero = part.num_classes
        for i in range(1, zero + 1):
            for k in range(1, zero + 1):
                c = structure_constants_enumerated(part, i, zero, k)
                assert c == (1 if k == i else 0)

    def test_representative_independence(self):
        for p in (3, 5, 7, 11):
            part = heilbronn_partition_for(p)
            N = part.num_classes
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    for k in range(1, N + 1):
                        structure_constants_enumerated(part, i, j, k, debug=True)

    def test_tensor_matches_per_triple_counts(self):
        part = heilbronn_partition_for(5)
        tensor = structure_tensor_enumerated(part)
        N = part.num_classes
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                for k in range(1, N + 1):
                    assert tensor(i, j, k) == \
                        structure_constants_enumerated(part, i, j, k)

    def test_product_identity(self):
        # sigma_i sigma_j = sum_k c(i,j,k) sigma_k, entrywise
        for p in (3, 5, 7):
            part = heilbronn_partition_for(p)
            mats = build_U(part)
            tensor = structure_tensor_enumerated(part)
            N = part.num_classes
            prod = mats.sigma[:, None, :] * mats.sigma[None, :, :]
            recon = np.einsum("ijk,kl->ijl", tensor.c.astype(float), mats.sigma)
            assert np.abs(prod - recon).max() < 1e-8


class TestTMatrices:
    def test_diagonalization_law_p7(self):
        part = heilbronn_partition_for(7)
        mats = build_U(part)
        tensor = structure_tensor_enumerated(part)
        for i in range(1, part.num_classes + 1):
            T = build_T(part, tensor, i)
            assert np.abs(T @ mats.U - mats.U @ mats.D(i)).max() < 1e-8

    def test_zero_class_gives_identity(self):
        part = heilbronn_partition_for(5)
        tensor = structure_tensor_enumerated(part)
        T = build_T(part, tensor, part.num_classes)
        assert np.array_equal(T, np.eye(part.num_classes))

    def test_pairwise_commuting(self):
        part = heilbronn_partition_for(7)
        tensor = structure_tensor_enumerated(part)
        Ts = [build_T(part, tensor, i)
              for i in range(1, part.num_classes + 1)]
        for A in Ts:
            for B in Ts:
                assert np.abs(A @ B - B @ A).max() < 1e-8

    def test_normality(self):
        for n, gens in [(9, (8,)), (25, (7,)), (121, (3,))]:
            part = superclasses(UnitAction(n, gens))
            tensor = structure_tensor_enumerated(part)
            for i in range(1, part.num_classes + 1):
                T = build_T(part, tensor, i)
                assert np.abs(T.T @ T - T @ T.T).max() < 1e-9


class TestRamanujanCrossCheck:
    @pytest.mark.parametrize("n", [6, 10, 12])
    def test_values_match_direct_sums(self, n):
        # full unit group action: sigma values are classical Ramanujan sums
        gens = tuple(u for u in range(1, n) if math.gcd(u, n) == 1)
        part = superclasses(UnitAction(n, gens))
        # the unit-class row evaluates c_n at any representative of each class
        i = part.labels[1]
        for j in range(1, part.num_classes + 1):
            x = part.representative(j)
            v = supercharacter_value(part, i, j)
            assert abs(v - ramanujan_sum(n, x)) < 1e-10
