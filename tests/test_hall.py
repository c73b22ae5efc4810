import hashlib
import random
from fractions import Fraction
from itertools import product as iter_product
from math import prod

import pytest

from quasiflags.errors import NonGenericParameter
from quasiflags.hall import (MAX_AMBIENT_DIM, SUPPORTED_FIELD_SIZES,
                             QuiverRepClass, _conjugates, all_ones_unitriangular,
                             candidate_classes, check_product_identity,
                             class_matrix, conjugator_check, conjugator_matrix,
                             hall_count, indecomposable_matrix,
                             root_exponential_product, unipotent_product)
from quasiflags.matrices import Matrix
from quasiflags.roots import positive_root_pairs_descending


def E(i, j, n):
    return Matrix.unit(i, j, n)


def test_indecomposable_simple_case():
    for n in (2, 3, 4):
        for i in range(1, n):
            assert indecomposable_matrix(i, 1, n) == E(i + 1, i, n)


def test_indecomposable_commutator_example():
    assert indecomposable_matrix(1, 2, 3) == E(3, 2, 3) * E(2, 1, 3) - E(2, 1, 3) * E(3, 2, 3)
    assert indecomposable_matrix(1, 2, 3) == E(3, 1, 3)


def test_indecomposable_collapses_for_all_labels():
    for n in range(2, 7):
        for i in range(1, n):
            for l in range(1, n - i + 1):
                mat = indecomposable_matrix(i, l, n)
                assert mat == E(i + l, i, n)
                power = mat
                for _ in range(n - 1):
                    power = power * mat
                assert power.is_zero()


def test_class_matrix_examples():
    assert class_matrix(QuiverRepClass.indecomposable(1, 2), 3) == E(3, 1, 3)
    two_simples = QuiverRepClass({(1, 1): 1, (2, 1): 1})
    assert class_matrix(two_simples, 3) == E(2, 1, 3) * E(3, 2, 3)
    # divided square of a matrix unit vanishes in the realization
    assert class_matrix(QuiverRepClass({(1, 1): 2}), 3).is_zero()


def test_class_matrix_rejects_a_label_outside_the_quiver():
    # n = 3 is the A_2 quiver, which has no vertex 3
    with pytest.raises(ValueError, match=r"\[3; 1\]"):
        class_matrix(QuiverRepClass.indecomposable(3, 1), 3)


def test_hall_consistency_identity():
    lhs = E(3, 2, 3) * E(2, 1, 3)
    rhs = (class_matrix(QuiverRepClass({(1, 1): 1, (2, 1): 1}), 3)
           + class_matrix(QuiverRepClass.indecomposable(1, 2), 3))
    assert lhs == rhs
    assert lhs == E(3, 1, 3)


REFERENCE_COUNTS = [
    # (sub, quotient, ambient, expected count)
    (QuiverRepClass.indecomposable(2, 1), QuiverRepClass.indecomposable(1, 1),
     QuiverRepClass.indecomposable(1, 2), 1),
    (QuiverRepClass.indecomposable(1, 1), QuiverRepClass.indecomposable(2, 1),
     QuiverRepClass.indecomposable(1, 2), 0),
    (QuiverRepClass.indecomposable(2, 1), QuiverRepClass.indecomposable(1, 1),
     QuiverRepClass({(1, 1): 1, (2, 1): 1}), 1),
]


@pytest.mark.parametrize("q", [2, 3])
def test_reference_hall_counts(q):
    for sub, quot, ambient, expected in REFERENCE_COUNTS:
        assert hall_count(sub, quot, ambient, q) == expected


def test_hall_count_guards():
    amb = QuiverRepClass({(1, 1): 5})
    simple = QuiverRepClass.indecomposable(1, 1)
    with pytest.raises(ValueError):
        hall_count(simple, simple, amb, 2)      # dimension cap
    with pytest.raises(ValueError):
        hall_count(simple, simple, QuiverRepClass({(1, 1): 2}), 5)  # field size
    # dimension mismatch is a zero count, not an error
    assert hall_count(simple, simple, QuiverRepClass.indecomposable(1, 2), 2) == 0


def _ambient_dims(n):
    """Every dimension vector of the A_{n-1} quiver of total at most MAX_AMBIENT_DIM."""
    return [d for d in iter_product(range(MAX_AMBIENT_DIM + 1), repeat=n - 1)
            if sum(d) <= MAX_AMBIENT_DIM]


def _sub_dims(dims):
    return list(iter_product(*(range(d + 1) for d in dims)))


def _sweep(max_n):
    """Every (n, sub, quotient, ambient, q) with n <= max_n, the ambient of
    dimension at most MAX_AMBIENT_DIM (zero included), and the sub and quotient
    dimension vectors adding up to the ambient's."""
    for n in range(2, max_n + 1):
        for dims in _ambient_dims(n):
            for ambient in candidate_classes(dims, n):
                for s in _sub_dims(dims):
                    rest = tuple(d - x for d, x in zip(dims, s))
                    for sub in candidate_classes(s, n):
                        for quot in candidate_classes(rest, n):
                            for q in SUPPORTED_FIELD_SIZES:
                                yield n, sub, quot, ambient, q


# sha256 of the canonical case list below, for n <= 4 taken from the
# frozenset-of-vectors enumeration with 0/1 edge matrices that preceded the
# echelon-basis one (2,248 cases, 1,128 of them nonzero), for n <= 5 from the
# Krull-Schmidt classification that preceded the rank-table comparison (7,008
# cases, 3,176 of them nonzero).  No ambient of dimension <= 4 needs n > 5.
SWEEP_N4_SHA256 = "80c816499b557a958775318d28a95764c5775b8393bf5ea36a174b90df7126f6"
SWEEP_N5_SHA256 = "9d4735edca00f847dbe76bd576e5bd74e8b01f8e5f094da778898d62a726b4b0"


@pytest.mark.parametrize("max_n, cases, nonzero, digest", [
    (4, 2248, 1128, SWEEP_N4_SHA256),
    (5, 7008, 3176, SWEEP_N5_SHA256),
], ids=["n4", "n5"])
def test_hall_counts_match_the_pinned_sweep(max_n, cases, nonzero, digest):
    counts = {}
    lines = []
    for n, sub, quot, ambient, q in _sweep(max_n):
        key = (sub, quot, ambient, q)
        if key not in counts:
            counts[key] = hall_count(sub, quot, ambient, q)
        lines.append(f"{n} {sub.label()} / {quot.label()} / {ambient.label()} "
                     f"q={q}: {counts[key]}")
    assert len(lines) == cases
    assert sum(not line.endswith(": 0") for line in lines) == nonzero
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def _gaussian_binomial(d, s, q):
    num = den = 1
    for i in range(s):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_semisimple_ambient_counts_are_gaussian_binomials():
    """All edge maps of a sum of simples vanish, so every tuple of subspaces
    is a subrepresentation: summed over sub and quotient classes, the count
    for sub dimension vector s is the product of [dims_v choose s_v]_q."""
    for n in range(2, 5):
        for dims in _ambient_dims(n):
            ambient = QuiverRepClass({(v, 1): d for v, d in enumerate(dims, 1)})
            for s in _sub_dims(dims):
                rest = tuple(d - x for d, x in zip(dims, s))
                for q in SUPPORTED_FIELD_SIZES:
                    total = sum(hall_count(sub, quot, ambient, q)
                                for sub in candidate_classes(s, n)
                                for quot in candidate_classes(rest, n))
                    expected = 1
                    for d, x in zip(dims, s):
                        expected *= _gaussian_binomial(d, x, q)
                    assert total == expected, (dims, s, q)


def test_non_integral_input_is_rejected_not_truncated():
    with pytest.raises(ValueError, match=r"non-integral entry in \[1\.7; 2\.2\]"):
        QuiverRepClass({(1.7, 2.2): 1.5})
    with pytest.raises(ValueError, match=r"multiplicity 1\.5"):
        QuiverRepClass({(1, 2): 1.5})
    with pytest.raises(ValueError, match=r"\(1\.5, 1\)"):
        candidate_classes((1.5, 1), 3)
    # integral values of other types are accepted and stored as ints
    assert QuiverRepClass({(1.0, Fraction(2)): 1.0}) == QuiverRepClass({(1, 2): 1})
    assert all(type(x) is int for key, k in QuiverRepClass({(1.0, 2.0): 2.0}).mults.items()
               for x in (*key, k))
    assert candidate_classes((1.0, Fraction(1)), 3) == candidate_classes((1, 1), 3)


def test_candidate_classes_dimension_vector():
    found = candidate_classes((1, 1), 3)
    labels = {c.label() for c in found}
    assert labels == {"[1;2]", "[1;1] + [2;1]"}
    for c in found:
        assert c.dimension_vector(3) == (1, 1)


def test_candidate_classes_match_a_filtered_product():
    """Every multiplicity vector over the labels (i, l), each entry bounded by
    the smallest dimension on its support, kept when the dimensions match."""
    for n, dims in ((4, (2, 1, 2)), (4, (1, 3, 1)), (5, (2, 1, 2, 1)),
                    (5, (1, 2, 2, 1)), (6, (1, 1, 2, 1, 1)), (6, (2, 1, 1, 1, 1))):
        labels = [(i, l) for i in range(1, n) for l in range(1, n - i + 1)]
        bounds = [range(min(dims[i - 1:i + l - 1]) + 1) for i, l in labels]
        expected = [QuiverRepClass(zip(labels, ks)) for ks in iter_product(*bounds)]
        expected = sorted((c for c in expected if c.dimension_vector(n) == dims),
                          key=lambda c: c.label())
        assert candidate_classes(dims, n) == expected, (n, dims)


def test_product_identity_all_a2_indecomposables():
    indecs = [QuiverRepClass.indecomposable(1, 1),
              QuiverRepClass.indecomposable(2, 1),
              QuiverRepClass.indecomposable(1, 2)]
    for left in indecs:
        for right in indecs:
            result = check_product_identity(left, right, 3)
            assert result["holds"], (left.label(), right.label())


def test_q_dependent_counts_only_at_annihilated_classes():
    simple = QuiverRepClass.indecomposable(1, 1)
    result = check_product_identity(simple, simple, 3)
    assert result["q_dependent_classes"] == ["2*[1;1]"]
    assert class_matrix(QuiverRepClass({(1, 1): 2}), 3).is_zero()
    counts = result["counts"]["2*[1;1]"]
    assert counts == {2: 3, 3: 4}  # q + 1 subspace lines


def test_unipotent_product_small():
    assert unipotent_product(2) == Matrix([[1, 1], [0, 1]])
    for n in range(3, 7):
        assert unipotent_product(n) == all_ones_unitriangular(n)


def test_unit_products_vanish_in_descending_order():
    for n in range(3, 7):
        pairs = positive_root_pairs_descending(n)
        for idx, (i, j) in enumerate(pairs):
            for (ip, jp) in pairs[idx + 1:]:
                assert (E(i, j, n) * E(ip, jp, n)).is_zero()


def test_ascending_order_breaks_identity():
    for n in (3, 4, 5):
        ascending = list(reversed(positive_root_pairs_descending(n)))
        assert root_exponential_product(n, ascending) != all_ones_unitriangular(n)


def exp_series(m):
    """exp of a nilpotent matrix as the finite series sum_k m^k / k!."""
    n = m.size
    result, power = Matrix.identity(n), Matrix.identity(n)
    for k in range(1, n + 1):
        power = power * m.scale(Fraction(1, k))
        result = result + power
    return result


def test_root_exponentials_match_exponential_series():
    rng = random.Random(12)
    for n in range(2, 7):
        descending = positive_root_pairs_descending(n)
        shuffled = rng.sample(descending, len(descending))
        for pairs in (descending, list(reversed(descending)), shuffled):
            expected = Matrix.identity(n)
            for i, j in pairs:
                expected = expected * exp_series(E(i, j, n))
            product = root_exponential_product(n, pairs)
            assert product == expected
            assert all(type(e) is int for row in product.rows for e in row)


def test_root_exponential_rejects_diagonal_unit():
    with pytest.raises(ValueError):
        root_exponential_product(3, [(2, 2)])


def test_conjugator_n2_entry():
    t = (Fraction(5), Fraction(2))
    x = conjugator_matrix(t)
    assert x.rows[0][1] == 1 / (t[0] / t[1] - 1)
    report = conjugator_check(2, t)
    assert report["passed"]


def test_conjugator_n3_reference_point():
    report = conjugator_check(3, (Fraction(2), Fraction(3), Fraction(5)))
    assert report["conjugation_identity"]
    assert report["evaluation_identity"]


def test_conjugator_n5_random_rationals():
    t = (Fraction(7, 2), Fraction(-3), Fraction(11, 4), Fraction(5), Fraction(-1, 3))
    assert conjugator_check(5, t)["passed"]


def test_integer_conjugator_matches_the_fraction_formula():
    """conjugator_matrix and the evaluation target, computed on the integer
    scaling of t, against the docstrings' Fraction formulas at t with
    negative and fractional entries."""
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(2, 6)
        t = []
        while len(t) < n:
            v = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if v and v not in t:
                t.append(v)
        expected = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                entry = 1 / (t[i] / t[j] - 1)
                for k in range(i + 1, j):
                    entry *= 1 / (1 - t[k] / t[i])
                expected[i][j] = entry
        x = conjugator_matrix(t)
        assert x.rows == tuple(map(tuple, expected))
        target = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                target *= 1 / (1 - t[j] / t[i])
        row_sums = [sum(row, Fraction(0)) for row in expected]
        assert target == prod(row_sums)
        assert conjugator_check(n, t)["passed"]


def test_conjugator_rejects_degenerate_scales():
    with pytest.raises(NonGenericParameter):
        conjugator_matrix((Fraction(1), Fraction(1)))
    with pytest.raises(NonGenericParameter):
        conjugator_matrix((Fraction(0), Fraction(2)))


def test_entrywise_conjugation_matches_dense_products():
    """The prefix-sum check against x * g * diag(t) == diag(t) * x with dense
    products, at the conjugator and at a copy with one off-diagonal entry
    perturbed, where both must read False."""
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 6)
        t = []
        while len(t) < n:
            v = Fraction(rng.randint(-30, 30), rng.randint(1, 5))
            if v and v not in t:
                t.append(v)
        diag = Matrix.diagonal(t)

        def dense(x):
            return x * all_ones_unitriangular(n) * diag == diag * x

        x = conjugator_matrix(t)
        assert _conjugates(x, t) and dense(x)
        i, j = rng.sample(range(n), 2)
        rows = [list(row) for row in x.rows]
        rows[i][j] += Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        perturbed = Matrix(rows)
        assert not _conjugates(perturbed, t) and not dense(perturbed)
