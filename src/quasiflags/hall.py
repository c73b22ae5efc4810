"""The Hall algebra of the equioriented A-type quiver, realized in matrices.

Isomorphism classes of quiver representations are multisets of interval
indecomposables [i; l] (support on vertices i..i+l-1, all edge maps
isomorphisms).  Sending the class of the simple at vertex i to the matrix
unit E_{i+1,i} realizes the q=1 Hall algebra inside n x n matrices; the
structure constants themselves are counted here by brute force over a finite
field.  Each subspace is its reduced row-echelon basis, and the ambient's edge
maps are coordinate maps (each coordinate belongs to one indecomposable copy,
and a map keeps it or drops it), so one elimination mod q decides both edge
closure and the composed-map ranks that sub and quotient must share with their
target classes.

The same module houses the two closed multiplicative identities used by the
verification suite: the descending product of root exponentials equals the
all-ones unitriangular matrix, and the explicit unitriangular conjugator
turning that matrix times a diagonal into the diagonal again.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product as iter_product
from math import factorial, lcm, prod

from .errors import NonGenericParameter
from .matrices import Matrix
from .roots import positive_root_pairs_descending

MAX_AMBIENT_DIM = 4
SUPPORTED_FIELD_SIZES = (2, 3)


class QuiverRepClass:
    """Multiset of indecomposables [i; l], stored as multiplicities k_{il}."""

    __slots__ = ("mults",)

    def __init__(self, mults):
        clean = {}
        items = mults.items() if isinstance(mults, dict) else mults
        for (i, l), k in items:
            given = (i, l, k)
            i, l, k = map(int, given)
            if (i, l, k) != given:
                raise ValueError(f"non-integral entry in [{given[0]}; {given[1]}] "
                                 f"with multiplicity {given[2]}")
            if i < 1 or l < 1:
                raise ValueError(f"bad indecomposable label [{i}; {l}]")
            if k < 0:
                raise ValueError(f"negative multiplicity for [{i}; {l}]")
            if k:
                clean[(i, l)] = clean.get((i, l), 0) + k
        self.mults = dict(sorted(clean.items()))

    @classmethod
    def indecomposable(cls, i: int, l: int) -> "QuiverRepClass":
        return cls({(i, l): 1})

    def dimension_vector(self, n: int) -> tuple[int, ...]:
        dims = [0] * (n - 1)
        for (i, l), k in self.mults.items():
            for v in range(i, i + l):
                dims[v - 1] += k
        return tuple(dims)

    def items(self):
        """Multiplicities in ascending (i, l) order."""
        return list(self.mults.items())

    def label(self) -> str:
        if not self.mults:
            return "0"
        return " + ".join(f"{k}*[{i};{l}]" if k > 1 else f"[{i};{l}]"
                          for (i, l), k in self.mults.items())

    def __eq__(self, other):
        return isinstance(other, QuiverRepClass) and self.mults == other.mults

    def __hash__(self):
        return hash(tuple(self.mults.items()))

    def __repr__(self):
        return f"QuiverRepClass({self.label()})"


def indecomposable_matrix(i: int, l: int, n: int) -> Matrix:
    """Iterated commutator [E_{i+l,i+l-1}, [..., [E_{i+2,i+1}, E_{i+1,i}]...]];
    collapses to the single matrix unit E_{i+l,i}."""
    if not (1 <= i <= n - 1 and 1 <= l <= n - i):
        raise ValueError(f"[{i}; {l}] out of range for n={n}")
    result = Matrix.unit(i + 1, i, n)
    for k in range(i + 1, i + l):
        result = Matrix.unit(k + 1, k, n).commutator(result)
    return result


def class_matrix(kappa: QuiverRepClass, n: int) -> Matrix:
    """Product of divided powers of indecomposable matrices, factors taken in
    ascending i then ascending l.  (The abstract product order matters in the
    enveloping algebra; this fixed convention is validated against the
    brute-force structure constants.)"""
    result = Matrix.identity(n)
    for (i, l), k in kappa.items():
        power = Matrix.identity(n)
        for _ in range(k):
            power = power * indecomposable_matrix(i, l, n)
        result = result * power.scale(Fraction(1, factorial(k)))
    return result


# -- linear algebra over a prime field ---------------------------------------

def _rank_mod(rows, q: int) -> int:
    """Rank of an integer matrix mod q (q prime)."""
    work = [[e % q for e in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, q)
        work[rank] = [(e * inv) % q for e in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(a - f * b) % q for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


@lru_cache(maxsize=16)  # dim <= MAX_AMBIENT_DIM, q in SUPPORTED_FIELD_SIZES: 10 keys
def _all_subspaces(dim: int, q: int):
    """Every subspace of F_q^dim, each as its reduced row-echelon basis: one
    basis per choice of pivot columns and of the free entries (those right of
    their row's pivot and outside every pivot column)."""
    spaces = []
    for rank in range(dim + 1):
        for pivots in combinations(range(dim), rank):
            free = [(r, c) for r, p in enumerate(pivots)
                    for c in range(p + 1, dim) if c not in pivots]
            for values in iter_product(range(q), repeat=len(free)):
                rows = [[int(c == p) for c in range(dim)] for p in pivots]
                for (r, c), value in zip(free, values):
                    rows[r][c] = value
                spaces.append(tuple(tuple(row) for row in rows))
    return tuple(spaces)


def _rank_table(kappa: QuiverRepClass, n: int) -> dict:
    """For each pair of vertices a < b, the number of copies in kappa whose
    support holds [a, b], i.e. the rank of the composed map a -> b; with the
    dimensions, this table determines the class (by inclusion-exclusion)."""
    return {(a, b): sum(k for (i, l), k in kappa.items() if i <= a and b < i + l)
            for a in range(1, n) for b in range(a + 1, n)}


def hall_count(sub: QuiverRepClass, quot: QuiverRepClass,
               ambient: QuiverRepClass, q: int) -> int:
    """Number of subrepresentations of the ambient class with the prescribed
    sub and quotient classes, counted over the field with q elements.

    The ambient gets one coordinate slot per (indecomposable copy, vertex of
    its support), and every composed edge map vertex a -> vertex b keeps the
    coordinates whose slot also sits at b and drops the rest.  The count walks
    every tuple of subspaces (reduced row-echelon bases) closed under the edge
    maps, counting those whose sub and quotient have the composed-map ranks
    of the target classes.  Only tiny ambients are supported: the vertex
    dimensions must sum to at most 4 and q must be 2 or 3.
    """
    if q not in SUPPORTED_FIELD_SIZES:
        raise ValueError(f"field size must be one of {SUPPORTED_FIELD_SIZES}, got {q}")
    labels = [i + l for (i, l) in
              list(sub.mults) + list(quot.mults) + list(ambient.mults)]
    n = max(labels) if labels else 2
    dims = ambient.dimension_vector(n)
    if sum(dims) > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {sum(dims)} exceeds cap {MAX_AMBIENT_DIM}")
    sub_dims = sub.dimension_vector(n)
    quot_dims = quot.dimension_vector(n)
    if tuple(s + t for s, t in zip(sub_dims, quot_dims)) != dims:
        return 0

    slots = {v: [(i, l, copy) for (i, l), k in ambient.items() for copy in range(k)
                 if i <= v < i + l] for v in range(1, n)}

    def carry(rows, a, b):
        """Rows at vertex a sent along the composed map to vertex b."""
        where = [slots[a].index(s) if s in slots[a] else None for s in slots[b]]
        return [[row[c] if c is not None else 0 for c in where] for row in rows]

    def unit_rows(v):
        return [[int(r == c) for c in range(dims[v - 1])] for r in range(dims[v - 1])]

    def closed(basis, prev, v):
        """The edge map into vertex v sends the span of prev into that of basis."""
        return _rank_mod(list(basis) + carry(prev, v - 1, v), q) == len(basis)

    sub_ranks, quot_ranks = _rank_table(sub, n), _rank_table(quot, n)

    def matches(chosen):
        """Sub and quotient have the target ranks on every composed map."""
        return all(_rank_mod(carry(chosen[a - 1], a, b), q) == sub_ranks[a, b]
                   and _rank_mod(carry(unit_rows(a), a, b) + list(chosen[b - 1]), q)
                   == quot_ranks[a, b] + sub_dims[b - 1]
                   for a, b in sub_ranks)

    partial = [()]  # sub bases at vertices 1..v, closed under the edge maps so far
    for v in range(1, n):
        partial = [chosen + (basis,) for chosen in partial
                   for basis in _all_subspaces(dims[v - 1], q)
                   if len(basis) == sub_dims[v - 1] and (v == 1 or closed(basis, chosen[-1], v))]
    return sum(map(matches, partial))


def candidate_classes(dim_vector, n: int) -> list[QuiverRepClass]:
    """Every isomorphism class with the given dimension vector, sorted by
    label: one label (i, l) at a time, each partial class takes every
    multiplicity its support leaves room for, and once the labels starting
    at vertex i are done, only the partial classes that fill vertex i stay."""
    given = tuple(dim_vector)
    dims = tuple(map(int, given))
    if dims != given:
        raise ValueError(f"non-integral entry in dimension vector {given}")
    partial = [((), dims)]  # (multiplicities, dimensions left)
    for i in range(1, n):
        for l in range(1, n - i + 1):
            span = range(i - 1, i + l - 1)
            partial = [(mults + (((i, l), k),),
                        tuple(r - k if v in span else r for v, r in enumerate(left)))
                       for mults, left in partial
                       for k in range(min(left[v] for v in span) + 1)]
        partial = [(mults, left) for mults, left in partial if left[i - 1] == 0]
    return sorted((QuiverRepClass(mults) for mults, left in partial if not any(left)),
                  key=lambda c: c.label())


def check_product_identity(left: QuiverRepClass, right: QuiverRepClass, n: int) -> dict:
    """Verify, in the matrix realization, that the product of two classes
    expands with the brute-force structure constants:

        mat(left) * mat(right) = sum_kappa count(left, right -> kappa) * mat(kappa)

    The counts are taken over both supported field sizes; the identity must
    hold with each.  Counts that depend on q can only occur at classes whose
    matrix realization vanishes, so the comparison stays exact.
    """
    lhs = class_matrix(left, n) * class_matrix(right, n)
    dim_total = tuple(x + y for x, y in zip(left.dimension_vector(n),
                                            right.dimension_vector(n)))
    candidates = candidate_classes(dim_total, n)
    counts = {}
    holds = True
    for q in SUPPORTED_FIELD_SIZES:
        rhs = Matrix.zero(n)
        for kappa in candidates:
            c = hall_count(left, right, kappa, q)
            counts.setdefault(kappa.label(), {})[q] = c
            if c:
                rhs = rhs + class_matrix(kappa, n).scale(c)
        holds = holds and (rhs == lhs)
    q_dependent = sorted(lbl for lbl, per_q in counts.items()
                         if len(set(per_q.values())) > 1)
    return {
        "left": left.label(),
        "right": right.label(),
        "counts": counts,
        "q_dependent_classes": q_dependent,
        "holds": holds,
    }


# -- closed multiplicative identities ----------------------------------------

def root_exponential_product(n: int, pairs) -> Matrix:
    """Product of exp(E_{i,j}) = I + E_{i,j} (i != j) over the root index pairs, in order."""
    result = Matrix.identity(n)
    for i, j in pairs:
        if i == j:
            raise ValueError(f"E_{{{i},{i}}} is not nilpotent")
        result = result * (Matrix.identity(n) + Matrix.unit(i, j, n))
    return result


def all_ones_unitriangular(n: int) -> Matrix:
    return Matrix([[int(j >= i) for j in range(n)] for i in range(n)])


def unipotent_product(n: int) -> Matrix:
    """Product of root exponentials in descending root order; asserts it equals
    the all-ones upper unitriangular matrix."""
    result = root_exponential_product(n, positive_root_pairs_descending(n))
    if result != all_ones_unitriangular(n):
        raise AssertionError(f"descending root product is not all-ones for n={n}")
    return result


def _integer_scale(t) -> list[int]:
    """t times the lcm of its denominators (all here is homogeneous in t)."""
    scale = lcm(*(Fraction(v).denominator for v in t))
    return [int(Fraction(v) * scale) for v in t]


def conjugator_matrix(t) -> Matrix:
    """The unitriangular matrix with entries
    x_{ij} = 1/(t_i/t_j - 1) * prod_{k=i+1}^{j-1} 1/(1 - t_k/t_i)  (i < j),
    which conjugates diag(t) into (all-ones unitriangular) * diag(t); with
    T = _integer_scale(t), x_{ij} = T_j T_i^{j-i-1} / prod_{k=i+1}^{j} (T_i - T_k)."""
    T = _integer_scale(t)
    n = len(T)
    if 0 in T or len(set(T)) != n:
        raise NonGenericParameter("entries must be distinct and nonzero")
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, T_i in enumerate(T):
        den = 1
        for j in range(i + 1, n):
            den *= T_i - T[j]
            rows[i][j] = Fraction(T[j] * T_i ** (j - i - 1), den)
    return Matrix(rows)


def _conjugates(x: Matrix, t) -> bool:
    """x * g * diag(t) == diag(t) * x with g the all-ones unitriangular
    matrix, entry by entry: x * g holds the row prefix sums of x, and diag(t)
    scales the columns on the right and the rows on the left."""
    return all(t_j * total == t_i * entry
               for t_i, row in zip(t, x.rows)
               for t_j, total, entry in zip(t, accumulate(row), row))


def conjugator_check(n: int, t) -> dict:
    """Exact check of the two conjugator identities at the scale point t.

    * conjugation: x * g * diag(t) == diag(t) * x, with g the all-ones
      unitriangular matrix (equivalently g diag(t) = x^{-1} diag(t) x);
    * evaluation: the product of the entries of x applied to the all-ones
      vector equals prod_{j > i} 1/(1 - t_j/t_i) = prod_{j > i} T_i/(T_i - T_j)
      (the dual action of x^{-1} on a product of coordinates pulls them back
      through x itself, whence the vector is x @ ones, the row sums of x).
    """
    t = [Fraction(v) for v in t]
    if len(t) != n:
        raise ValueError(f"expected {n} entries, got {len(t)}")
    x = conjugator_matrix(t)
    T = _integer_scale(t)
    conj_ok = _conjugates(x, T)
    gaps = prod(T_i - T_j for i, T_i in enumerate(T) for T_j in T[i + 1:])
    eval_ok = prod(map(sum, x.rows)) * gaps == prod(T_i ** (n - 1 - i) for i, T_i in enumerate(T))
    return {
        "n": n,
        "t": [str(v) for v in t],
        "conjugation_identity": conj_ok,
        "evaluation_identity": eval_ok,
        "evaluation_variant": "product of entries of x @ ones",
        "passed": conj_ok and eval_ok,
    }
