"""Torus-fixed points of the quasiflag spaces.

A fixed flag on the projective line decomposes as a direct sum of twisted
line subsheaves, so it is classified by a triangular array of nonnegative
integers d_j^i (1 <= i <= j <= n-1): row j lists the twist degrees of the j
summands of the j-th flag step.  The inclusion of consecutive steps forces
d_j^i >= d_{j+1}^i (with the boundary row d_n^i = 0), and the row sums
recover the degree vector of the component the point sits on.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .series import DegreeVector, check_degree_vector


class Tableau:
    """Triangular degree array of a torus-fixed flag.

    rows[j-1] is the tuple (d_j^1, ..., d_j^j).  Instances are immutable and
    hashable; validity (nonnegativity and column monotonicity) is enforced at
    construction.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        for j, row in enumerate(rows, start=1):
            if len(row) != j:
                raise ValueError(f"row {j} must have {j} entries, got {row}")
            if any(e < 0 for e in row):
                raise ValueError(f"negative entry in row {j}: {row}")
        for j in range(1, len(rows)):
            upper, lower = rows[j - 1], rows[j]
            for i in range(len(upper)):
                if upper[i] < lower[i]:
                    raise ValueError(
                        f"monotonicity violated at column {i + 1}: "
                        f"d_{j}^{i + 1}={upper[i]} < d_{j + 1}^{i + 1}={lower[i]}")
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows) + 1

    def entry(self, j: int, i: int) -> int:
        """d_j^i with the boundary convention d_n^i = 0."""
        if not 1 <= i <= j <= self.n:
            raise IndexError(f"entry ({j}, {i}) out of range for n={self.n}")
        if j == self.n:
            return 0
        return self.rows[j - 1][i - 1]

    def degree(self) -> DegreeVector:
        """Row sums (d_1, ..., d_{n-1})."""
        return tuple(sum(row) for row in self.rows)

    def shift(self, m: int) -> "Tableau":
        """Add m to every entry; models twisting the whole flag by degree -m."""
        if m < 0:
            raise ValueError(f"shift must be nonnegative, got {m}")
        return Tableau(tuple(tuple(e + m for e in row) for row in self.rows))

    def as_flat_list(self) -> list[int]:
        """Row-major serialization: d_1^1, d_2^1, d_2^2, d_3^1, ..."""
        return [e for row in self.rows for e in row]

    @classmethod
    def from_flat_list(cls, entries, n: int) -> "Tableau":
        entries = list(entries)
        if len(entries) != n * (n - 1) // 2:
            raise ValueError(f"need {n * (n - 1) // 2} entries for n={n}, got {len(entries)}")
        rows, pos = [], 0
        for j in range(1, n):
            rows.append(tuple(entries[pos:pos + j]))
            pos += j
        return cls(rows)

    @classmethod
    def zero(cls, n: int) -> "Tableau":
        return cls(tuple((0,) * j for j in range(1, n)))

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({list(map(list, self.rows))})"


def row_heads(upper: tuple[int, ...], room: int):
    """The first len(upper) entries of every row that may follow the row
    `upper` top-down with entry sum at most room, in lex order: each entry
    at most the one above it.  The last entry of the row is free."""
    return (head for head in product(*(range(min(u, room) + 1) for u in upper))
            if sum(head) <= room)


def enumerate_fixed_points(n: int, gamma) -> list[Tableau]:
    """All tableaux of degree gamma, in lexicographic (row-major) order.

    Rows are built top-down from row 1 = (d_1,): row j+1 takes its first j
    entries by row_heads and its last entry fixes the row sum d_{j+1}.  Each
    (n, gamma) is enumerated once and cached; every call returns a fresh list.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return list(_fixed_points(n, check_degree_vector(gamma, n - 1)))


@lru_cache(maxsize=1024)  # one key per degree: 83 on properties n=4 D=5, 533 at n=32 D=1
def _fixed_points(n: int, gamma: DegreeVector) -> tuple[Tableau, ...]:
    partial = [((gamma[0],),)]
    for total in gamma[1:]:
        partial = [rows + (head + (total - sum(head),),)
                   for rows in partial for head in row_heads(rows[-1], total)]
    return tuple(Tableau(rows) for rows in partial)


def cartan_eigenvalue(i: int, tableau: Tableau, pt) -> Fraction:
    """Eigenvalue of the i-th Cartan generator on the fixed-point class:
    a_i/x - a_{i+1}/x - 1 + d_{i-1} - 2 d_i + d_{i+1}, with d_0 = d_n = 0."""
    n = tableau.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"Cartan index {i} out of range for n={n}")
    if pt.x == 0:
        raise ValueError("x must be nonzero")
    deg = (0,) + tableau.degree() + (0,)
    return (pt.a[i - 1] - pt.a[i]) / pt.x - 1 + deg[i - 1] - 2 * deg[i] + deg[i + 1]
