"""Small exact matrices over the rationals.

Just enough linear algebra for the unipotent-group and conjugation
identities: sums, row-sparse products (most entries there are zero) and
commutators, of equal sizes only.  Every integral entry is stored as an int
(it compares and hashes equal to the same Fraction), every other as a Fraction.
"""

from fractions import Fraction


_INT = {int}


def _exact(e):
    if type(e) is int:
        return e
    e = Fraction(e)
    return e.numerator if e.denominator == 1 else e


class Matrix:
    """Immutable square matrix with exact entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        # an all-int row, what products of int matrices give, is stored as it is
        rows = tuple(row if _INT.issuperset(map(type, row)) else tuple(map(_exact, row))
                     for row in map(tuple, rows))
        if not {len(rows)}.issuperset(map(len, rows)):
            raise ValueError("matrix must be square")
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def unit(cls, i: int, j: int, n: int) -> "Matrix":
        """E_{i,j}: single 1 at row i, column j (1-indexed)."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"unit indices ({i}, {j}) out of range for n={n}")
        return cls([[int(r == i - 1 and c == j - 1) for c in range(n)]
                    for r in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        return cls([[e if i == j else 0 for j in range(len(entries))]
                    for i, e in enumerate(entries)])

    @property
    def size(self) -> int:
        return len(self.rows)

    def _match(self, size: int) -> None:
        if size != self.size:
            raise ValueError(f"size mismatch: {self.size}x{self.size} matrix and matrix of size {size}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._match(other.size)
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._match(other.size)
        product = []
        for row in self.rows:
            acc = [0] * len(row)
            for a, right in zip(row, other.rows):
                if a:  # adds a times the matching row of other
                    acc = [c + a * b for c, b in zip(acc, right)]
            product.append(acc)
        return Matrix(product)

    def scale(self, factor) -> "Matrix":
        factor = _exact(factor)
        return Matrix([[factor * e for e in row] for row in self.rows])

    def commutator(self, other: "Matrix") -> "Matrix":
        return self * other - other * self

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.rows for e in row)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(map(str, row)) for row in self.rows]})"
