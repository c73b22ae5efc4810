"""Type-A root system in coordinates.

Weights of sl_n live on the trace-zero hyperplane of Q^n and are stored as
length-n tuples of exact scalars in the standard basis, so the root w_i - w_j
is e_i - e_j.  The invariant form is the plain dot product restricted to that
hyperplane, which normalizes every root to squared length 2; this is the
normalization under which 1/(e^{a/2} - e^{-a/2})^2 expands to sum_j j e^{-ja}
with the coefficient pattern the eigenfunction recursion expects.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import takewhile

from .series import DegreeVector, check_degree_vector

WeightVec = tuple[Fraction, ...]
CoweightVec = tuple[Fraction, ...]


def check_zero_sum(coords) -> WeightVec:
    w = tuple(Fraction(c) for c in coords)
    if sum(w) != 0:
        raise ValueError(f"weight coordinates must sum to zero: {coords}")
    return w


def inner(u, v) -> Fraction:
    """Dot product of two weights; on zero-sum vectors this is the invariant form."""
    if len(u) != len(v):
        raise ValueError("weights of different rank")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def simple_root(i: int, n: int) -> WeightVec:
    """alpha_i = w_i - w_{i+1}, 1-indexed."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} out of range for n={n}")
    return root_weight(i, i + 1, n)


def root_weight(i: int, j: int, n: int) -> WeightVec:
    """The root w_i - w_j."""
    return tuple(Fraction(1) if k == i else Fraction(-1) if k == j else Fraction(0)
                 for k in range(1, n + 1))


def positive_root_pairs_descending(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of the positive roots w_i - w_j, listed in
    descending order: w_{n-1}-w_n first, then w_{n-2}-w_n, w_{n-2}-w_{n-1},
    down to w_1-w_2 last."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pairs = []
    for i in range(n - 1, 0, -1):
        for j in range(n, i, -1):
            pairs.append((i, j))
    return pairs


def positive_roots(n: int) -> list[WeightVec]:
    """All positive roots of sl_n, in the descending order above."""
    return [root_weight(i, j, n) for i, j in positive_root_pairs_descending(n)]


def embed_degree(gamma, n: int) -> WeightVec:
    """Coordinates of gamma = -sum d_i alpha_i; always a zero-sum integer vector."""
    gamma = check_degree_vector(gamma, n - 1)
    padded = (0,) + gamma + (0,)
    # coefficient of e_k in -sum d_i (e_i - e_{i+1}) is d_{k-1} - d_k
    return tuple(Fraction(padded[k - 1] - padded[k]) for k in range(1, n + 1))


def rho(n: int) -> WeightVec:
    """Half-sum of the positive roots: ((n-1)/2, (n-3)/2, ..., -(n-1)/2)."""
    return tuple(Fraction(n - 2 * k + 1, 2) for k in range(1, n + 1))


def rho_vee(n: int) -> CoweightVec:
    """The coweight pairing to 1 with every simple root; same coordinates as rho."""
    return rho(n)


def pairing(coweight, weight) -> Fraction:
    """<h, lam> for a coweight h and weight lam, both in coordinates."""
    return inner(coweight, weight)


@lru_cache(maxsize=1024)  # one key per degree: 83 on properties n=4 D=5, 527 at n=32 D=1
def _kostant_cached(n: int, gamma: DegreeVector) -> int:
    ways = {gamma: 1}  # remainder of gamma -> ways to reach it with the roots so far
    for i in range(n - 1):
        # the roots alpha_i + ... + alpha_j that fit under gamma, subtracted on [i, j]
        for j in takewhile(lambda j: gamma[j] > 0, range(i, n - 1)):
            step = {}
            for rest, count in ways.items():
                while min(rest[i:j + 1]) >= 0:
                    step[rest] = step.get(rest, 0) + count
                    rest = rest[:i] + tuple(r - 1 for r in rest[i:j + 1]) + rest[j + 1:]
            ways = step
    return ways.get((0,) * (n - 1), 0)


def kostant_count(gamma, n: int) -> int:
    """Number of multisets of positive roots summing to sum d_i alpha_i.

    Computed one positive root at a time over the remainders of gamma and
    their numbers of ways; this is the independent counting oracle against
    which fixed-point enumeration is checked.
    """
    gamma = check_degree_vector(gamma, n - 1)
    return _kostant_cached(n, gamma)
