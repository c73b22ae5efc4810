"""Exact rational scalars.

All arithmetic in the package is exact: scalars are `fractions.Fraction`
values (always in lowest terms, positive denominator), and nothing is ever
rounded.  This module adds the two pieces the standard library does not
provide: a strict parser for rational literals and the generalized binomial
coefficient, public and the tests' oracle for series.weyl_fold, which keeps
its own running product so that the two share no code.
"""

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p" or "p/q" with q > 0 into an exact scalar."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render an exact scalar as "p" or "p/q" with q > 0."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def generalized_binomial(m, k: int) -> Fraction:
    """Return prod_{t=1}^{k} (m + t) / t for any scalar m and natural k.

    Coincides with the ordinary binomial C(m + k, k) when m is a nonnegative
    integer, and gives the coefficient of t^k in (1 - t)^(-m-1) in general.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    m = Fraction(m)
    result = Fraction(1)
    for t in range(1, k + 1):
        result *= (m + t) / t
    return result
