"""Exact rational scalars.

All arithmetic in the package is exact: scalars are `fractions.Fraction`
values (always in lowest terms, positive denominator), and nothing is ever
rounded.  The verify runs compare and render their coefficients as reduced
int pairs (num, den) with den > 0, which are equal exactly when their
Fractions are; format_pair renders one, and format_rational a Fraction by
its pair.  This module adds the two pieces the standard library does not
provide: a strict parser for rational literals and the generalized binomial
coefficient, public and the tests' oracle for series.weyl_fold, which keeps
its own running product so that the two share no code.
"""

import re
from decimal import Decimal
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


def format_pair(num: int, den: int) -> str:
    """Render the reduced pair num / den, den > 0, as "p" or "p/q", of any size.

    str is about three times as fast but raises ValueError past CPython's
    int-to-str digit limit; Decimal renders an int exactly, past it too."""
    try:
        parts = str(num), str(den)
    except ValueError:
        parts = str(Decimal(num)), str(Decimal(den))
    return parts[0] if den == 1 else "/".join(parts)


def format_rational(value: Fraction) -> str:
    """Render an exact scalar as "p" or "p/q" with q > 0 (see format_pair)."""
    value = value if isinstance(value, Fraction) else Fraction(value)
    return format_pair(value.numerator, value.denominator)


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
