"""Eigenfunction series by coefficient recursion.

The highest-weight eigenfunction of the trigonometric many-body operator with
coupling m is determined degree by degree: the coefficient at lam is
2m(m+1) sum_alpha sum_j j c_{lam + j alpha} divided by (lam,lam) - s.  The
package solves the recursion of the operator conjugated by its ground state,
for the eigenfunction times the (m+1)-st inverse power of the Weyl
denominator, and folds that power back out.  The degenerate operator (only
simple roots, coupling 2/x^2) gives the Toda series.  Applying the operator
termwise and comparing with s times the series is an independent check that
the recursion and the fold were solved correctly.
"""

from fractions import Fraction

from quasiflags import (apply_cs_operator, cs_coefficients, degree_vectors,
                        toda_coefficients, toda_limit_ratios)
from quasiflags.localization import ParameterPoint, volume_coefficient

a = (Fraction(7, 3), Fraction(-7, 3))
m = Fraction(3, 2)
v = a[0] - a[1]

print("== the rank-two series, first coefficients ==")
series = cs_coefficients(2, a, m, 4)
print(f"eigenvalue s = (a, a) = {series.eigenvalue}")
for gamma, c in series.tail.terms():
    print(f"  c at degree {gamma[0]}: {c}")
print("degree-1 closed form m(m+1)/(1-v):", m * (m + 1) / (1 - v))

print()
print("== operator self-check ==")
image = apply_cs_operator(series, m, 4)
print("termwise operator image == s * series:",
      image == series.tail.scale(series.eigenvalue))

print()
print("== the degenerate (Toda) series matches equivariant volumes ==")
a3 = (Fraction(6), Fraction(1), Fraction(-7))
toda = toda_coefficients(3, a3, 3)
pt = ParameterPoint(a3, Fraction(1), Fraction(0))
for gamma in degree_vectors(2, 2):
    print(f"  degree {gamma}: toda {toda.coefficient(gamma)}, "
          f"volume {volume_coefficient(3, gamma, pt)}")

print()
print("== strong-coupling limit of the rank-two coefficients ==")
target = toda_coefficients(2, a, 3).coefficient((2,))
print(f"toda coefficient at degree 2: {target}")
for mm, ratio in zip((100, 10_000, 1_000_000),
                     toda_limit_ratios(2, (2,), a, (100, 10_000, 1_000_000))):
    print(f"  m=10^{len(str(mm)) - 1}: c/m^4 = {float(ratio):.12f} "
          f"(exact error {abs(ratio - target)})")
