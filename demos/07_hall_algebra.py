"""The matrix side: subrepresentation counts and unipotent identities.

Classes of representations of the equioriented A-type quiver map to products
of matrix units; their structure constants count subrepresentations over a
finite field and can be verified by brute force at tiny dimensions.  The same
matrix realization carries two closed identities: the descending product of
root exponentials is the all-ones unitriangular matrix, and an explicit
unitriangular conjugator moves a diagonal matrix past it.
"""

from fractions import Fraction

from quasiflags import (Matrix, QuiverRepClass, check_product_identity,
                        class_matrix, conjugator_check, conjugator_matrix,
                        hall_count, indecomposable_matrix, unipotent_product)

print("== indecomposables collapse to matrix units ==")
print("[1;2] in 3x3 matrices:",
      [[str(e) for e in row] for row in indecomposable_matrix(1, 2, 3).rows])

print()
print("== subrepresentation counts (brute force over F_q) ==")
sub = QuiverRepClass.indecomposable(2, 1)
quot = QuiverRepClass.indecomposable(1, 1)
for ambient in (QuiverRepClass.indecomposable(1, 2),
                QuiverRepClass({(1, 1): 1, (2, 1): 1})):
    for q in (2, 3):
        print(f"  count({sub.label()} -> {ambient.label()} -> {quot.label()}) "
              f"over F_{q}: {hall_count(sub, quot, ambient, q)}")

print()
print("== the product expansion in matrices ==")
result = check_product_identity(QuiverRepClass.indecomposable(2, 1),
                                QuiverRepClass.indecomposable(1, 1), 3)
print(f"{result['left']} * {result['right']} expands with counts:")
for label, per_q in sorted(result["counts"].items()):
    print(f"  {label}: {per_q}")
print("matrix identity holds at q=2 and q=3:", result["holds"])
print("(counts that depend on q occur only at classes the realization kills)")
print("E32 E21 = (E21 E32) + E31:",
      Matrix.unit(3, 2, 3) * Matrix.unit(2, 1, 3)
      == class_matrix(QuiverRepClass({(1, 1): 1, (2, 1): 1}), 3)
      + class_matrix(QuiverRepClass.indecomposable(1, 2), 3))

print()
print("== descending root exponentials ==")
for n in (2, 4):
    print(f"n={n}:")
    for row in unipotent_product(n).rows:
        print("   ", [str(e) for e in row])

print()
print("== the conjugator ==")
t = (Fraction(2), Fraction(3), Fraction(5))
x = conjugator_matrix(t)
print("entries above the diagonal:",
      [str(x.rows[i][j]) for i in range(3) for j in range(i + 1, 3)])
report = conjugator_check(3, t)
for key in ("conjugation_identity", "evaluation_identity", "evaluation_variant"):
    print(f"  {key}: {report[key]}")
