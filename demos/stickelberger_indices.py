# Stickelberger lattices and the relative class number
#
# The fractional-part elements theta(a) span a rational lattice in the
# group ring of (Z/m)^*; meeting it with the integral group ring gives
# the Stickelberger ideal. Its minus part sits in the (1+c)-annihilator
# with finite index 2^a h^-, and the antisymmetrized distribution classes
# land between the two with indices this script prints.

from distlab import h_minus
from distlab.arith import primes_of
from distlab.stickelberger import (
    alpha_ideal_index_check,
    alpha_image_index_check,
    antisymmetrization_index_check,
    definition_report,
    minus_ideal_index_check,
    stickelberger_ideal,
    theta_element,
)

# the element itself at a prime level
th = theta_element(5)
print("theta at level 5, coefficients on the unit basis:", th.coeffs)
print("conjugate sum is the norm vector:", [a + b for a, b in zip(th.coeffs, th.conjugate().coeffs)])

data = stickelberger_ideal(5)
print("ideal rank:", data.S.rank, " minus part rank:", data.S_minus.rank)
print()

# ---------------------------------------------------------------
# the index chain at several levels

print(f"{'m':>4} {'r':>2} {'[R-:S-]':>9} {'2^a h-':>7} {'alpha idx':>10} {'U- idx':>7} {'h-':>4}")
for m in (5, 12, 21, 23, 33, 105):
    main = minus_ideal_index_check(m)
    al = alpha_image_index_check(m)
    um = antisymmetrization_index_check(m)
    print(
        f"{m:>4} {len(primes_of(m)):>2} {str(main['value']):>9} {str(main['expected']):>7}"
        f" {str(al['value']):>10} {str(um['value']):>7} {h_minus(m):>4}"
    )
    assert main["ok"] and al["ok"] and um["ok"]

# the alpha image always contains the minus ideal with index w
res = alpha_ideal_index_check(12)
print(f"\n(alpha image : minus ideal) at 12 = {res['value']} (the root count)")

# ---------------------------------------------------------------
# one definition, not the other
#
# Multiples of the single element theta(1) cut out a smaller module at
# composite levels: a character component dies whenever some prime of m
# is 1 modulo the character conductor. The report makes the gap visible.

print(f"\n{'m':>4} {'agree':>6} {'ratio':>6} {'minus rank full/principal':>26}")
for m in (5, 8, 9, 12, 15, 21):
    rep = definition_report(m)
    ratio = rep["ratio"] if rep["ratio"] is not None else "rank drop"
    print(
        f"{m:>4} {str(rep['agree']):>6} {str(ratio):>9}"
        f" {rep['full_minus_rank']:>12} / {rep['principal_minus_rank']}"
    )
