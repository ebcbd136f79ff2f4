# The graded symbol complex that resolves the distribution
#
# Degree -j holds symbols [g; k/(m/g)] where g runs over products of j
# distinct primes of m. Two differentials live on these symbols: the
# difference flavor resolves the distribution quotient, the average
# flavor resolves the predistribution. Everything below checks as an
# exact matrix identity.

from distlab import acyclicity_check, build_complex, homotopy_check, symbol_basis
from distlab.exact_linalg import _mul
from distlab.lcomplex import AVERAGE, DIFFERENCE

m = 12
sb = symbol_basis(m)
print(f"symbol complex at level {m}")
print("  degree -> rank:", {i: sb.ranks[i] for i in range(sb.lo, 1)})
print("  blocks of degree -1:", sb.blocks[-1])

# Each differential d(i) is a list of sparse integer rows, one per symbol
# of degree i + 1, each a dict from a symbol of degree i to its coefficient;
# _mul composes two of them.
for kind in (DIFFERENCE, AVERAGE):
    C = build_complex(m, kind)
    sq = _mul(C.d(sb.lo + 1), C.d(sb.lo))
    assert not any(sq)
    shape = (C.rank(sb.lo + 2), C.rank(sb.lo))
    print(f"  {kind}: d composed with d vanishes on {shape} entries")

# ---------------------------------------------------------------
# cohomology is concentrated in degree zero

res = acyclicity_check(m)
for kind in (DIFFERENCE, AVERAGE):
    part = res[kind]
    print(
        f"{kind}: acyclic below zero = {part['acyclic_below']}, "
        f"H0 equals the quotient lattice = {part['h0_matches']}, free = {part['h0_free']}"
    )

# ---------------------------------------------------------------
# the homotopies that prove it
#
# Per prime, an explicit operator T_p satisfies d T_p + T_p d = 1 - pi_p
# with pi_p a projector; the product of the projectors kills every symbol
# except the plain degree-zero ones, and the staircase sum of the T_p
# contracts the rest of the complex.

h = homotopy_check(m)
for kind in (DIFFERENCE, AVERAGE):
    print(f"{kind} homotopy identities:", h[kind])
assert h["ok"]
print("all operator identities hold exactly")
