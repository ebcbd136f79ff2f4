# Pages of the involution double complex
#
# Crossing the symbol complex with the two-term negation resolution gives
# a double complex; its first-filtration pages stabilize fast and abut to
# the Tate cohomology of the distribution. This script prints the first
# two pages at a two-prime level and checks the abutment by hand.

from distlab import FULL, HALF, build_double, symbol_basis, tate_distribution
from distlab.lcomplex import DIFFERENCE
from distlab.spectral import index_expected, index_page_product, index_values_check

m = 12
sb = symbol_basis(m)
dc = build_double(m, DIFFERENCE, HALF)


def show_page(r):
    print(f"page {r}:")
    for q in range(dc.q_hi - r + 1, -1, -1):
        row = []
        for p in range(sb.lo, 1):
            row.append(str(dc.e_term(p, q, r)) if dc.interior(p, q, r) else ".")
        print(f"  q={q}  " + "  ".join(f"{s:>10}" for s in row))
    print("        " + "  ".join(f"{('p=' + str(p)):>10}" for p in range(sb.lo, 1)))


show_page(1)
show_page(2)

# the binomial pattern: on odd rows page 2 is (Z/2)^C(r, -p) at a level
# with r primes; even positive rows vanish

# ---------------------------------------------------------------
# abutment: total cohomology equals the Tate groups of the quotient

for n in (1, 2):
    tot = dc.total_cohomology(n)
    parity = "even" if n % 2 == 1 else "odd"
    tate = tate_distribution(m, parity)
    print(f"total degree {n}: {tot}  vs  Tate {parity}: {tate}")
    assert tot == tate

# the full variant is periodic and degenerates at page 2
full = build_double(m, DIFFERENCE, FULL)
cells = list(full.interior_cells(4))
assert all(
    full.e_term(p, q, 2) == full.e_term(p, q, 3) == full.e_term(p, q, 4)
    for p, q in cells
)
print(f"full variant: pages 2, 3, 4 agree on {len(cells)} interior cells")

# ---------------------------------------------------------------
# the correction invariant read off the page orders

res = index_values_check(m)
for kind in ("difference", "average"):
    part = res[kind]
    pages = index_page_product(m, kind)
    print(
        f"{kind}: invariant {part['value']} = closed form {part['expected']}"
        f" = page product {pages}"
    )
    assert part["match"] and pages == part["value"]
print("closed form at this level:", index_expected(m, DIFFERENCE))
