"""Walk through the 1-d element construction: basis, test functions, derivative rows.

Run as:  python3 demos/element_gallery_1d.py
"""

from fractions import Fraction

from afpg import build_element, build_point_test, inner


def fmt_poly(p, var="xi"):
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        coef = str(Fraction(c)) if not isinstance(c, float) else f"{c:g}"
        term = coef if k == 0 else (f"{coef}*{var}" if k == 1 else f"{coef}*{var}^{k}")
        parts.append(term)
    return " + ".join(parts).replace("+ -", "- ") or "0"


def main():
    print("Degree-2 element (endpoint values + cell average)")
    print("=" * 60)
    el = build_element(2)
    print(f"  basis at left endpoint : {fmt_poly(el.basis_left)}")
    print(f"  basis of the average   : {fmt_poly(el.basis_moments[0])}")
    print(f"  basis at right endpoint: {fmt_poly(el.basis_right)}")
    print()

    print("Interface test functions across the upwind weight alpha")
    print("=" * 60)
    for alpha in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)):
        t = build_point_test(el, alpha)
        print(f"  alpha = {alpha}:")
        print(f"    piece in the left cell : {fmt_poly(t.left)}")
        print(f"    piece in the right cell: {fmt_poly(t.right)}")
    print()

    print("Derivative stencils (weights on q_left, avg_i, q_mid, avg_i+1, q_right)")
    print("=" * 60)
    for alpha in (Fraction(1), Fraction(0), Fraction(-1), Fraction(2, 5)):
        # pair each test piece with the derivative of every basis function
        # of its cell; the two cells share the interface value q_mid
        t = build_point_test(el, alpha)
        left = [inner(t.left, b.deriv()) for b in el.basis()]
        right = [inner(t.right, b.deriv()) for b in el.basis()]
        weights = ", ".join(str(w) for w in (*left[:-1], left[-1] + right[0], *right[1:]))
        print(f"  alpha = {alpha!s:>4}: dx * D = [{weights}]")
    print()
    print("alpha = +1 reads only the left cell (full upwind for a right-moving")
    print("wave); alpha = -1 only the right cell; alpha = 0 is the central")
    print("four-point formula, with the shared interface value dropping out.")
    print()

    print("Higher degrees: duality table stays the identity")
    print("=" * 60)
    for k in (3, 4):
        el_k = build_element(k)
        ok = all(
            el_k.dof_values(b) == tuple(Fraction(int(i == j)) for j in range(k + 1))
            for i, b in enumerate(el_k.basis())
        )
        print(f"  K = {k}: {k + 1} dofs per cell, duality exact: {ok}")


if __name__ == "__main__":
    main()
