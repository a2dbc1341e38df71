#!/usr/bin/env python3
"""Check the appendix exponential-polynomial tables against the printed ones.

The weighted Wronskians of the truncated theta-product series

    P_XY = (16y/pi) e^{pi y/4} (Ya'' Xa' - Xa'' Ya')
    F_XY = (512y^4/pi) e^{pi y/4} (Ya Xa - Ya Xa)
    P_AB = (4y/pi) e^{pi y/2} (Ba'' Aa' - Aa'' Ba')
    F_AB = (32y^4/pi) e^{pi y/2} (Ba Aa - Ba Aa)

collapse to finite sums of monomials  c * pi^p * y^q * e^{-r pi y}.  The
package derives them exactly on first use (``verifier._tables``) from the
approximant term lists in src/latticetheta/polydata.py.  This script
expands the same Wronskians with sympy, verifies the result term by term
against the printed tables (transcribed below) and against frozen
reference values, and writes nothing.  ``derive()`` returns the checked
tables by ``appendix_poly``'s names; a test holds the package's tables
equal to them.

Known discrepancies, asserted explicitly rather than silently patched:
  * printed F_XY rate-4 group has 1465533 pi^4 y^4 where the expansion
    gives 1465536 (a 3-unit slip);
  * printed F_XY rate-5 group has the garbled monomial "-140064 pi 64 y^4"
    where the expansion gives -1400640 pi^4 y^4 (a dropped digit);
  * the printed F_AB table is the Wronskian of a 5-term variant of Aa that
    omits the 4 e^{-4 pi y} monomial (AA_MONOMIALS_5TERM); the 6-term
    Wronskian is checked against its frozen value only.

Run from the repository root:  python3 tools/derive_poly_tables.py
"""

from __future__ import annotations

import importlib.util
import math
import pathlib
import sys

import sympy as sp

# the package's term lists, read from the checkout this script sits in
_spec = importlib.util.spec_from_file_location(
    "polydata", pathlib.Path(__file__).resolve().parent.parent / "src" / "latticetheta" / "polydata.py"
)
polydata = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(polydata)
XA_TERMS, YA_TERMS, BA_TERMS = polydata.XA_TERMS, polydata.YA_TERMS, polydata.BA_TERMS
AA_MONOMIALS, AA_MONOMIALS_5TERM = polydata.AA_MONOMIALS, polydata.AA_MONOMIALS_5TERM

y = sp.Symbol("y", positive=True)


def series_expr(terms):
    return sum(c * sp.sqrt(y) * sp.exp(-sp.Rational(r, 4) * sp.pi * y) for r, c in terms)


def decompose(expr):
    """Expand into {(rate_quarters, pi_pow, y_pow): integer coefficient}."""
    table = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        rate_q = sp.Integer(0)
        pi_pow = sp.Integer(0)
        y_pow = sp.Integer(0)
        coeff = sp.Integer(1)
        for factor in sp.Mul.make_args(term):
            base, power = factor.as_base_exp()
            if base is sp.E:
                rate_q += sp.cancel(-4 * power / (sp.pi * y))
            elif base is sp.pi:
                pi_pow += power
            elif base == y:
                y_pow += power
            else:
                coeff *= factor
        key = (int(rate_q), int(pi_pow), int(y_pow))
        table[key] = table.get(key, sp.Integer(0)) + coeff
    return {k: int(v) for k, v in table.items() if v != 0}


def wronskian_table(left, right, orders, weight_coeff, weight_rate_q):
    """decompose(weight * (right^(hi) left^(lo) - left^(hi) right^(lo)))."""
    lo, hi = orders
    expr = weight_coeff * sp.exp(sp.Rational(weight_rate_q, 4) * sp.pi * y) * (
        sp.diff(right, y, hi) * sp.diff(left, y, lo)
        - sp.diff(left, y, hi) * sp.diff(right, y, lo)
    )
    return decompose(expr)


def table_tuple(table):
    return tuple(sorted((r, p, q, c) for (r, p, q), c in table.items()))


def evaluate(terms, yv, order=0):
    """Float value of a term table or its first derivative at yv."""
    total = 0.0
    for r, p, q, c in terms:
        rate = r * math.pi / 4.0
        base = c * math.pi**p * math.exp(-rate * yv)
        if order == 0:
            total += base * yv**q
        else:
            total += base * ((q * yv ** (q - 1) if q else 0.0) - rate * yv**q)
    return total


# ---------------------------------------------------------------------------
# printed tables, transcribed term by term (rate_quarters, pi_pow, y_pow, coeff)

PRINTED_PXY_PLUS = (
    (0, 1, 1, 1),
    (0, 0, 0, -6),
    (4, 1, 1, -110),
    (8, 1, 1, -243),
    (12, 2, 2, -840),
    (12, 0, 0, -108),
    (16, 1, 1, -2176),
    (20, 2, 2, -1440),
    (20, 0, 0, -288),
    (24, 1, 1, -700),
    (28, 2, 2, -2496),
    (28, 0, 0, -144),
)
PRINTED_PXY_MINUS = (
    (4, 2, 2, 24),
    (4, 0, 0, 132),
    (8, 2, 2, 192),
    (8, 0, 0, 162),
    (12, 1, 1, 234),
    (16, 2, 2, 2208),
    (16, 0, 0, 768),
    (20, 1, 1, 1008),
    (24, 2, 2, 2016),
    (24, 0, 0, 168),
    (28, 1, 1, 696),
)
PRINTED_FXY = (
    (0, 3, 3, -1), (0, 2, 2, 8), (0, 1, 1, 84), (0, 0, 0, -144),
    (4, 5, 5, -240), (4, 1, 1, -9240), (4, 2, 2, -6320), (4, 4, 4, 1392),
    (4, 3, 3, 350), (4, 0, 0, 3168),
    (8, 5, 5, -11232), (8, 3, 3, -14877), (8, 1, 1, -20412), (8, 2, 2, -32856),
    (8, 4, 4, 36096), (8, 0, 0, 3888),
    (12, 4, 4, -348240), (12, 0, 0, -2592), (12, 3, 3, 178854), (12, 5, 5, 209040),
    (12, 1, 1, 19656), (12, 2, 2, 91536),
    (16, 5, 5, -804576), (16, 3, 3, -121856), (16, 2, 2, -472576), (16, 1, 1, -182784),
    (16, 4, 4, 1465533), (16, 0, 0, 18432),
    (20, 4, 4, -1400640), (20, 0, 0, -6912), (20, 3, 3, 160272), (20, 5, 5, 685440),
    (20, 1, 1, 84672), (20, 2, 2, 284544),
    (24, 3, 3, -570500), (24, 5, 5, -3628800), (24, 1, 1, -58800), (24, 2, 2, -301280),
    (24, 4, 4, 3100608), (24, 0, 0, 4032),
    (28, 4, 4, -5236608), (28, 0, 0, -3456), (28, 3, 3, 862344), (28, 5, 5, 7527936),
    (28, 2, 2, 361152), (28, 1, 1, 58464),
)
# the rate-5 monomial is printed garbled ("-140064 pi 64 y^4"); the value above
# is the expansion's -1400640, and the rate-4 pi^4 y^4 coefficient is printed
# as 1465533 where the expansion gives 1465536 — both asserted below
PRINTED_FXY_TYPOS = {(16, 4, 4): 1465533}

PRINTED_PAB_PLUS = (
    (0, 1, 1, 1),
    (0, 0, 0, -3),
    (32, 2, 2, -288),
    (32, 0, 0, -12),
    (18, 0, 0, -144),
    (12, 0, 0, -72),
    (10, 0, 0, -48),
    (20, 0, 0, -84),
    (4, 1, 1, -12),
    (2, 1, 1, -8),
    (18, 2, 2, -768),
    (10, 2, 2, -128),
    (12, 2, 2, -240),
    (20, 2, 2, -504),
    (24, 1, 1, -52),
    (16, 1, 1, -99),
    (8, 1, 1, -10),
)
PRINTED_PAB_MINUS = (
    (32, 1, 1, 68),
    (24, 2, 2, 240),
    (2, 0, 0, 12),
    (24, 0, 0, 12),
    (16, 0, 0, 33),
    (8, 0, 0, 6),
    (4, 0, 0, 12),
    (10, 1, 1, 96),
    (18, 1, 1, 480),
    (4, 2, 2, 8),
    (12, 1, 1, 168),
    (16, 2, 2, 64),
    (8, 2, 2, 48),
    (20, 1, 1, 308),
)
PRINTED_FAB = (
    (0, 3, 3, -1), (0, 2, 2, 4), (0, 1, 1, 21), (0, 0, 0, -18),
    (2, 3, 3, 32), (2, 0, 0, 72), (2, 2, 2, -64), (2, 1, 1, -168),
    (4, 4, 4, 176), (4, 0, 0, 72), (4, 5, 5, -48), (4, 1, 1, -252),
    (4, 2, 2, -304), (4, 3, 3, -132),
    (8, 4, 4, 2784), (8, 0, 0, 36), (8, 5, 5, -960), (8, 3, 3, -2150),
    (8, 2, 2, -1160), (8, 1, 1, -210),
    (10, 5, 5, 6144), (10, 3, 3, 4224), (10, 1, 1, 2016), (10, 2, 2, 4864),
    (10, 4, 4, -11264), (10, 0, 0, -288),
    (12, 3, 3, 8568), (12, 5, 5, 16800), (12, 2, 2, 9504), (12, 1, 1, 3528),
    (12, 4, 4, -28320), (12, 0, 0, -432),
    (16, 3, 3, 2007), (16, 5, 5, 28800), (16, 2, 2, 8708), (16, 1, 1, 3213),
    (16, 4, 4, -32320), (16, 0, 0, -306),
    (20, 5, 5, 99792), (20, 3, 3, 18172), (20, 2, 2, 23632), (20, 1, 1, 6468),
    (20, 4, 4, -140112), (20, 0, 0, -504),
    (24, 3, 3, 49660), (24, 5, 5, 336960), (24, 2, 2, 27920), (24, 1, 1, 5460),
    (24, 4, 4, -295200), (24, 0, 0, -360),
)

# frozen reference values (high-precision evaluations of the derived tables)
FROZEN = {
    "pxy_margin_1p1": 0.00167177770168,
    "pxy_minus_deriv_2p2": -3.01296807962,
    "pab_margin_1p05": 0.001189905778412,
    "pab_minus_deriv_1p82": -3.05195426748,
    "fxy_1p11": 158.464615637,
    "fab_printed_1p12": 49.9391849728,
    "fab_derived_1p12": 53.0704427734,
}


def split_by_sign(table):
    """The appendix grouping: pi*y and the constant join the negative
    monomials in the plus bracket; every other positive monomial is minus."""
    plus, minus = {}, {}
    for key, c in table.items():
        rate, p, q = key
        if rate == 0 or c < 0:
            plus[key] = c
        else:
            minus[key] = c
    return plus, minus


def check(label, derived, printed, allowed_typos=()):
    printed_map = {}
    for r, p, q, c in printed:
        printed_map[(r, p, q)] = printed_map.get((r, p, q), 0) + c
    mismatches = []
    for key in sorted(set(derived) | set(printed_map)):
        dv, pv = derived.get(key, 0), printed_map.get(key, 0)
        if dv != pv:
            mismatches.append((key, pv, dv))
    unexpected = [m for m in mismatches if m[0] not in allowed_typos]
    if unexpected:
        for key, pv, dv in unexpected:
            print(f"  {label}: term {key} printed {pv} derived {dv}", file=sys.stderr)
        raise SystemExit(f"{label}: derived table disagrees with the printed one")
    for key, pv, dv in mismatches:
        print(f"  {label}: documented misprint at {key}: printed {pv}, derived {dv}")
    print(f"  {label}: {len(derived)} terms OK")


def assert_close(name, got, want, rel=1e-9):
    if abs(got - want) > rel * max(1.0, abs(want)):
        raise SystemExit(f"{name}: expected {want!r}, computed {got!r}")
    print(f"  {name}: {got:.12g} OK")


def derive():
    """Expand and check the tables, and return them by appendix_poly's names."""
    xa, ya = series_expr(XA_TERMS), series_expr(YA_TERMS)
    aa, aa5 = series_expr(AA_MONOMIALS), series_expr(AA_MONOMIALS_5TERM)
    ba = series_expr(BA_TERMS)

    print("expanding weighted Wronskians ...")
    pxy = wronskian_table(xa, ya, (1, 2), 16 * y / sp.pi, 1)
    fxy = wronskian_table(xa, ya, (2, 4), 512 * y**4 / sp.pi, 1)
    pab = wronskian_table(aa, ba, (1, 2), 4 * y / sp.pi, 2)
    fab5 = wronskian_table(aa5, ba, (2, 4), 32 * y**4 / sp.pi, 2)
    fab6 = wronskian_table(aa, ba, (2, 4), 32 * y**4 / sp.pi, 2)

    print("checking against the printed tables ...")
    pxy_plus, pxy_minus = split_by_sign(pxy)
    check("P_XY plus", pxy_plus, PRINTED_PXY_PLUS)
    check("P_XY minus", pxy_minus, PRINTED_PXY_MINUS)
    check("F_XY", fxy, PRINTED_FXY, allowed_typos=PRINTED_FXY_TYPOS)
    pab_plus, pab_minus = split_by_sign(pab)
    check("P_AB plus", pab_plus, PRINTED_PAB_PLUS)
    check("P_AB minus", pab_minus, PRINTED_PAB_MINUS)
    check("F_AB (5-term variant)", fab5, PRINTED_FAB)

    tables = {
        "PXY_plus": table_tuple(pxy_plus),
        "PXY_minus": table_tuple(pxy_minus),
        "PAB_plus": table_tuple(pab_plus),
        "PAB_minus": table_tuple(pab_minus),
        "FXY_weighted": table_tuple(fxy),
        "FAB_weighted": table_tuple(fab5),
    }

    print("checking frozen margin values ...")
    pxy_all = tables["PXY_plus"] + tables["PXY_minus"]
    pab_all = tables["PAB_plus"] + tables["PAB_minus"]
    assert_close(
        "pxy_margin_1p1",
        evaluate(pxy_all, 1.1)
        - 16 * 1.1 * (44 * math.pi + 18 + 36 * 1.1) * math.exp(-4 * math.pi * 1.1),
        FROZEN["pxy_margin_1p1"],
    )
    assert_close(
        "pxy_minus_deriv_2p2", evaluate(tables["PXY_minus"], 2.2, 1), FROZEN["pxy_minus_deriv_2p2"]
    )
    assert_close(
        "pab_margin_1p05",
        evaluate(pab_all, 1.05)
        - 1352 * math.pi * 1.05**1.5 * math.exp(-6 * math.pi * 1.05),
        FROZEN["pab_margin_1p05"],
    )
    assert_close(
        "pab_minus_deriv_1p82", evaluate(tables["PAB_minus"], 1.82, 1), FROZEN["pab_minus_deriv_1p82"]
    )
    assert_close("fxy_1p11", evaluate(tables["FXY_weighted"], 1.11), FROZEN["fxy_1p11"])
    assert_close("fab_printed_1p12", evaluate(tables["FAB_weighted"], 1.12), FROZEN["fab_printed_1p12"])
    assert_close("fab_derived_1p12", evaluate(table_tuple(fab6), 1.12), FROZEN["fab_derived_1p12"])
    return tables


if __name__ == "__main__":
    derive()
