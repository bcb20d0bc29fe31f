"""Pinned verdicts of the twisted eta identities over a grid of inputs.

The two `e6-pole-twist-*` rows read a = omega^j + (1/3) zeta_72^e *
quotient(omega^k q) with omega = zeta_3, and `eta-product-rotation` reads
eta(q) eta(q w^-1) eta(q w^-2) eta(q^9) = eta(q^3)^4.  Each case below
changes one input (the rows' prefactor zeta_72^e and constant omega^j, the
pole series, the quotient, an eta unit) and the whole report is pinned:
name, order, indices, first failing exponent and the residual's text.  The
prefactors e = 12, 24, 36, 48, 60 are the sixth roots of unity
(-1)^m omega^2m, m = e/12, so the grid reaches both the sign and the
omega power of every one of them.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import gwseries.e6 as e6
from gwseries import modular
from gwseries.e6 import e6_h_analytic, e6_twisted_pole_reports
from gwseries.modular import eta_expand, verify_eta_product_rotation
from gwseries.qseries import QSeries
from gwseries.reporting import FirstFailure, IdentityReport

ORDER = 20
BUMP = Fraction(1, 7)


def _rows(e: int, square_j: int, linear_j: int) -> tuple:
    """Both rows with prefactor zeta_72^e: 3b + p = e for the rows' branches."""
    return (
        ("e6-pole-twist-square", square_j, -2, -2, e + 6),
        ("e6-pole-twist-linear", linear_j, -1, -1, e + 3),
    )


# (kind, ...): "prefactor" e j, both rows with zeta_72^e and omega^j; "a" n
# and "quotient" n, that input raised by 1/7 q^n under the suite's rows;
# "conjugate" n, the rows at e = 36 (-1 times omega^0) with the constants
# that keep them rational against -1 - a, the quotient raised at q^n (None:
# unchanged); "outside" e, a prefactor outside Q(zeta_3)
CASES = (
    *(("prefactor", e, j) for e in (0, 12, 24, 36, 48, 60) for j in range(3)),
    *(("a", n) for n in range(-1, 8)),
    *(("quotient", n) for n in range(-1, 8)),
    *(("conjugate", n) for n in (None, *range(-1, 8))),
    ("outside", 6),
    ("outside", 69),
)


def pole_reports(case: tuple, monkeypatch) -> list[IdentityReport]:
    a = e6_h_analytic(ORDER + 2)
    quotient = eta_expand("eta(1)^3 * eta(9)^-3", ORDER + 1)
    kind, value = case[0], case[1]
    if kind == "prefactor":
        monkeypatch.setattr(e6, "_TWISTED_POLE_ROWS", _rows(value, case[2], case[2]))
    elif kind == "a":
        a = a + QSeries.monomial(BUMP, value, a.truncation)
    elif kind == "quotient":
        quotient = quotient + QSeries.monomial(BUMP, value, quotient.truncation)
    elif kind == "conjugate":
        monkeypatch.setattr(e6, "_TWISTED_POLE_ROWS", _rows(36, 2, 1))
        a = -1 - a
        if value is not None:
            quotient = quotient + QSeries.monomial(BUMP, value, quotient.truncation)
    else:
        monkeypatch.setattr(e6, "_TWISTED_POLE_ROWS", _rows(value, 1, 2))
    return e6_twisted_pole_reports(ORDER, a, quotient)


# (scale, exponent, bump): eta(q^scale)'s unit raised by bump q^exponent
ROTATION_CASES = (
    (1, 0, Fraction(1, 7)),
    (1, 5, Fraction(1, 7)),
    (1, 12, Fraction(-1, 2)),
    (9, 9, Fraction(1, 5)),
    (3, 4, Fraction(2, 3)),
)
ROTATION_ORDER = 40


def rotation_report(case: tuple, monkeypatch) -> IdentityReport:
    scale, exponent, bump = case
    original = modular.eta_unit

    def perturbed(s, truncation):
        unit = original(s, truncation)
        return unit + QSeries.monomial(bump, exponent, truncation) if s == scale else unit

    monkeypatch.setattr(modular, "eta_unit", perturbed)
    return verify_eta_product_rotation(ROTATION_ORDER)


def _report(name: str, order: int, indices: tuple, failure) -> IdentityReport:
    return IdentityReport(name, order, None if failure is None else FirstFailure(indices, *failure))


# (exponent, residual) per row, None for a pass
POLE_EXPECTED = {
    ("prefactor", 0, 0): ((0, "-1 + 1*z3^1"), (0, "-2 + -1*z3^1")),
    ("prefactor", 0, 1): (None, (0, "-1 + -2*z3^1")),
    ("prefactor", 0, 2): ((0, "1 + 2*z3^1"), None),
    ("prefactor", 12, 0): ((-1, "-1/3*z3^1"), (-1, "-1/3*z3^1")),
    ("prefactor", 12, 1): ((-1, "-1/3*z3^1"), (-1, "-1/3*z3^1")),
    ("prefactor", 12, 2): ((-1, "-1/3*z3^1"), (-1, "-1/3*z3^1")),
    ("prefactor", 24, 0): ((-1, "1/3 + -1/3*z3^1"), (-1, "1/3 + -1/3*z3^1")),
    ("prefactor", 24, 1): ((-1, "1/3 + -1/3*z3^1"), (-1, "1/3 + -1/3*z3^1")),
    ("prefactor", 24, 2): ((-1, "1/3 + -1/3*z3^1"), (-1, "1/3 + -1/3*z3^1")),
    ("prefactor", 36, 0): ((-1, "2/3"), (-1, "2/3")),
    ("prefactor", 36, 1): ((-1, "2/3"), (-1, "2/3")),
    ("prefactor", 36, 2): ((-1, "2/3"), (-1, "2/3")),
    ("prefactor", 48, 0): ((-1, "2/3 + 1/3*z3^1"), (-1, "2/3 + 1/3*z3^1")),
    ("prefactor", 48, 1): ((-1, "2/3 + 1/3*z3^1"), (-1, "2/3 + 1/3*z3^1")),
    ("prefactor", 48, 2): ((-1, "2/3 + 1/3*z3^1"), (-1, "2/3 + 1/3*z3^1")),
    ("prefactor", 60, 0): ((-1, "1/3 + 1/3*z3^1"), (-1, "1/3 + 1/3*z3^1")),
    ("prefactor", 60, 1): ((-1, "1/3 + 1/3*z3^1"), (-1, "1/3 + 1/3*z3^1")),
    ("prefactor", 60, 2): ((-1, "1/3 + 1/3*z3^1"), (-1, "1/3 + 1/3*z3^1")),
    ("a", -1): ((-1, "1/7"), (-1, "1/7")),
    ("a", 0): ((0, "1/7"), (0, "1/7")),
    ("a", 1): ((1, "1/7"), (1, "1/7")),
    ("a", 2): ((2, "1/7"), (2, "1/7")),
    ("a", 3): ((3, "1/7"), (3, "1/7")),
    ("a", 4): ((4, "1/7"), (4, "1/7")),
    ("a", 5): ((5, "1/7"), (5, "1/7")),
    ("a", 6): ((6, "1/7"), (6, "1/7")),
    ("a", 7): ((7, "1/7"), (7, "1/7")),
    ("quotient", -1): ((-1, "-1/21"), (-1, "-1/21")),
    ("quotient", 0): ((0, "-1/21*z3^1"), (0, "1/21 + 1/21*z3^1")),
    ("quotient", 1): ((1, "1/21 + 1/21*z3^1"), (1, "-1/21*z3^1")),
    ("quotient", 2): ((2, "-1/21"), (2, "-1/21")),
    ("quotient", 3): ((3, "-1/21*z3^1"), (3, "1/21 + 1/21*z3^1")),
    ("quotient", 4): ((4, "1/21 + 1/21*z3^1"), (4, "-1/21*z3^1")),
    ("quotient", 5): ((5, "-1/21"), (5, "-1/21")),
    ("quotient", 6): ((6, "-1/21*z3^1"), (6, "1/21 + 1/21*z3^1")),
    ("quotient", 7): ((7, "1/21 + 1/21*z3^1"), (7, "-1/21*z3^1")),
    ("conjugate", None): (None, None),
    ("conjugate", -1): ((-1, "1/21"), (-1, "1/21")),
    ("conjugate", 0): ((0, "1/21*z3^1"), (0, "-1/21 + -1/21*z3^1")),
    ("conjugate", 1): ((1, "-1/21 + -1/21*z3^1"), (1, "1/21*z3^1")),
    ("conjugate", 2): ((2, "1/21"), (2, "1/21")),
    ("conjugate", 3): ((3, "1/21*z3^1"), (3, "-1/21 + -1/21*z3^1")),
    ("conjugate", 4): ((4, "-1/21 + -1/21*z3^1"), (4, "1/21*z3^1")),
    ("conjugate", 5): ((5, "1/21"), (5, "1/21")),
    ("conjugate", 6): ((6, "1/21*z3^1"), (6, "-1/21 + -1/21*z3^1")),
    ("conjugate", 7): ((7, "-1/21 + -1/21*z3^1"), (7, "1/21*z3^1")),
    ("outside", 6): ((-1, "1/3 + -1/3*z72^6"), (-1, "1/3 + -1/3*z72^6")),
    ("outside", 69): ((-1, "1/3 + -1/3*z72^69"), (-1, "1/3 + -1/3*z72^69")),
}

ROTATION_EXPECTED = {
    (1, 0, Fraction(1, 7)): (0, "169/343"),
    (1, 5, Fraction(1, 7)): (6, "3/7"),
    (1, 12, Fraction(-1, 2)): (12, "-3/2"),
    (9, 9, Fraction(1, 5)): (9, "1/5"),
    (3, 4, Fraction(2, 3)): (4, "-8/3"),
}


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_twisted_pole_grid(case, monkeypatch):
    reports = pole_reports(case, monkeypatch)
    rows = e6._TWISTED_POLE_ROWS  # as the case set them
    expected = [_report(row[0], ORDER, (24 * row[2],), f) for row, f in zip(rows, POLE_EXPECTED[case])]
    assert reports == expected


@pytest.mark.parametrize("case", ROTATION_CASES, ids=repr)
def test_rotation_grid(case, monkeypatch):
    report = rotation_report(case, monkeypatch)
    assert report == _report("eta-product-rotation", ROTATION_ORDER, (), ROTATION_EXPECTED[case])
