"""Machine-checkable verdicts for series identities.

Every verification in the package funnels into an IdentityReport: the name of
the identity, the q-order through which it was certified, and on failure the
exact first offending coefficient.  Reports never round anything; a residual
is an exact field element rendered as text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .qseries import PrecisionError, QSeries


class FirstFailure(NamedTuple):
    indices: tuple[int, ...]
    exponent: int
    residual: str


class IdentityReport(NamedTuple):
    """A verdict: it passed exactly when no first failure is stored."""

    name: str
    order_certified: int
    first_failure: FirstFailure | None = None

    CSV_HEADER = ("name", "order", "status", "failure_exponent")

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    @property
    def status(self) -> str:
        return "pass" if self.first_failure is None else "fail"

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "order": self.order_certified, "status": self.status}
        if self.first_failure is not None:
            out["failure"] = {
                "indices": list(self.first_failure.indices),
                "exponent": self.first_failure.exponent,
                "residual": self.first_failure.residual,
            }
        return out

    def csv_row(self) -> list[str]:
        exponent = "" if self.first_failure is None else str(self.first_failure.exponent)
        return [self.name, str(self.order_certified), self.status, exponent]

    def text_line(self) -> str:
        if self.first_failure is None:
            return f"pass  {self.name} (order {self.order_certified})"
        f = self.first_failure
        where = f", indices {f.indices}" if f.indices else ""
        return (
            f"FAIL  {self.name} (order {self.order_certified};"
            f" first failure at q^{f.exponent}{where}, residual {f.residual})"
        )


def failure_report(
    name: str, order: int, indices: tuple[int, ...], exponent: int, residual
) -> IdentityReport:
    return IdentityReport(name, order, FirstFailure(indices, exponent, str(residual)))


def series_match(name: str, lhs: QSeries, rhs: QSeries, order: int, indices: tuple[int, ...] = ()) -> IdentityReport:
    """Certify lhs == rhs for all exponents below `order`, two rational
    series; the residual is the first nonzero coefficient of lhs - rhs.

    Both sides must actually know their coefficients that far; asking for more
    precision than was computed is a caller bug, not a failed identity.
    """
    known = min(lhs.truncation, rhs.truncation)
    if known < order:
        raise PrecisionError(f"{name}: need order {order} but operands only reach {known}")
    a, b = lhs.truncate(order), rhs.truncate(order)
    if a._fields() == b._fields():  # the canonical form is unique
        return IdentityReport(name, order)
    exponent, residual = a.first_difference(b)
    return failure_report(name, order, indices, exponent, residual)


def combine(name: str, reports: list[IdentityReport]) -> IdentityReport:
    """Single verdict for a batch: pass iff all pass, else the first failure.

    The failing sub-identity's name is appended so a combined report stays
    actionable.
    """
    order = min(r.order_certified for r in reports)
    for r in reports:
        if not r.passed:
            return IdentityReport(f"{name}[{r.name}]", order, r.first_failure)
    return IdentityReport(name, order)


class GenusOneResult(NamedTuple):
    """Genus-one potential: (linear coefficient of log q) and the q-series tail."""

    linear_coefficient: Fraction
    series: QSeries
    report: IdentityReport

    @property
    def passed(self) -> bool:
        return self.report.passed
