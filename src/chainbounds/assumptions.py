"""Positivity-pattern assumptions linking the chain to its observable.

Upper tail bounds need the submatrix of P on the argmax set of f to be
irreducible (A1) and every other state to reach that set in one step
(A2).  The lower-tail twins A3/A4 are the same conditions for -f, i.e.
for the argmin set.  ``validate`` checks all four and names witnesses
for whatever fails, so the CLI can explain exactly why a bound is not
available for a given chain; ``require`` gates one tail on its pair.
The lower tail of f is the upper tail of -f: ``_sign`` alone reads a
side, as the sign of f it tilts toward; other modules pass sides along.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError
from .model import MarkovModel, is_irreducible, level_sets, memo

__all__ = ["Violation", "AssumptionReport", "validate", "require"]

SIDE_ASSUMPTIONS = {"upper": ("A1", "A2"), "lower": ("A3", "A4")}


@dataclass(frozen=True)
class Violation:
    """One failed assumption with a human-readable witness."""

    assumption: str
    witness: str
    states: tuple[str, ...]


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of checking A1-A4, with the level sets as labels."""

    a1: bool
    a2: bool
    a3: bool
    a4: bool
    S_b: tuple[str, ...]
    S_a: tuple[str, ...]
    violations: tuple[Violation, ...]

    @property
    def upper_ok(self) -> bool:
        return self.a1 and self.a2

    @property
    def lower_ok(self) -> bool:
        return self.a3 and self.a4

    @property
    def all_ok(self) -> bool:
        return self.a1 and self.a2 and self.a3 and self.a4


def _check_pair(P: np.ndarray, core: tuple[int, ...], labels, which: str,
                extreme_name: str):
    """Check the (irreducible submatrix, one-step reach) pair for one side."""
    ids = SIDE_ASSUMPTIONS[which]
    violations = []
    sub = P[np.ix_(core, core)]
    ok_block = is_irreducible(sub)
    if not ok_block:
        core_labels = tuple(labels[i] for i in core)
        detail = ("has no self-loop" if len(core) == 1
                  else "is not irreducible")
        violations.append(Violation(
            assumption=ids[0],
            witness=(f"{ids[0]}: submatrix of P on {extreme_name}="
                     f"{{{', '.join(core_labels)}}} {detail}"),
            states=core_labels,
        ))
    outside = [x for x in range(P.shape[0]) if x not in core]
    missing = [x for x in outside if not np.any(P[x, list(core)] > 0.0)]
    ok_reach = not missing
    if missing:
        miss_labels = tuple(labels[x] for x in missing)
        violations.append(Violation(
            assumption=ids[1],
            witness=(f"{ids[1]}: state(s) {', '.join(miss_labels)} have no "
                     f"one-step transition into {extreme_name}"),
            states=miss_labels,
        ))
    return ok_block, ok_reach, violations


def validate(model: MarkovModel) -> AssumptionReport:
    """Check A1-A4 for the model; raises if P itself is not irreducible.

    Irreducibility of P is the standing hypothesis for everything in this
    package, so its absence is an error rather than a report entry.  The
    report is memoized on the model; an error is raised on every call.
    """
    return memo(model._derived, "assumptions", lambda _: _validate(model))


def _validate(model: MarkovModel) -> AssumptionReport:
    if not is_irreducible(model.P):
        raise AssumptionError(
            "assumptions: transition matrix is not irreducible")
    ls = level_sets(model)
    labels = model.states
    a1, a2, v_up = _check_pair(model.P, ls.S_b, labels, "upper", "S_b")
    a3, a4, v_lo = _check_pair(model.P, ls.S_a, labels, "lower", "S_a")
    return AssumptionReport(
        a1=a1, a2=a2, a3=a3, a4=a4,
        S_b=tuple(labels[i] for i in ls.S_b),
        S_a=tuple(labels[i] for i in ls.S_a),
        violations=tuple(v_up + v_lo),
    )


def _sign(side) -> float:
    """1.0 for "upper", -1.0 for "lower"; any other side raises DomainError."""
    if side not in ("upper", "lower"):
        raise DomainError(
            f"assumptions: side must be 'upper' or 'lower', got {side!r}")
    return 1.0 if side == "upper" else -1.0


def require(model: MarkovModel, side: str) -> None:
    """Raise AssumptionError with the side's violations unless A1-A2
    (upper) or A3-A4 (lower) hold, after ``_sign`` reads the side."""
    _sign(side)
    ids = SIDE_ASSUMPTIONS[side]
    report = validate(model)
    bad = [v for v in report.violations if v.assumption in ids]
    if bad:
        raise AssumptionError(
            f"assumptions: the {side} tail requires {'-'.join(ids)}; "
            + "; ".join(v.witness for v in bad), violations=bad)
