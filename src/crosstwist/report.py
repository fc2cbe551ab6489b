"""Axiom-check reports: one record per law, with a deterministic first counterexample.

``check_algebra``, ``check_twisting_map`` and ``check_brz_axioms`` remember a
passing report per object (``_certify_once``), so an algebra or crossed datum
that several builders require is certified once.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Sequence

from .fields import _text
from .linmap import _Wiring

# Fixed vocabulary of law names used by every checker and by the interchange
# format.  theta_mult and sigma_prime_ttp name the algebra-map and the
# derived-cocycle checks of the twisted-tensor-product specialization.
LAW_NAMES = frozenset(
    {
        "assoc",
        "unit_left",
        "unit_right",
        "tw1",
        "tw2",
        "tw3",
        "tw4",
        "brz1",
        "brz2",
        "brz3",
        "brz4",
        "brz5",
        "cros1",
        "cros2",
        "cros3",
        "cros4",
        "rel1",
        "rel2",
        "rel3",
        "theta_mult",
        "sigma_prime_ttp",
        "phi_unital",
        "phi_mult",
        "phi_invertible",
    }
)


@dataclass(frozen=True)
class LawCheck:
    law: str
    passed: bool
    first_counterexample: tuple[int, ...] | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.law not in LAW_NAMES:
            raise ValueError(f"unknown law name {self.law!r}")

    @classmethod
    def from_vectors(
        cls, law: str, cases: Iterable[tuple[tuple[int, ...], Sequence, Sequence, str]]
    ) -> LawCheck:
        """Fail on the first case (index, got, want, detail) whose vectors differ;
        both vectors of a case are tuples, or both sparse {flat index: nonzero}.

        ``cases`` is consumed lazily, so no case after the first failure is built.
        """
        for index, got, want, detail in cases:
            if got != want:
                return cls(law, False, first_counterexample=index, detail=detail)
        return cls(law, True)


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[LawCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[LawCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, law: str) -> LawCheck:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(f"report has no check for law {law!r}")

    def require(self, error: type[Exception], template: str) -> None:
        """Raise ``error`` for the first failed law; the template sees {law} and {detail}.
        The exception carries this whole report as its ``report`` attribute."""
        if not self.passed:
            bad = self.failures[0]
            exc = error(template.format(law=bad.law, detail=bad.detail))
            exc.report = self
            raise exc

    def __str__(self) -> str:
        return "\n".join(format_check(c) for c in self.checks)


def format_check(c: LawCheck) -> str:
    status = "PASS" if c.passed else "FAIL"
    where = ""
    if not c.passed and c.first_counterexample is not None:
        where = f" at basis index {c.first_counterexample}"
    detail = f": {c.detail}" if c.detail and not c.passed else ""
    return f"[{status}] {c.law}{where}{detail}"


def law_from_maps(law: str, legs: Sequence[int], lhs, rhs, column_dims: Sequence[int] | None = None) -> LawCheck:
    """Compare two wirings of (map, lead) steps on ``legs``, in batches of basis
    columns; record the first bad column, as a multi-index over ``column_dims``
    (by default the legs)."""
    diff = _Wiring(legs, lhs).first_difference(rhs, column_dims)
    if diff is None:
        return LawCheck(law, True)
    col, row, a, b = diff
    detail = f"lhs[{row}] = {_text(a)}, rhs[{row}] = {_text(b)} on basis input {col}"
    return LawCheck(law, False, first_counterexample=col, detail=detail)


def merge(*parts: Iterable[LawCheck]) -> AxiomReport:
    return AxiomReport(tuple(chain.from_iterable(parts)))


# Passing reports by (certifier, id of the certified object), each entry with
# a weak reference to that object; see ``_certify_once``.
_PASSED: dict[tuple[Callable, int], tuple[weakref.ref, AxiomReport]] = {}


def _certify_once(check: Callable[[object], AxiomReport]) -> Callable[[object], AxiomReport]:
    """Remember a passing report of ``check`` per identity of the object it checks.

    The side table is keyed by ``check`` and the object's ``id`` and holds the
    object weakly, so its entry drops when the object is collected.  Nothing
    is stored on the object, so ``copy.deepcopy`` of a certified object is
    certified afresh.  A failing report is not stored: it is recomputed on
    every call.
    """

    @functools.wraps(check)
    def certified(x):
        key = (check, id(x))
        hit = _PASSED.get(key)
        if hit is not None and hit[0]() is x:
            return hit[1]
        report = check(x)
        if report.passed:
            _PASSED[key] = (weakref.ref(x, lambda _ref: _PASSED.pop(key, None)), report)
        return report

    return certified
