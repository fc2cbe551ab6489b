"""Axiom-check reports: one record per law, with a deterministic first counterexample.

Each checker states its laws once, in a private ordered table (``_table``)
of law functions of the checked data, and runs it with ``_run``, the one
place where a law's verdict is decided.  ``LAW_NAMES`` is read off the tables.

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

# Every law function of every checker table by law name, filled as each checker
# module builds its tables at import (see ``_table``).
_REGISTRY: dict[str, Callable] = {}
LAW_NAMES = _REGISTRY.keys()


@dataclass(frozen=True)
class LawCheck:
    law: str
    passed: bool
    first_counterexample: tuple[int, ...] | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.law not in LAW_NAMES:
            raise ValueError(f"unknown law name {self.law!r}")


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


def law_from_maps(
    law: str, legs: Sequence[int], lhs, rhs, column_dims: Sequence[int] | None = None, reduced=None
) -> LawCheck:
    """Compare two wirings of (map, lead) steps on ``legs``, in batches of basis
    columns; record the first bad column, as a multi-index over ``column_dims``
    (by default the legs).  ``reduced``, if given, is a law (legs, lhs, rhs) whose
    agreement implies this one's: it runs first, and only a difference there
    runs the full comparison, which then decides the verdict and the column."""
    if reduced is not None and _Wiring(reduced[0], reduced[1]).first_difference(reduced[2]) is None:
        return LawCheck(law, True)
    diff = _Wiring(legs, lhs).first_difference(rhs, column_dims)
    if diff is None:
        return LawCheck(law, True)
    col, row, a, b = diff
    detail = f"lhs[{row}] = {_text(a)}, rhs[{row}] = {_text(b)} on basis input {col}"
    return LawCheck(law, False, first_counterexample=col, detail=detail)


def merge(*parts: Iterable[LawCheck]) -> AxiomReport:
    return AxiomReport(tuple(chain.from_iterable(parts)))


def _table(**laws: Callable) -> dict[str, Callable]:
    """An ordered checker table {law name: law function}, registered in ``LAW_NAMES``.  A law
    function of the data its checker hands to ``_run`` returns a map law, the tuple (legs, lhs,
    rhs[, column_dims[, reduced]]) of ``law_from_maps``, or a lazy stream of cases (index, got,
    want, detail)."""
    _REGISTRY.update(laws)
    return laws


def _run(table: dict[str, Callable], *data) -> AxiomReport:
    """Run each law of ``table`` on ``data`` in table order, building its steps
    or cases only then.  A stream law fails on its first case whose vectors
    differ (both tuples, or both sparse {flat index: nonzero}); no later case is built."""
    checks = []
    for law, spec in table.items():
        got = spec(*data)
        if isinstance(got, tuple):
            checks.append(law_from_maps(law, *got))
        else:
            bad = next(((index, detail) for index, lhs, rhs, detail in got if lhs != rhs), None)
            checks.append(LawCheck(law, True) if bad is None else LawCheck(law, False, *bad))
    return AxiomReport(tuple(checks))


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
