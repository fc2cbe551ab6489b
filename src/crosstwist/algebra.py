"""Finite-dimensional unital associative algebras given by structure constants.

A passing ``check_algebra`` report is remembered per object (see ``report``),
and the triple product of A is two ``mult`` steps (``_triple``) that read the
remembered ``assoc`` law, so no m**3-column map is built or scanned again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Sequence

from .fields import Field, Scalar, _text
from .linmap import LinMap, ShapeError, _columns, _element, _from_columns, _sparse, _Wiring, basis_vector
from .report import AxiomReport, _certify_once, _run, _table


class GroupTableError(ValueError):
    """The given table is not a group Cayley table; the message names the axiom."""


class NonAssociativeError(ValueError):
    """The two bracketings of a triple product disagree."""


@dataclass(frozen=True)
class Algebra:
    """An algebra (A, mult, unit): mult maps A (x) A -> A, unit is a coordinate vector.

    Construction validates shapes only; the laws live in :func:`check_algebra`.
    """

    dim: int
    mult: LinMap
    unit: tuple[Scalar, ...]
    label: str = ""

    def __post_init__(self) -> None:
        m = self.dim
        if m <= 0:
            raise ShapeError("algebra dimension must be positive")
        if self.mult.domain_dims != (m, m) or self.mult.codomain_dims != (m,):
            raise ShapeError(
                f"multiplication must map ({m}, {m}) -> ({m},); got "
                f"{self.mult.domain_dims} -> {self.mult.codomain_dims}"
            )
        object.__setattr__(
            self, "unit", tuple(self.field.check(x) for x in self.unit)
        )
        if len(self.unit) != m:
            raise ShapeError(f"unit vector length {len(self.unit)} != dimension {m}")

    @property
    def field(self) -> Field:
        return self.mult.field


@dataclass(frozen=True)
class PointedSpace:
    """A vector space with a distinguished nonzero element."""

    dim: int
    point: tuple[Scalar, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ShapeError("space dimension must be positive")
        if len(self.point) != self.dim:
            raise ShapeError(f"point length {len(self.point)} != dimension {self.dim}")
        if all(x == 0 for x in self.point):
            raise ShapeError("distinguished point must be nonzero")


def _unit_cases(a: Algebra, push, unit, left: bool):
    """unit * e_j = e_j (``left``) or e_j * unit = e_j, as cases over j, on A, the push of
    its compiled mult and the unit's nonzeros; only a failing case renders the product."""
    field, m, one = a.field, a.dim, a.field.one()
    detail = "unit * e_{j} = {got}" if left else "e_{j} * unit = {got}"
    for j in range(m):
        got = push({i * m + j if left else j * m + i: x for i, x in unit})
        dense = "" if got == {j: one} else ", ".join(_text(got.get(i, field.zero())) for i in range(m))
        yield (j,), got, {j: one}, detail.format(j=j, got=f"[{dense}]")


_LAWS = _table(
    assoc=lambda a, *_: ((a.dim,) * 3, [(a.mult, 0), (a.mult, 0)], [(a.mult, 1), (a.mult, 0)]),
    unit_left=partial(_unit_cases, left=True),
    unit_right=partial(_unit_cases, left=False),
)


@_certify_once
def check_algebra(a: Algebra) -> AxiomReport:
    """Verify associativity and both unit laws; failures are data, not errors.
    A passing report is remembered per object."""
    return _run(_LAWS, a, _Wiring((a.dim, a.dim), [(a.mult, 0)]).push, _sparse(a.field, a.unit).items())


def _triple(a: Algebra, lead: int) -> list:
    """The triple product of A on the three legs from ``lead`` as two steps,
    a (b c); refuses a non-associative A by its ``assoc`` law, read from the
    remembered ``check_algebra(a)``."""
    assoc = check_algebra(a).check("assoc")
    if not assoc.passed:
        raise NonAssociativeError(
            "triple product depends on bracketing; first difference on basis input "
            f"{assoc.first_counterexample}"
        )
    return [(a.mult, lead + 1), (a.mult, lead)]


def algebra_from_group(
    cayley_table: Sequence[Sequence[int]],
    identity_index: int,
    field: Field,
    label: str = "",
) -> Algebra:
    """Group algebra of a finite group given by a 0-based multiplication table."""
    n = len(cayley_table)
    if n == 0:
        raise GroupTableError("empty table")
    table = []
    for i, row in enumerate(cayley_table):
        if len(row) != n:
            raise GroupTableError(f"closure: row {i} has length {len(row)}, expected {n}")
        for j, x in enumerate(row):
            if not isinstance(x, int) or not 0 <= x < n:
                raise GroupTableError(f"closure: entry ({i}, {j}) = {x!r} is not in [0, {n})")
        table.append([int(x) for x in row])
    if not 0 <= identity_index < n:
        raise GroupTableError(f"identity: index {identity_index} out of range")
    e = identity_index
    for i in range(n):
        if table[e][i] != i or table[i][e] != i:
            raise GroupTableError(f"identity: element {e} does not fix element {i}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise GroupTableError(
                        f"associativity: fails on triple ({i}, {j}, {k})"
                    )
    for i in range(n):
        if e not in table[i]:
            raise GroupTableError(f"inverses: element {i} has no right inverse")
    one = field.one()
    mult = _from_columns(field, (n, n), (n,), [{k: one} for row in table for k in row])
    return Algebra(n, mult, basis_vector(field, n, e), label=label)


def tensor_elem_product(
    a: Algebra, k: int, u: Sequence[Scalar], v: Sequence[Scalar], *more: Sequence[Scalar]
) -> tuple[Scalar, ...]:
    """Product u v ... of two or more elements of the k-fold tensor power algebra
    of ``a``, bracketed from the right: u (v (w ...)).

    Splits on the first leg: u = sum e_i (x) u_i and v = sum e_j (x) v_j give
    uv = sum (e_i e_j) (x) (u_i v_j), so each pair of nonzero scalars is multiplied
    once, on the last leg, and a structure constant other than one scales a partial sum.
    Partial products are sparse dicts of ints: over Q, factors and structure
    constants are scaled by their common denominators (multiplied along the chain)
    and each nonzero output is one ``Fraction``; over GF(p) each level is reduced mod p.
    """
    field, m, p = a.field, a.dim, a.field.characteristic
    total = m**k
    if k < 1:
        raise ShapeError(f"tensor powers start at k = 1, got k = {k}")
    factors = (u, v) + more
    if any(len(x) != total for x in factors):
        raise ShapeError(f"expected vectors of length {total} in the {k}-fold power")
    table, d_t = _columns(a.mult), 1  # table[i*m + j]: the nonzero (w, c) with e_i e_j = sum of c e_w / d_t
    if not p:  # the constants as ints c * d_t, with None (no product) only for a scaled constant equal to one
        d_t = lcm(*(c.denominator for col in table for _, c in col if c))
        table = [[(w, None if (s := c.numerator * (d_t // c.denominator) if c else d_t) == 1 else s)
                  for w, c in col] for col in table]

    def integral(x):
        """Integers n_i and one denominator d > 0 with x_i = n_i / d; over GF(p), x and 1."""
        if p:
            return x, 1
        d = lcm(*(s.denominator for s in x.values()))
        return {i: s.numerator * (d // s.denominator) for i, s in x.items()}, d

    def split(x, n):
        """Sparse x on n legs as {i: x_i} with x = sum e_i (x) x_i, each x_i split again."""
        if n == 1:
            return x
        parts, block = {}, m ** (n - 1)
        for flat, s in x.items():
            i, rest = divmod(flat, block)
            parts.setdefault(i, {})[rest] = s
        return {i: split(part, n - 1) for i, part in parts.items()}

    def product(x, y, n):
        """x y for x, y on n legs, split by ``split``, times d_t**n."""
        out, block = {}, m ** (n - 1)
        if n == 1:  # the last leg: one product per pair, scattered by e_i e_j
            for i, s in x.items():
                for j, t in y.items():
                    st = s * t
                    for w, c in table[i * m + j]:
                        q = st if c is None else st * c
                        out[w] = out[w] + q if w in out else q
        else:  # one product u_i v_j per pair, scattered by e_i e_j
            for i, xi in x.items():
                for j, yj in y.items():
                    part = product(xi, yj, n - 1).items()
                    for w, c in table[i * m + j]:
                        for r, s in part:
                            z, q = w * block + r, s if c is None else s * c
                            out[z] = out[z] + q if z in out else q
        return {z: r for z, s in out.items() if (r := s % p if p else s)}

    got, d = integral(_sparse(field, factors[-1]))
    for x in reversed(factors[:-1]):
        x, d_x = integral(_sparse(field, x))
        got, d = product(split(x, k), split(got, k), k), d_x * d * d_t**k
    got, zero = got if p else {z: Fraction(s, d) for z, s in got.items()}, field.zero()
    return tuple(got.get(z, zero) for z in range(total))


def opposite_unit_insertion(a: Algebra, v: PointedSpace) -> LinMap:
    """The insertion V -> A (x) V sending each basis vector w to unit (x) w."""
    return _Wiring((v.dim,), [(_element(a.field, (a.dim,), a.unit), 0)]).to_map()
