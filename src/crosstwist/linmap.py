"""Basis-indexed linear maps between tensor products of finite-dimensional spaces.

A ``LinMap`` is an exact matrix over a field together with the factor
dimensions of its domain and codomain.  The basis of a tensor product is
indexed row-major and left-associated: the pair (i, j) with 0 <= i < dim X,
0 <= j < dim Y maps to flat index i*dim(Y) + j, and longer factor lists
extend the same rule to the left.  With that convention the tensor product
of maps is the Kronecker product of their matrices.

A map stores only its nonzero entries, column by column: one tuple per
domain basis vector in flat order, holding (row, entry) pairs in ascending
row order, with ``None`` for an entry equal to one.  The tuples are never
changed, so ``reshape`` and ``copy.deepcopy`` share them, and memory grows
with the nonzeros, not with codomain x domain.  Every map the program builds
comes from sparse columns through ``_from_columns``, and every reader of
nonzeros goes through ``_columns``, which hands the stored pairs out
(offset by a stride) without a scan.  The dense form is only the boundary:
the public constructor takes dense rows, checks every entry and stores the
columns; ``matrix`` and ``column`` rebuild dense rows and a dense column on
every read; ``io`` writes and reads documents through them; and ``_element``
takes an element's coordinates from outside as a one-column constructor call.

Composites are written as wiring: a list of (map, lead) steps on a tensor
product with given factor dims (its legs), where step (f, lead) applies f to
the legs from position ``lead`` on that f's domain covers and leaves the
other legs alone, so no identity map pads it; lead ``None`` feeds f every
leg, matched by total.  An element is a map on no legs: its step inserts the
element's legs at ``lead``, so an element acting on other legs (the unit
insertion, the associator acting on B one leg at a time) is a wiring too.
``_Wiring`` compiles such a list once from ``_columns`` and pushes sparse
vectors {flat index: nonzero} through it.  An entry equal to one adds the
incoming coefficient without a product (flips, identities and group-algebra
products are 0/1 maps).  Basis columns are pushed in batches, as one sparse
vector with each column on an extra leading leg, so the steps see a batch
as more legs before their lead.  A map is built from one batch of all its
columns, and two wirings are compared batch by batch, in batches of 1, 2,
4, ... columns up to a fixed cap, stopping at the first batch that
differs.  ``compose`` and ``first_difference`` are single wirings.
``algebra.tensor_elem_product`` splits on the first leg instead, so that
u (x) v is never built, on Python ints: over Q with one common denominator
per factor, over GF(p) reduced mod p once per product level.

All values are immutable after construction and every operation is a pure
function.  Entries are validated when a map is constructed through
``LinMap(...)``; maps built from field constants or from products of checked
maps hold canonical entries and skip that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import Field, Scalar


class ShapeError(ValueError):
    """Dimension or factor-shape mismatch between maps or vectors."""


def unflatten(flat: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Row-major multi-index of a flat index with respect to factor dims."""
    total = 1
    for d in dims:
        total *= d
    if not 0 <= flat < total:
        raise IndexError(f"flat index {flat} out of range [0, {total})")
    out = []
    for d in reversed(dims):
        flat, r = divmod(flat, d)
        out.append(r)
    return tuple(reversed(out))


def _total(dims: Sequence[int]) -> int:
    total = 1
    for d in dims:
        if d <= 0:
            raise ShapeError(f"factor dimensions must be positive, got {tuple(dims)}")
        total *= d
    return total


@dataclass(frozen=True, init=False)
class LinMap:
    """Exact matrix of a linear map, stored as its nonzero columns.

    ``LinMap(field, domain_dims, codomain_dims, rows)`` takes the dense rows,
    indexed by the codomain basis; ``__post_init__`` checks every entry
    against the field and stores the columns.
    """

    field: Field
    domain_dims: tuple[int, ...]
    codomain_dims: tuple[int, ...]
    _cols: tuple  # see the module docstring

    def __init__(self, field: Field, domain_dims, codomain_dims, rows: Sequence[Sequence[Scalar]]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "domain_dims", tuple(domain_dims))
        object.__setattr__(self, "codomain_dims", tuple(codomain_dims))
        self.__post_init__(rows)

    def __post_init__(self, rows) -> None:
        dt = _total(self.domain_dims)
        ct = _total(self.codomain_dims)
        rows, check, one = tuple(rows), self.field.check, self.field.one()
        cols = tuple(
            tuple((i, None if x == one else x) for i, x in enumerate(map(check, c)) if x) for c in zip(*rows)
        )
        if len(rows) != ct or any(len(row) != dt for row in rows):
            for row in rows:  # a bad entry outranks a bad shape, also past the shortest row
                tuple(map(check, row))
            raise ShapeError(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not match "
                f"codomain total {ct} x domain total {dt}"
            )
        object.__setattr__(self, "_cols", cols)

    @property
    def domain_total(self) -> int:
        return _total(self.domain_dims)

    @property
    def codomain_total(self) -> int:
        return _total(self.codomain_dims)

    @property
    def matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        """The dense rows, rebuilt from the columns on every read."""
        zero, one = self.field.zero(), self.field.one()
        rows = [[zero] * len(self._cols) for _ in range(self.codomain_total)]
        for j, col in enumerate(self._cols):
            for i, x in col:
                rows[i][j] = one if x is None else x
        return tuple(map(tuple, rows))

    def column(self, col: int) -> tuple[Scalar, ...]:
        one, out = self.field.one(), [self.field.zero()] * self.codomain_total
        for i, x in self._cols[col]:
            out[i] = one if x is None else x
        return tuple(out)


def _stored(field: Field, domain_dims, codomain_dims, cols: tuple) -> LinMap:
    """The map holding ``cols`` as its columns, without revalidation."""
    f = object.__new__(LinMap)
    f.__dict__.update(field=field, domain_dims=tuple(domain_dims), codomain_dims=tuple(codomain_dims), _cols=cols)
    return f


def _from_columns(field: Field, domain_dims, codomain_dims, cols) -> LinMap:
    """A map from sparse columns {row: canonical nonzero}, one per domain basis
    vector in flat order, without revalidation."""
    one = field.one()
    cols = (tuple((i, None if x == one else x) for i, x in sorted(c.items())) for c in cols)
    return _stored(field, domain_dims, codomain_dims, tuple(cols))


def _columns(f: LinMap, stride: int = 1) -> tuple:
    """Each column's nonzeros as (row * stride, entry), in ascending row order,
    with entry None for an entry equal to one."""
    if stride == 1:
        return f._cols
    return tuple(tuple((i * stride, x) for i, x in col) for col in f._cols)


def _sparse(field: Field, v: Sequence[Scalar]) -> dict[int, Scalar]:
    """The nonzero entries {index: entry} of a vector, each checked against the field."""
    return {i: x for i, x in enumerate(map(field.check, v)) if x}


def _element(field: Field, dims: Sequence[int], x: Sequence[Scalar]) -> LinMap:
    """An element x of the tensor product with factor dims ``dims`` as a map on
    no legs, so that step (x, lead) inserts x's legs at position ``lead``.  The
    coordinates come from outside, so the public constructor checks them."""
    return LinMap(field, (), dims, tuple((c,) for c in x))


# The most basis columns ``_Wiring.first_difference`` pushes as one batch.
_BATCH_CAP = 256


class _Wiring:
    """(map, lead) steps compiled on a tensor product with factor dims ``legs``.

    Step (f, lead) applies f to the len(f.domain_dims) legs from position
    ``lead``, whose dims must be f's domain dims, with 0 <= lead <= the number
    of legs at that step; an element (a map on no legs, see ``_element``) is
    inserted at ``lead``.  Step (f, None) applies f to all legs, matched by
    total only.  ``dims`` are the legs after the last step.  All maps must be
    over ``field`` (by default the first map's).
    """

    def __init__(self, legs: Sequence[int], steps, field: Field | None = None):
        self.legs = dims = tuple(legs)
        self.field = field if field is not None else steps[0][0].field
        self._compiled = []
        for f, lead in steps:
            if f.field != self.field:
                raise ShapeError(f"field mismatch: {f.field.describe()} vs {self.field.describe()}")
            k = len(f.domain_dims)
            if lead is None and f.domain_total == _total(dims):
                lead, k = 0, len(dims)
            elif lead is None or not 0 <= lead <= len(dims) or dims[lead : lead + k] != f.domain_dims:
                raise ShapeError(f"a map on {f.domain_dims} does not fit legs {dims} at {lead}")
            right = _total(dims[lead + k :])
            cols = _columns(f, right)  # row offsets in the flat index over the legs from lead on
            self._compiled.append((f.domain_total * right, right, f.codomain_total * right, cols))
            dims = dims[:lead] + f.codomain_dims + dims[lead + k :]
        self.dims = dims

    def push(self, vec: dict[int, Scalar]) -> dict[int, Scalar]:
        """The image of a sparse vector {flat index: nonzero}, in the same form."""
        add, mul = self.field.add, self.field.mul
        for block, right, out_block, cols in self._compiled:
            out = {}
            for x, c in vec.items():
                hi, rest = divmod(x, block)
                j, lo = divmod(rest, right)
                base = hi * out_block + lo
                for i, a in cols[j]:
                    y, t = base + i, c if a is None else mul(c, a)
                    out[y] = add(out[y], t) if y in out else t
            vec = {y: v for y, v in out.items() if v}
        return vec

    def apply(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """The image of a dense vector over the legs, as a dense vector."""
        n = _total(self.legs)
        if len(v) != n:
            raise ShapeError(f"vector length {len(v)} does not match domain total {n}")
        out = [self.field.zero()] * _total(self.dims)
        for i, x in self.push(_sparse(self.field, v)).items():
            out[i] = x
        return tuple(out)

    def _push_columns(self, start: int, stop: int) -> dict[int, Scalar]:
        """The basis columns start..stop-1 pushed as one sparse vector.  Column j
        rides on an extra leading leg, at (j - start) * total(legs) + j; each
        compiled step carries the legs before its lead along as ``hi``, so the
        image of column j lands at (j - start) * total(dims) + row, and entries
        of different columns never meet or cancel."""
        one, n = self.field.one(), _total(self.legs)
        return self.push({(j - start) * n + j: one for j in range(start, stop)})

    def to_map(self) -> LinMap:
        """The composite as a map, all basis columns pushed as one batch."""
        n, t = _total(self.legs), _total(self.dims)
        cols = [{} for _ in range(n)]
        for y, x in self._push_columns(0, n).items():
            j, i = divmod(y, t)
            cols[j][i] = x
        return _from_columns(self.field, self.legs, self.dims, cols)

    def first_difference(self, steps, column_dims: Sequence[int] | None = None):
        """First (domain multi-index, codomain multi-index, lhs, rhs) where this
        composite and that of ``steps`` on the same legs differ, the column
        given over ``column_dims`` (by default the legs) of the same total.
        Basis columns are pushed through both in ascending flat order, in
        batches of 1, 2, 4, ... up to ``_BATCH_CAP`` columns, and the scan
        stops at the first batch that differs; its smallest differing key is
        the first differing column and, in it, the first differing row."""
        other = _Wiring(self.legs, steps, self.field)
        t = _total(self.dims)
        if t != _total(other.dims):
            raise ShapeError(f"cannot compare maps into {self.dims} and {other.dims}")
        n, zero = _total(self.legs), self.field.zero()
        start, size = 0, 1
        while start < n:
            stop = min(start + size, n)
            got, want = self._push_columns(start, stop), other._push_columns(start, stop)
            if got != want:
                y = min(y for y in got.keys() | want.keys() if got.get(y) != want.get(y))
                j, i = divmod(y, t)
                col = unflatten(start + j, self.legs if column_dims is None else column_dims)
                return col, unflatten(i, self.dims), got.get(y, zero), want.get(y, zero)
            start, size = stop, min(2 * size, _BATCH_CAP)
        return None


def identity(field: Field, dims: Sequence[int]) -> LinMap:
    one = field.one()
    return _from_columns(field, dims, dims, [{j: one} for j in range(_total(dims))])


class MapBuilder:
    """Accumulates matrix entries for maps assembled by explicit index loops;
    each position is checked against the shape and each value against the
    field as it is added."""

    def __init__(self, field: Field, domain_dims: Sequence[int], codomain_dims: Sequence[int]):
        self.field = field
        self.domain_dims = tuple(domain_dims)
        self.codomain_dims = tuple(codomain_dims)
        self._rows = _total(self.codomain_dims)
        self._cols = [{} for _ in range(_total(self.domain_dims))]

    def add(self, row: int, col: int, value: Scalar) -> None:
        if not (0 <= row < self._rows and 0 <= col < len(self._cols)):
            raise IndexError(f"entry ({row}, {col}) out of range [0, {self._rows}) x [0, {len(self._cols)})")
        column, value = self._cols[col], self.field.check(value)
        column[row] = self.field.add(column[row], value) if row in column else value

    def build(self) -> LinMap:
        cols = [{i: x for i, x in c.items() if x} for c in self._cols]
        return _from_columns(self.field, self.domain_dims, self.codomain_dims, cols)


def compose(f: LinMap, g: LinMap) -> LinMap:
    """Matrix product f.g, i.e. the map x -> f(g(x))."""
    return _Wiring(g.domain_dims, [(g, 0), (f, None)]).to_map()


def apply(f: LinMap, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Matrix-vector product, exact."""
    return _Wiring(f.domain_dims, [(f, 0)]).apply(v)


def first_difference(f: LinMap, g: LinMap) -> tuple[tuple[int, ...], tuple[int, ...], Scalar, Scalar] | None:
    """First (domain multi-index, codomain multi-index, lhs, rhs) where entries
    differ, in ascending flat order of columns, then rows."""
    return _Wiring(f.domain_dims, [(f, 0)]).first_difference([(g, None)])


def maps_equal(f: LinMap, g: LinMap) -> bool:
    """Exact entrywise equality; factor lists may differ if totals agree."""
    return first_difference(f, g) is None


def reshape(f: LinMap, domain_dims: Sequence[int], codomain_dims: Sequence[int]) -> LinMap:
    """Relabel the tensor factors; the flat matrix, and its stored columns, are unchanged."""
    if _total(domain_dims) != f.domain_total or _total(codomain_dims) != f.codomain_total:
        raise ShapeError(
            f"reshape to {tuple(codomain_dims)}x{tuple(domain_dims)} changes flat totals"
        )
    return _stored(f.field, domain_dims, codomain_dims, f._cols)


def flip(field: Field, dim_x: int, dim_y: int) -> LinMap:
    """The swap X (x) Y -> Y (x) X on basis vectors."""
    one = field.one()
    cols = [{q * dim_x + p: one} for p in range(dim_x) for q in range(dim_y)]
    return _from_columns(field, (dim_x, dim_y), (dim_y, dim_x), cols)


def basis_vector(field: Field, n: int, i: int) -> tuple[Scalar, ...]:
    if not 0 <= i < n:
        raise IndexError(f"basis index {i} out of range [0, {n})")
    return tuple(field.one() if j == i else field.zero() for j in range(n))


def kron_vec(field: Field, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Coordinates of u (x) v in the row-major product basis."""
    return tuple(field.mul(field.check(a), field.check(b)) for a in u for b in v)
