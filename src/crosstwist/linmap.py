"""Basis-indexed linear maps between tensor products of finite-dimensional spaces.

A ``LinMap`` is a dense matrix over an exact field together with the factor
dimensions of its domain and codomain.  The basis of a tensor product is
indexed row-major and left-associated: the pair (i, j) with 0 <= i < dim X,
0 <= j < dim Y maps to flat index i*dim(Y) + j, and longer factor lists
extend the same rule to the left.  With that convention the tensor product
of maps is the Kronecker product of their matrices.

All values are immutable after construction and every operation is a pure
function.  Entries are validated when a map is constructed; the products here
build their results from already-canonical entries and skip that check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import Field, Scalar


class ShapeError(ValueError):
    """Dimension or factor-shape mismatch between maps or vectors."""


class SingularMapError(ValueError):
    """Matrix inversion requested for a singular map."""


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


@dataclass(frozen=True)
class LinMap:
    """Exact matrix of a linear map, rows indexed by the codomain basis."""

    field: Field
    domain_dims: tuple[int, ...]
    codomain_dims: tuple[int, ...]
    matrix: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain_dims", tuple(self.domain_dims))
        object.__setattr__(self, "codomain_dims", tuple(self.codomain_dims))
        dt = _total(self.domain_dims)
        ct = _total(self.codomain_dims)
        rows = tuple(tuple(self.field.check(x) for x in row) for row in self.matrix)
        if len(rows) != ct or any(len(row) != dt for row in rows):
            raise ShapeError(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not match "
                f"codomain total {ct} x domain total {dt}"
            )
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def _trusted(cls, field: Field, domain_dims, codomain_dims, matrix) -> LinMap:
        """A map from canonical scalars in a checked shape, without revalidation."""
        f = object.__new__(cls)
        f.__dict__.update(
            field=field,
            domain_dims=tuple(domain_dims),
            codomain_dims=tuple(codomain_dims),
            matrix=matrix,
        )
        return f

    @property
    def domain_total(self) -> int:
        return _total(self.domain_dims)

    @property
    def codomain_total(self) -> int:
        return _total(self.codomain_dims)

    def entry(self, row: int, col: int) -> Scalar:
        return self.matrix[row][col]

    def column(self, col: int) -> tuple[Scalar, ...]:
        return tuple(row[col] for row in self.matrix)


def _require_same_field(*maps: LinMap) -> Field:
    field = maps[0].field
    for m in maps[1:]:
        if m.field != field:
            raise ShapeError(
                f"field mismatch: {m.field.describe()} vs {field.describe()}"
            )
    return field


def identity(field: Field, dims: Sequence[int]) -> LinMap:
    dims = tuple(dims)
    n = _total(dims)
    one, zero = field.one(), field.zero()
    rows = tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )
    return LinMap(field, dims, dims, rows)


class MapBuilder:
    """Accumulates matrix entries for maps assembled by explicit index loops."""

    def __init__(self, field: Field, domain_dims: Sequence[int], codomain_dims: Sequence[int]):
        self.field = field
        self.domain_dims = tuple(domain_dims)
        self.codomain_dims = tuple(codomain_dims)
        self._rows = [
            [field.zero()] * _total(domain_dims) for _ in range(_total(codomain_dims))
        ]

    def add(self, row: int, col: int, value: Scalar) -> None:
        self._rows[row][col] = self.field.add(self._rows[row][col], value)

    def build(self) -> LinMap:
        return LinMap(
            self.field,
            self.domain_dims,
            self.codomain_dims,
            tuple(tuple(r) for r in self._rows),
        )


def _nonzeros(row: Sequence[Scalar]) -> list[tuple[int, Scalar]]:
    return [(j, x) for j, x in enumerate(row) if x]


def compose(f: LinMap, g: LinMap) -> LinMap:
    """Matrix product f.g, i.e. the map x -> f(g(x)), over nonzeros only: row i
    gains a.b for each nonzero a = f[i][t] and each nonzero b in row t of g."""
    field = _require_same_field(f, g)
    if f.domain_total != g.codomain_total:
        raise ShapeError(
            f"compose: domain total {f.domain_total} of the outer map does not match "
            f"codomain total {g.codomain_total} of the inner map"
        )
    add, mul, zero = field.add, field.mul, field.zero()
    g_rows = [_nonzeros(row) for row in g.matrix]
    rows = []
    for f_row in f.matrix:
        row = [zero] * g.domain_total
        for t, a in _nonzeros(f_row):
            for j, b in g_rows[t]:
                row[j] = add(row[j], mul(a, b))
        rows.append(tuple(row))
    return LinMap._trusted(field, g.domain_dims, f.codomain_dims, tuple(rows))


def tensor_map(f: LinMap, g: LinMap) -> LinMap:
    """Kronecker product; factor lists concatenate.  Only products of nonzero
    pairs are computed; every other entry is the field's zero."""
    field = _require_same_field(f, g)
    mul, zero = field.mul, field.zero()
    width = g.domain_total
    g_rows = [_nonzeros(row) for row in g.matrix]
    rows = []
    for f_row in f.matrix:
        f_nz = [(j * width, a) for j, a in _nonzeros(f_row)]
        for g_nz in g_rows:
            row = [zero] * (f.domain_total * width)
            for offset, a in f_nz:
                for q, b in g_nz:
                    row[offset + q] = mul(a, b)
            rows.append(tuple(row))
    return LinMap._trusted(
        field,
        f.domain_dims + g.domain_dims,
        f.codomain_dims + g.codomain_dims,
        tuple(rows),
    )


def apply(f: LinMap, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Matrix-vector product, exact."""
    if len(v) != f.domain_total:
        raise ShapeError(f"vector length {len(v)} does not match domain total {f.domain_total}")
    field = f.field
    vec = [field.check(x) for x in v]
    zero = field.zero()
    out = []
    for row in f.matrix:
        acc = zero
        for a, x in zip(row, vec):
            if a != zero and x != zero:
                acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return tuple(out)


def first_difference(f: LinMap, g: LinMap) -> tuple[tuple[int, ...], tuple[int, ...], Scalar, Scalar] | None:
    """First (domain multi-index, codomain multi-index, lhs, rhs) where entries differ.

    Columns are scanned in ascending flat order so the answer is deterministic.
    """
    _require_same_field(f, g)
    if f.domain_total != g.domain_total or f.codomain_total != g.codomain_total:
        raise ShapeError(
            f"cannot compare maps of shapes {f.codomain_total}x{f.domain_total} "
            f"and {g.codomain_total}x{g.domain_total}"
        )
    for j in range(f.domain_total):
        for i in range(f.codomain_total):
            if f.matrix[i][j] != g.matrix[i][j]:
                return (
                    unflatten(j, f.domain_dims),
                    unflatten(i, f.codomain_dims),
                    f.matrix[i][j],
                    g.matrix[i][j],
                )
    return None


def maps_equal(f: LinMap, g: LinMap) -> bool:
    """Exact entrywise equality; factor lists may differ if totals agree."""
    return first_difference(f, g) is None


def reshape(f: LinMap, domain_dims: Sequence[int], codomain_dims: Sequence[int]) -> LinMap:
    """Relabel the tensor factors; the flat matrix is unchanged."""
    if _total(domain_dims) != f.domain_total or _total(codomain_dims) != f.codomain_total:
        raise ShapeError(
            f"reshape to {tuple(codomain_dims)}x{tuple(domain_dims)} changes flat totals"
        )
    return LinMap._trusted(f.field, domain_dims, codomain_dims, f.matrix)


def flip(field: Field, dim_x: int, dim_y: int) -> LinMap:
    """The swap X (x) Y -> Y (x) X on basis vectors."""
    one, zero = field.one(), field.zero()
    rows = []
    for q in range(dim_y):
        for p in range(dim_x):
            row = [zero] * (dim_x * dim_y)
            row[p * dim_y + q] = one
            rows.append(tuple(row))
    return LinMap(field, (dim_x, dim_y), (dim_y, dim_x), tuple(rows))


def invert(f: LinMap) -> LinMap:
    """Inverse of a square map by Gauss-Jordan elimination over the field."""
    if f.domain_total != f.codomain_total:
        raise ShapeError("only square maps can be inverted")
    field = f.field
    n = f.domain_total
    zero = field.zero()
    a = [list(row) for row in f.matrix]
    b = [list(row) for row in identity(field, (n,)).matrix]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != zero), None)
        if pivot is None:
            raise SingularMapError(f"map is singular (no pivot in column {col})")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = field.inv(a[col][col])
        a[col] = [field.mul(inv, x) for x in a[col]]
        b[col] = [field.mul(inv, x) for x in b[col]]
        for r in range(n):
            if r != col and a[r][col] != zero:
                factor = a[r][col]
                a[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(a[r], a[col])]
                b[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(b[r], b[col])]
    return LinMap(field, f.codomain_dims, f.domain_dims, tuple(tuple(r) for r in b))


def basis_vector(field: Field, n: int, i: int) -> tuple[Scalar, ...]:
    if not 0 <= i < n:
        raise IndexError(f"basis index {i} out of range [0, {n})")
    return tuple(field.one() if j == i else field.zero() for j in range(n))


def kron_vec(field: Field, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Coordinates of u (x) v in the row-major product basis."""
    return tuple(field.mul(field.check(a), field.check(b)) for a in u for b in v)


def vectors_equal(field: Field, u: Sequence[Scalar], v: Sequence[Scalar]) -> bool:
    if len(u) != len(v):
        raise ShapeError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return all(field.check(a) == field.check(b) for a, b in zip(u, v))


def random_matrix_map(
    field: Field,
    domain_dims: Sequence[int],
    codomain_dims: Sequence[int],
    rng: random.Random,
    entries: Iterable[int] = (-2, -1, 0, 1, 2),
) -> LinMap:
    """Small-integer random map; deterministic for a seeded ``rng``."""
    pool = [field.from_int(e) for e in entries]
    dt, ct = _total(domain_dims), _total(codomain_dims)
    rows = tuple(tuple(rng.choice(pool) for _ in range(dt)) for _ in range(ct))
    return LinMap(field, tuple(domain_dims), tuple(codomain_dims), rows)
