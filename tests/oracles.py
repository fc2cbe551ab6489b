"""Independent brute-force oracles: plain nested loops over structure constants,
sharing no code with the composite-based kernel routines they cross-check.

Also the dense forms of the product kernels, of an element acting on B legs
and of the law scan (every entry visited, zeros included), kept as the
reference the wiring kernel is tested against; the dense constructions of
the 0/1 maps and of ``MapBuilder``, kept as the reference the maps built
from sparse columns are tested against; the wiring pushed one basis column
at a time, kept as the reference its batched pushes are tested against; the
two-sided dense ``phi_invertible``, kept as the reference the one-sided law
is tested against; and small helpers that only tests use: the Kronecker
product, the triple product map, inversion, random maps, random twist pairs,
and cros1..cros3 of a pair over A and V alone, run from the twist module's table.

A ``LinMap`` rebuilds its dense ``matrix`` on every read, so each oracle
reads it once per map and indexes the copy."""

import random
from typing import Iterable

from crosstwist import (
    Algebra,
    LawCheck,
    LinMap,
    MapBuilder,
    PointedSpace,
    ShapeError,
    TwistPair,
    compose,
    flip,
    identity,
    kron_vec,
    opposite_unit_insertion,
    phi_map,
    reshape,
)
from crosstwist.algebra import _triple
from crosstwist.fields import _text
from crosstwist.linmap import _total, _Wiring, unflatten
from crosstwist.report import _run
from crosstwist.twist import _PAIR_LAWS


def _require_same_field(*maps: LinMap):
    field = maps[0].field
    for m in maps[1:]:
        if m.field != field:
            raise ShapeError(
                f"field mismatch: {m.field.describe()} vs {field.describe()}"
            )
    return field


def flat_index(multi_index, dims) -> int:
    """Row-major flat index of a multi-index with respect to factor dims."""
    if len(multi_index) != len(dims):
        raise ShapeError(
            f"multi-index has {len(multi_index)} entries for {len(dims)} factors"
        )
    flat = 0
    for k, (i, d) in enumerate(zip(multi_index, dims)):
        if not 0 <= i < d:
            raise IndexError(f"factor {k}: index {i} out of range [0, {d})")
        flat = flat * d + i
    return flat


def basis_product(a, i: int, j: int):
    """The product e_i e_j of two basis elements of the algebra ``a``."""
    return a.mult.column(i * a.dim + j)


def algebra_product(a, u, v):
    """The product uv of two coordinate vectors of the algebra ``a``, as the
    dense matrix-vector product of its multiplication with u (x) v."""
    return naive_apply(a.mult, kron_vec(a.field, u, v))


def zero_map(field, domain_dims, codomain_dims) -> LinMap:
    zero = field.zero()
    dt, ct = _total(domain_dims), _total(codomain_dims)
    rows = tuple(tuple(zero for _ in range(dt)) for _ in range(ct))
    return LinMap(field, tuple(domain_dims), tuple(codomain_dims), rows)


def scale(f: LinMap, c) -> LinMap:
    field = f.field
    c = field.check(c)
    rows = tuple(tuple(field.mul(c, x) for x in row) for row in f.matrix)
    return LinMap(field, f.domain_dims, f.codomain_dims, rows)


def tensor_algebra(x, y, label: str = ""):
    """Componentwise product algebra on X (x) Y."""
    field = x.field
    mx, my = x.dim, y.dim
    mid = tensor_map(
        tensor_map(identity(field, (mx,)), flip(field, my, mx)), identity(field, (my,))
    )
    mult = compose(tensor_map(x.mult, y.mult), mid)
    mult = reshape(mult, (mx * my, mx * my), (mx * my,))
    return Algebra(
        mx * my,
        mult,
        kron_vec(field, x.unit, y.unit),
        label=label or f"{x.label}(x){y.label}",
    )


def dense_compose(f: LinMap, g: LinMap) -> LinMap:
    """Matrix product f.g, i.e. the map x -> f(g(x))."""
    field = _require_same_field(f, g)
    if f.domain_total != g.codomain_total:
        raise ShapeError(
            f"compose: domain total {f.domain_total} of the outer map does not match "
            f"codomain total {g.codomain_total} of the inner map"
        )
    n, m = f.codomain_total, g.domain_total
    fm, gm = f.matrix, g.matrix
    zero = field.zero()
    rows = []
    for i in range(n):
        nonzero = [(t, a) for t, a in enumerate(fm[i]) if a != zero]
        row = []
        for j in range(m):
            acc = zero
            for t, a in nonzero:
                b = gm[t][j]
                if b != zero:
                    acc = field.add(acc, field.mul(a, b))
            row.append(acc)
        rows.append(tuple(row))
    return LinMap(field, g.domain_dims, f.codomain_dims, tuple(rows))


def dense_tensor_map(f: LinMap, g: LinMap) -> LinMap:
    """Kronecker product; factor lists concatenate."""
    field = _require_same_field(f, g)
    gm_rows, gm_cols = g.codomain_total, g.domain_total
    fm, gm = f.matrix, g.matrix
    rows = []
    for i in range(f.codomain_total):
        for p in range(gm_rows):
            row = []
            for j in range(f.domain_total):
                a = fm[i][j]
                row.extend(field.mul(a, gm[p][q]) for q in range(gm_cols))
            rows.append(tuple(row))
    return LinMap(
        field,
        f.domain_dims + g.domain_dims,
        f.codomain_dims + g.codomain_dims,
        tuple(rows),
    )


def dense_first_difference(f: LinMap, g: LinMap):
    """First (domain multi-index, codomain multi-index, lhs, rhs) where entries
    differ, scanning every entry of each column in ascending flat order."""
    _require_same_field(f, g)
    if f.domain_total != g.domain_total or f.codomain_total != g.codomain_total:
        raise ShapeError(
            f"cannot compare maps of shapes {f.codomain_total}x{f.domain_total} "
            f"and {g.codomain_total}x{g.domain_total}"
        )
    fm, gm = f.matrix, g.matrix
    for j in range(f.domain_total):
        for i in range(f.codomain_total):
            if fm[i][j] != gm[i][j]:
                return (
                    unflatten(j, f.domain_dims),
                    unflatten(i, f.codomain_dims),
                    fm[i][j],
                    gm[i][j],
                )
    return None


def column_scan_map(legs, steps) -> LinMap:
    """The composite of a wiring, each basis column pushed alone."""
    wiring = _Wiring(legs, steps)
    field, one = wiring.field, wiring.field.one()
    rows = [[field.zero()] * _total(legs) for _ in range(_total(wiring.dims))]
    for j in range(_total(legs)):
        for i, x in wiring.push({j: one}).items():
            rows[i][j] = x
    return LinMap(field, legs, wiring.dims, tuple(map(tuple, rows)))


def column_scan_first_difference(legs, lhs, rhs, column_dims=None):
    """First (domain multi-index, codomain multi-index, lhs, rhs) where two
    wirings on ``legs`` differ, each basis column pushed alone through both in
    ascending flat order; the column is given over ``column_dims`` (by default
    the legs) and the row over the left side's output dims."""
    left = _Wiring(legs, lhs)
    right = _Wiring(legs, rhs, left.field)
    zero, one = left.field.zero(), left.field.one()
    for j in range(_total(legs)):
        got, want = left.push({j: one}), right.push({j: one})
        if got != want:
            i = min(y for y in got.keys() | want.keys() if got.get(y) != want.get(y))
            col = unflatten(j, legs if column_dims is None else column_dims)
            return col, unflatten(i, left.dims), got.get(i, zero), want.get(i, zero)
    return None


def dense_tensor_elem_product(a, k: int, u, v):
    """Product of two elements of the k-fold tensor power algebra of ``a``,
    one ``basis_product`` column per pair of nonzero basis factors."""
    field = a.field
    m = a.dim
    dims = (m,) * k
    total = m**k
    if len(u) != total or len(v) != total:
        raise ShapeError(f"expected vectors of length {total} in the {k}-fold power")
    zero = field.zero()
    out = [zero] * total
    nz_u = [(unflatten(i, dims), x) for i, x in enumerate(u) if x != zero]
    nz_v = [(unflatten(i, dims), x) for i, x in enumerate(v) if x != zero]
    for ia, xa in nz_u:
        for ib, xb in nz_v:
            terms = [((), field.mul(xa, xb))]
            for t in range(k):
                col = basis_product(a, ia[t], ib[t])
                terms = [
                    (idx + (w,), field.mul(coeff, col[w]))
                    for idx, coeff in terms
                    for w in range(m)
                    if col[w] != zero
                ]
            for idx, coeff in terms:
                flat = flat_index(idx, dims)
                out[flat] = field.add(out[flat], coeff)
    return tuple(out)


def dense_leg_action(b, elem, lead: int, legs: int) -> LinMap:
    """The map B^(x)legs -> H^(x)lead (x) B^(x)legs given by an element x of
    H^(x)(lead + legs) over the right module algebra ``b``: its last ``legs``
    tensor legs act on the B factors one by one, its first ``lead`` legs are
    kept as H coordinates.  Each nonzero coefficient of x is expanded into
    terms, one leg of x at a time."""
    field = b.field
    m, nb = b.acting_dim, b.dim
    zero = field.zero()
    acts = {
        (j, q): [(u, c) for u, c in enumerate(b.action.column(j * m + q)) if c != zero]
        for j in range(nb)
        for q in range(m)
    }
    block = nb**legs
    out = MapBuilder(field, (nb,) * legs, (m,) * lead + (nb,) * legs)
    for flat, coeff in enumerate(elem):
        if coeff == zero:
            continue
        head, tail = divmod(flat, m**legs)
        terms = [(0, 0, coeff)]  # (domain index, codomain index in B^(x)legs, value)
        for q in unflatten(tail, (m,) * legs):
            terms = [
                (col * nb + j, row * nb + u, field.mul(value, c))
                for col, row, value in terms
                for j in range(nb)
                for u, c in acts[j, q]
            ]
        for col, row, value in terms:
            out.add(head * block + row, col, value)
    return out.build()


def dense_columns(f: LinMap):
    """Each column's nonzeros (row, entry) as a tuple, entry None for one,
    read off every entry of the dense matrix."""
    one, rows = f.field.one(), f.matrix
    return tuple(
        tuple((i, None if row[j] == one else row[j]) for i, row in enumerate(rows) if row[j])
        for j in range(f.domain_total)
    )


def dense_identity(field, dims) -> LinMap:
    n = _total(dims)
    one, zero = field.one(), field.zero()
    rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    return LinMap(field, tuple(dims), tuple(dims), rows)


def dense_flip(field, dim_x: int, dim_y: int) -> LinMap:
    """The swap X (x) Y -> Y (x) X, one dense row per basis vector of Y (x) X."""
    one, zero = field.one(), field.zero()
    rows = []
    for q in range(dim_y):
        for p in range(dim_x):
            row = [zero] * (dim_x * dim_y)
            row[p * dim_y + q] = one
            rows.append(tuple(row))
    return LinMap(field, (dim_x, dim_y), (dim_y, dim_x), tuple(rows))


def dense_group_mult(table, field) -> LinMap:
    """The multiplication of the group algebra of a Cayley table: row k has a
    one in column i*n + j exactly when g_i g_j = g_k."""
    n = len(table)
    one, zero = field.one(), field.zero()
    rows = []
    for k in range(n):
        row = [zero] * (n * n)
        for i in range(n):
            for j in range(n):
                if table[i][j] == k:
                    row[i * n + j] = one
        rows.append(tuple(row))
    return LinMap(field, (n, n), (n,), tuple(rows))


def dense_group_like_comult(field, m: int) -> LinMap:
    """g -> g (x) g on the basis of a group algebra of dimension m."""
    one, zero = field.one(), field.zero()
    rows = []
    for i in range(m):
        for j in range(m):
            rows.append(tuple(one if i == k == j else zero for k in range(m)))
    return LinMap(field, (m,), (m, m), tuple(rows))


def dense_group_like_counit(field, m: int) -> LinMap:
    return LinMap(field, (m,), (1,), ((field.one(),) * m,))


def dense_map_builder(field, domain_dims, codomain_dims, entries) -> LinMap:
    """The map whose (row, col) entry is the sum of the values given for it
    in ``entries``, accumulated in dense rows and validated at the end."""
    rows = [[field.zero()] * _total(domain_dims) for _ in range(_total(codomain_dims))]
    for row, col, value in entries:
        rows[row][col] = field.add(rows[row][col], value)
    return LinMap(field, tuple(domain_dims), tuple(codomain_dims), tuple(map(tuple, rows)))


def naive_matmul(f: LinMap, g: LinMap) -> LinMap:
    field = f.field
    n, k, m = f.codomain_total, f.domain_total, g.domain_total
    fm, gm = f.matrix, g.matrix
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = field.zero()
            for t in range(k):
                acc = field.add(acc, field.mul(fm[i][t], gm[t][j]))
            row.append(acc)
        rows.append(tuple(row))
    return LinMap(field, g.domain_dims, f.codomain_dims, tuple(rows))


def naive_apply(f: LinMap, v):
    field, fm = f.field, f.matrix
    out = []
    for i in range(f.codomain_total):
        acc = field.zero()
        for j in range(f.domain_total):
            acc = field.add(acc, field.mul(fm[i][j], v[j]))
        out.append(acc)
    return tuple(out)


def basis_chain_product(field, mult, m: int, indices):
    """Left-to-right product of basis elements of an algebra, as a vector;
    ``mult`` is the dense matrix of its multiplication."""
    current = [field.zero()] * m
    current[indices[0]] = field.one()
    for nxt in indices[1:]:
        out = [field.zero()] * m
        for i in range(m):
            if current[i] == field.zero():
                continue
            for u in range(m):
                c = mult[u][i * m + nxt]
                if c != field.zero():
                    out[u] = field.add(out[u], field.mul(current[i], c))
        current = out
    return tuple(current)


def triple_product_table(algebra):
    """All basis triple products (a_i a_j) a_k, computed twice independently."""
    m = algebra.dim
    left = {}
    right = {}
    field, mult = algebra.field, algebra.mult.matrix
    for i in range(m):
        for j in range(m):
            for k in range(m):
                left[(i, j, k)] = basis_chain_product(field, mult, m, [i, j, k])
                # right association: a_i (a_j a_k)
                inner = basis_chain_product(field, mult, m, [j, k])
                out = [field.zero()] * m
                for t in range(m):
                    if inner[t] == field.zero():
                        continue
                    for u in range(m):
                        c = mult[u][i * m + t]
                        if c != field.zero():
                            out[u] = field.add(out[u], field.mul(inner[t], c))
                right[(i, j, k)] = tuple(out)
    return left, right


def sweedler_crossed_product(c) -> LinMap:
    """(a (x) v)(a' (x) v') = a a'_R sigma_1(v_R, v') (x) sigma_2(v_R, v'),
    expanded entrywise; returns the product as a map (m,n,m,n) -> (m,n)."""
    field = c.field
    m, n = c.a.dim, c.v.dim
    zero = field.zero()
    r, sigma, mult = c.r.matrix, c.sigma.matrix, c.a.mult.matrix
    out = MapBuilder(field, (m, n, m, n), (m, n))
    for i in range(m):
        for j in range(n):
            for k in range(m):
                for el in range(n):
                    col = ((i * n + j) * m + k) * n + el
                    for s in range(m):
                        for t in range(n):
                            c_r = r[s * n + t][j * m + k]
                            if c_r == zero:
                                continue
                            for u in range(m):
                                for x in range(n):
                                    c_s = sigma[u * n + x][t * n + el]
                                    if c_s == zero:
                                        continue
                                    prod = basis_chain_product(field, mult, m, [i, s, u])
                                    coeff = field.mul(c_r, c_s)
                                    for w in range(m):
                                        if prod[w] != zero:
                                            out.add(w * n + x, col, field.mul(coeff, prod[w]))
    return out.build()


def ttp_product(t) -> LinMap:
    """(a (x) b)(a' (x) b') = a a'_R (x) b_R b' for a twisting map, entrywise."""
    field = t.field
    m, n = t.a.dim, t.b.dim
    zero = field.zero()
    r, mult_a, mult_b = t.r.matrix, t.a.mult.matrix, t.b.mult.matrix
    out = MapBuilder(field, (m, n, m, n), (m, n))
    for i in range(m):
        for j in range(n):
            for k in range(m):
                for el in range(n):
                    col = ((i * n + j) * m + k) * n + el
                    for s in range(m):
                        for t2 in range(n):
                            c_r = r[s * n + t2][j * m + k]
                            if c_r == zero:
                                continue
                            prod_a = basis_chain_product(field, mult_a, m, [i, s])
                            prod_b = basis_chain_product(field, mult_b, n, [t2, el])
                            for w in range(m):
                                if prod_a[w] == zero:
                                    continue
                                for x in range(n):
                                    if prod_b[x] != zero:
                                        out.add(
                                            w * n + x,
                                            col,
                                            field.mul(c_r, field.mul(prod_a[w], prod_b[x])),
                                        )
    return out.build()


def act_on_element(b, action, vec, helem):
    """Extend the action linearly to an arbitrary element of H; ``action`` is
    the dense matrix of ``b.action``."""
    field = b.field
    m = b.acting_dim
    nb = b.dim
    out = [field.zero()] * nb
    for q in range(m):
        if helem[q] == field.zero():
            continue
        for j in range(nb):
            if vec[j] == field.zero():
                continue
            for u in range(nb):
                c = action[u][j * m + q]
                if c != field.zero():
                    out[u] = field.add(out[u], field.mul(field.mul(helem[q], vec[j]), c))
    return tuple(out)


def smash_formula_product(h, b) -> LinMap:
    """(h # b)(h' # b') = h h'_1 x1 # (b . h'_2 x2)(b' . x3), entrywise."""
    field = h.field
    m, nb = h.algebra.dim, b.dim
    zero = field.zero()
    mult, action = h.algebra.mult.matrix, b.action.matrix
    out = MapBuilder(field, (m, nb, m, nb), (m, nb))
    for i in range(m):
        for j in range(nb):
            for k in range(m):
                for el in range(nb):
                    col = ((i * nb + j) * m + k) * nb + el
                    for flat, c_phi in enumerate(h.associator_inverse):
                        if c_phi == zero:
                            continue
                        p, q, r = flat // (m * m), (flat // m) % m, flat % m
                        delta_col = h.comult.column(k)
                        for dflat, c_d in enumerate(delta_col):
                            if c_d == zero:
                                continue
                            k1, k2 = dflat // m, dflat % m
                            # left leg: h_i * h_k1 * h_p
                            left = basis_chain_product(field, mult, m, [i, k1, p])
                            # right leg: (b_j . h_k2 h_q)(b_l . h_r)
                            hk2q = basis_chain_product(field, mult, m, [k2, q])
                            bj = [field.zero()] * nb
                            bj[j] = field.one()
                            acted1 = act_on_element(b, action, tuple(bj), hk2q)
                            bl = [field.zero()] * nb
                            bl[el] = field.one()
                            hr = [field.zero()] * m
                            hr[r] = field.one()
                            acted2 = act_on_element(b, action, tuple(bl), tuple(hr))
                            coeff = field.mul(c_phi, c_d)
                            for x in range(nb):
                                if acted1[x] == zero:
                                    continue
                                for y in range(nb):
                                    if acted2[y] == zero:
                                        continue
                                    prod_b = b.mult.column(x * nb + y)
                                    c2 = field.mul(coeff, field.mul(acted1[x], acted2[y]))
                                    for w in range(m):
                                        if left[w] == zero:
                                            continue
                                        for u in range(nb):
                                            if prod_b[u] != zero:
                                                out.add(
                                                    w * nb + u,
                                                    col,
                                                    field.mul(
                                                        c2, field.mul(left[w], prod_b[u])
                                                    ),
                                                )
    return out.build()


def sweedler_r_prime(c, t) -> LinMap:
    """Independent expansion of R' by direct summation over tensor legs."""
    field = c.field
    m, n = c.a.dim, c.v.dim
    zero = field.zero()
    theta, r, gamma, mult = t.theta.matrix, c.r.matrix, t.gamma.matrix, c.a.mult.matrix
    out = MapBuilder(field, (n, m), (m, n))
    for j in range(n):
        for k in range(m):
            col = j * m + k
            for p in range(m):
                for q in range(n):
                    c_theta = theta[p * n + q][j]
                    if c_theta == zero:
                        continue
                    for s in range(m):
                        for t2 in range(n):
                            c_r = r[s * n + t2][q * m + k]
                            if c_r == zero:
                                continue
                            for u in range(m):
                                for w in range(n):
                                    c_gamma = gamma[u * n + w][t2]
                                    if c_gamma == zero:
                                        continue
                                    coeff = field.mul(field.mul(c_theta, c_r), c_gamma)
                                    prod = basis_chain_product(field, mult, m, [p, s, u])
                                    for x in range(m):
                                        if prod[x] != zero:
                                            out.add(x * n + w, col, field.mul(coeff, prod[x]))
    return out.build()


def sweedler_sigma_prime(c, t) -> LinMap:
    """Independent expansion of sigma' by direct summation over tensor legs."""
    field = c.field
    m, n = c.a.dim, c.v.dim
    zero = field.zero()
    theta, r, sigma = t.theta.matrix, c.r.matrix, c.sigma.matrix
    gamma, mult = t.gamma.matrix, c.a.mult.matrix
    out = MapBuilder(field, (n, n), (m, n))
    for j in range(n):
        for el in range(n):
            col = j * n + el
            for p in range(m):
                for q in range(n):
                    c_tv = theta[p * n + q][j]
                    if c_tv == zero:
                        continue
                    for p2 in range(m):
                        for q2 in range(n):
                            c_tw = theta[p2 * n + q2][el]
                            if c_tw == zero:
                                continue
                            for s in range(m):
                                for t2 in range(n):
                                    c_r = r[s * n + t2][q * m + p2]
                                    if c_r == zero:
                                        continue
                                    for u in range(m):
                                        for x in range(n):
                                            c_s = sigma[u * n + x][t2 * n + q2]
                                            if c_s == zero:
                                                continue
                                            for y in range(m):
                                                for z in range(n):
                                                    c_g = gamma[y * n + z][x]
                                                    if c_g == zero:
                                                        continue
                                                    coeff = field.mul(
                                                        field.mul(field.mul(c_tv, c_tw), field.mul(c_r, c_s)),
                                                        c_g,
                                                    )
                                                    prod = basis_chain_product(
                                                        field, mult, m, [p, s, u, y]
                                                    )
                                                    for w in range(m):
                                                        if prod[w] != zero:
                                                            out.add(
                                                                w * n + z,
                                                                col,
                                                                field.mul(coeff, prod[w]),
                                                            )
    return out.build()


class SingularMapError(ValueError):
    """Matrix inversion requested for a singular map."""


def tensor_map(f: LinMap, g: LinMap) -> LinMap:
    """Kronecker product as one wiring; factor lists concatenate."""
    return _Wiring(f.domain_dims + g.domain_dims, [(f, 0), (g, len(f.codomain_dims))]).to_map()


def mu2(a: Algebra) -> LinMap:
    """The triple product A (x) A (x) A -> A as a map, pushed through the two
    ``mult`` steps of ``algebra._triple``; both bracketings must agree."""
    return _Wiring((a.dim,) * 3, _triple(a, 0)).to_map()


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


def random_matrix_map(
    field,
    domain_dims,
    codomain_dims,
    rng: random.Random,
    entries: Iterable[int] = (-2, -1, 0, 1, 2),
) -> LinMap:
    """Small-integer random map; deterministic for a seeded ``rng``."""
    pool = [field.from_int(e) for e in entries]
    dt, ct = _total(domain_dims), _total(codomain_dims)
    rows = tuple(tuple(rng.choice(pool) for _ in range(dt)) for _ in range(ct))
    return LinMap(field, tuple(domain_dims), tuple(codomain_dims), rows)


def phi_invertible_oracle(phi: LinMap, phi_inverse: LinMap) -> LawCheck:
    """phi_invertible as both dense identities: phi . phi^-1 = id on the legs of
    phi^-1's domain, then phi^-1 . phi = id on phi's; the first one that fails
    names its first differing (column, row) as ``law_from_maps`` does."""
    for outer, inner in ((phi, phi_inverse), (phi_inverse, phi)):
        diff = dense_first_difference(naive_matmul(outer, inner), dense_identity(phi.field, inner.domain_dims))
        if diff is not None:
            col, row, a, b = diff
            detail = f"lhs[{row}] = {_text(a)}, rhs[{row}] = {_text(b)} on basis input {col}"
            return LawCheck("phi_invertible", False, first_counterexample=col, detail=detail)
    return LawCheck("phi_invertible", True)


def pair_laws(a: Algebra, v: PointedSpace, t: TwistPair):
    """cros1..cros3 of a pair over A and V alone, run from the twist module's table."""
    return _run(_PAIR_LAWS, a, v, t, opposite_unit_insertion(a, v))


def check_pair_units(a: Algebra, v: PointedSpace, t: TwistPair):
    """Condition cros1: theta and gamma both send 1_V to 1_A (x) 1_V."""
    return pair_laws(a, v, t).check("cros1")


def check_mutual_inverse(a: Algebra, v: PointedSpace, t: TwistPair):
    """Conditions cros2 and cros3 as map equalities against the unit insertion."""
    report = pair_laws(a, v, t)
    return report.check("cros2"), report.check("cros3")


def random_twist_pair(
    a: Algebra,
    v: PointedSpace,
    rng: random.Random,
    max_tries: int = 200,
) -> TwistPair:
    """Seeded random pair with cros1..cros3 holding by construction.

    theta is drawn with small integer entries, corrected so theta(point) is
    the inserted unit, and resampled until the induced endomorphism of
    A (x) V is invertible; gamma is then forced to be its inverse on the
    inserted copy of V, which makes the two induced endomorphisms mutually
    inverse.  The remaining condition on sigma is a genuine constraint and is
    left to the caller to test.
    """
    field = a.field
    m, n = a.dim, v.dim
    pivot = next((i for i, x in enumerate(v.point) if x != field.zero()), None)
    if pivot is None:
        raise ShapeError("pointed space has a zero point")
    target = kron_vec(field, a.unit, v.point)
    for _ in range(max_tries):
        candidate = random_matrix_map(field, (n,), (m, n), rng)
        cols = [list(candidate.column(j)) for j in range(n)]
        # overwrite the pivot column so that theta(point) = 1_A (x) point
        inv_pivot = field.inv(field.check(v.point[pivot]))
        for i in range(m * n):
            acc = target[i]
            for j in range(n):
                if j != pivot and v.point[j] != field.zero():
                    acc = field.sub(acc, field.mul(v.point[j], cols[j][i]))
            cols[pivot][i] = field.mul(inv_pivot, acc)
        theta = LinMap(field, (n,), (m, n), tuple(zip(*cols)))
        try:
            inverse = invert(phi_map(a, theta))
        except SingularMapError:
            continue
        gamma = compose(inverse, opposite_unit_insertion(a, v))
        return TwistPair(theta=theta, gamma=gamma)
    raise RuntimeError(f"no invertible twist pair found in {max_tries} draws")
