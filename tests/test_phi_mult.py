"""phi_mult decided on the unit-led columns 1_A (x) x.

``twist._phi_mult`` hands ``law_from_maps`` a reduced law on the n.m.n vectors
1_A (x) x when A passes ``check_algebra``, c' has A's ``mult`` and phi is left
A-linear; a passing reduced law is the verdict, and anything else runs the
full scan on (m, n, m, n).  These tests compare the reported ``phi_mult``
(verdict, first counterexample, detail) with the full scan pushed one column
at a time (``oracles.column_scan_first_difference``), check that each failed
precondition falls back to that scan, and that a passing law pushes no
(m, n, m, n) column.
"""

import contextlib
import io
import random
from dataclasses import replace
from itertools import permutations

import pytest

from crosstwist import (
    Algebra,
    LinMap,
    PrimeField,
    Rationals,
    TwistPair,
    TwistResult,
    algebra_from_group,
    apply_twist,
    builtin_corpus,
    check_algebra,
    compose,
    flip,
    identity,
    opposite_unit_insertion,
    phi_map,
    reshape,
    trivial_pair,
    twisted_tensor_product,
    verify_twist_result,
)
from crosstwist.cli import main
from crosstwist.crossed import TwistingMapData, _product_steps, with_r, with_sigma
from crosstwist.fields import _text
from crosstwist.io import SpecDocument, serialize
from crosstwist.linmap import _element, _Wiring
from crosstwist.report import LawCheck
from oracles import column_scan_first_difference
from test_golden import _sha, bump

FIELDS = {"Q": Rationals(), "GF5": PrimeField(5)}


def full_sides(c, result):
    """The two sides of phi_mult on the legs (m, n, m, n)."""
    m, n = c.a.dim, c.v.dim
    square = reshape(result.phi, (m, n), (m, n))
    return [(square, 0), (square, 2)] + _product_steps(c), _product_steps(result.data_prime) + [(square, 0)]


def full_scan(c, result) -> LawCheck:
    """phi_mult by the full scan, each basis column of (m, n, m, n) pushed alone."""
    m, n = c.a.dim, c.v.dim
    diff = column_scan_first_difference((m, n, m, n), *full_sides(c, result), result.phi.domain_dims * 2)
    if diff is None:
        return LawCheck("phi_mult", True)
    col, row, a, b = diff
    return LawCheck("phi_mult", False, col, f"lhs[{row}] = {_text(a)}, rhs[{row}] = {_text(b)} on basis input {col}")


def unit_led_scan(c, result):
    """The first difference of phi_mult's sides on the vectors 1_A (x) x alone."""
    m, n = c.a.dim, c.v.dim
    unit = _element(c.field, (m,), c.a.unit)
    lhs, rhs = full_sides(c, result)
    return _Wiring((n, m, n), [(unit, 0)] + lhs).first_difference([(unit, 0)] + rhs)


@pytest.fixture()
def pushed(monkeypatch):
    """(legs, whether the first step inserts an element at lead 0) of every wiring
    whose basis columns are pushed, in call order."""
    seen = []
    init, push = _Wiring.__init__, _Wiring._push_columns

    def spy_init(self, legs, steps, *field):
        init(self, legs, steps, *field)
        self.unit_led = bool(steps) and steps[0][0].domain_dims == () and steps[0][1] == 0

    def spy_push(self, start, stop):
        seen.append((self.legs, self.unit_led))
        return push(self, start, stop)

    monkeypatch.setattr(_Wiring, "__init__", spy_init)
    monkeypatch.setattr(_Wiring, "_push_columns", spy_push)
    return seen


def with_entry(result, attr, f):
    """``result`` with its map ``attr`` replaced by ``f``; R' and sigma' also in c'."""
    data_prime = result.data_prime
    if attr == "r_prime":
        data_prime = with_r(data_prime, f)
    elif attr == "sigma_prime":
        data_prime = with_sigma(data_prime, f)
    return replace(result, **{attr: f}, data_prime=data_prime)


def positions(result):
    """(map name, row, column) of every entry of phi, phi^-1, R' and sigma'."""
    for attr in ("phi", "phi_inverse", "r_prime", "sigma_prime"):
        f = getattr(result, attr)
        for row in range(f.codomain_total):
            for col in range(f.domain_total):
                yield attr, row, col


def mutated(result, attr, row, col):
    return with_entry(result, attr, bump(getattr(result, attr), row, col))


def route(legs, m, n):
    """How phi_mult was decided, read off the pushed legs: by the unit-led vectors
    alone, by the full scan after them, or by the full scan alone."""
    reduced, full = ((n, m, n), True) in legs, ((m, n, m, n), False) in legs
    return {(True, False): "reduced", (True, True): "reduced then full", (False, True): "full"}[reduced, full]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_every_single_entry_mutation_of_the_builtin_twists_agrees_with_the_full_scan(field_name, pushed):
    routes, verdicts = set(), set()
    for inst in builtin_corpus(FIELDS[field_name]):
        if inst.pair is None:
            continue
        c, result = inst.data, apply_twist(inst.data, inst.pair)
        m, n = c.a.dim, c.v.dim
        for attr, row, col in positions(result):
            bad = mutated(result, attr, row, col)
            pushed.clear()
            got = verify_twist_result(c, bad).check("phi_mult")
            routes.add(route(pushed, m, n))
            assert got == full_scan(c, bad), (inst.name, attr, row, col)
            verdicts.add(got.passed)
    assert routes == {"reduced", "reduced then full", "full"} and verdicts == {True, False}


def c2_power(k, field):
    return algebra_from_group(tuple(tuple(i ^ j for j in range(2**k)) for i in range(2**k)), 0, field)


def flip_8x4(field):
    """k[C2^3] (x) k[C2^2] twisted by the flip, with the pair theta(v) = c_v g_v (x) v and
    gamma(v) = c_v^-1 g_v (x) v on the group elements v of C2^2: g_v in C2^3 and c_v in
    {1, 2, 3}, so phi is monomial, not 0/1, and sigma' differs from sigma."""
    c = twisted_tensor_product(TwistingMapData(c2_power(3, field), c2_power(2, field), flip(field, 4, 8)))
    g, scalars = (0, 3, 5, 6), [field.from_int(k) for k in (1, 2, 3, 2)]
    maps = []
    for coefficients in (scalars, [field.inv(k) for k in scalars]):
        rows = [[field.zero()] * 4 for _ in range(32)]
        for v in range(4):
            rows[g[v] * 4 + v][v] = coefficients[v]
        maps.append(LinMap(field, (4,), (8, 4), tuple(map(tuple, rows))))
    return c, TwistPair(*maps)


def test_a_seeded_sample_of_flip_8x4_mutations_agrees_with_the_full_scan(pushed):
    c, pair = flip_8x4(PrimeField(5))
    result = apply_twist(c, pair)
    sample = random.Random("flip-8x4/mutations").sample(list(positions(result)), 200)
    routes, verdicts = set(), set()
    for attr, row, col in sample:
        bad = mutated(result, attr, row, col)
        pushed.clear()
        got = verify_twist_result(c, bad).check("phi_mult")
        routes.add(route(pushed, 8, 4))
        assert got == full_scan(c, bad), (attr, row, col)
        verdicts.add(got.passed)
    assert routes == {"reduced", "reduced then full", "full"} and verdicts == {True, False}


def test_a_passing_law_pushes_no_full_column(pushed):
    c, pair = flip_8x4(PrimeField(5))
    result = apply_twist(c, pair)
    pushed.clear()
    assert verify_twist_result(c, result).check("phi_mult").passed
    assert route(pushed, 8, 4) == "reduced"
    assert [legs for legs, _ in pushed if len(legs) == 4] == []
    assert ((8, 4), False) in pushed  # the left A-linearity of phi


def test_a_phi_that_is_not_left_linear_falls_back_to_the_full_scan(pushed):
    """phi with one entry bumped is no longer left A-linear: the unit-led law is
    not run, and the full scan names the column."""
    c, pair = flip_8x4(PrimeField(5))
    result = apply_twist(c, pair)
    for row, col in ((0, 0), (5, 17), (31, 31)):
        bad = mutated(result, "phi", row, col)
        pushed.clear()
        got = verify_twist_result(c, bad).check("phi_mult")
        assert route(pushed, 8, 4) == "full"
        assert not got.passed and got == full_scan(c, bad)


def s3_flip(field):
    """k[S3] (x) kC2 twisted by the flip: A is not commutative."""
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    s3 = algebra_from_group(table, index[(0, 1, 2)], field)
    return twisted_tensor_product(TwistingMapData(s3, c2_power(1, field), flip(field, 2, 6)))


def opposite(a: Algebra) -> Algebra:
    return Algebra(a.dim, compose(a.mult, flip(a.field, a.dim, a.dim)), a.unit)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_a_right_but_not_left_linear_phi_falls_back_to_the_full_scan(field_name, pushed):
    """phi(a (x) v) = theta(v).a with theta(e) = 1 (x) e and theta(g) = s (x) g, s a
    transposition of S3: phi is right A-linear but not left A-linear.  On the
    vectors 1_A (x) x both sides agree, so the unit-led law alone would pass;
    the full scan names the column."""
    field = FIELDS[field_name]
    c = s3_flip(field)
    s = 1  # (0, 2, 1), a transposition
    rows = [[field.zero()] * 2 for _ in range(12)]
    rows[0][0] = rows[2 * s + 1][1] = field.one()
    theta = LinMap(field, (2,), (6, 2), tuple(map(tuple, rows)))
    result = apply_twist(c, TwistPair(theta, theta))
    right = _Wiring((6, 2), [(theta, 1), (flip(field, 6, 6), 0), (c.a.mult, 0)]).to_map()
    bad = replace(result, phi=right, data_prime=c)
    assert unit_led_scan(c, bad) is None
    pushed.clear()
    got = verify_twist_result(c, bad).check("phi_mult")
    assert route(pushed, 6, 2) == "full"
    assert not got.passed and got == full_scan(c, bad)
    assert got.first_counterexample == (2, 0, 0, 1)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_a_crossed_prime_over_another_mult_falls_back_to_the_full_scan(field_name, pushed):
    """c' is c with A replaced by its opposite algebra and phi = id: the products
    differ on (e_i (x) 1)(e_j (x) 1) whenever e_i e_j != e_j e_i, yet on the vectors
    1_A (x) x they agree."""
    field = FIELDS[field_name]
    c = s3_flip(field)
    result = apply_twist(c, trivial_pair(c.a, c.v))
    bad = replace(result, data_prime=replace(c, a=opposite(c.a)))
    assert unit_led_scan(c, bad) is None
    pushed.clear()
    got = verify_twist_result(c, bad).check("phi_mult")
    assert route(pushed, 6, 2) == "full"
    assert not got.passed and got == full_scan(c, bad)


def verify_iso_on_an_opposite_prime(field, tmp_path):
    """Exit code and stdout of ``verify-iso`` (json, then text) on a document whose
    c' is c over the opposite algebra of A, with phi = phi^-1 = id."""
    c = s3_flip(field)
    phi = reshape(identity(field, (12,)), (6, 2), (6, 2))
    objects = {"crossed": c, "crossed_prime": replace(c, a=opposite(c.a)), "phi": phi, "phi_inverse": phi}
    src = tmp_path / "in.json"
    src.write_text(serialize(SpecDocument(field, objects)), encoding="utf-8")
    outputs = []
    for report in ("json", "text"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify-iso", "--input", str(src), "--report", report])
        outputs.append((code, out.getvalue()))
    return outputs


# Exit code 1 and this report over both fields, as the full scan gave before the unit-led one existed.
OPPOSITE_PRIME_DIGEST = "d01cbc3c5a366b7d5d55bc4fee00b929786357088b8570b3ab752046020c4a10"
OPPOSITE_PRIME_TEXT = """\
== crossed_prime (stored_twist)
[PASS] brz1
[PASS] brz2
[PASS] brz3
[PASS] brz4
[PASS] brz5
[PASS] phi_invertible
[PASS] phi_unital
[FAIL] phi_mult at basis index (1, 0, 2, 0): lhs[(3, 0)] = 0, rhs[(3, 0)] = 1 on basis input (1, 0, 2, 0)
"""


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_verify_iso_on_an_opposite_prime_reports_as_the_full_scan(field_name, tmp_path, pushed):
    """verify-iso reads c and c' as separate algebras: here their mults differ,
    so the full scan runs, with the parent's exit code and report bytes."""
    outputs = verify_iso_on_an_opposite_prime(FIELDS[field_name], tmp_path)
    assert outputs[1] == (1, OPPOSITE_PRIME_TEXT)
    assert _sha([f"{code}\n{text}" for code, text in outputs]) == OPPOSITE_PRIME_DIGEST
    assert route(pushed, 6, 2) == "full"


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_an_algebra_failing_its_unit_laws_falls_back_to_the_full_scan(field_name, pushed):
    """kC2 given the idempotent e = (1 + g)/2 as its unit, which fails unit_left,
    and phi(a (x) v) = a.e (x) v, which is "left linear" for that e: the full
    scan runs."""
    field = FIELDS[field_name]
    c = next(inst.data for inst in builtin_corpus(field) if inst.name == "ttp-flip-c2")
    half = field.inv(field.from_int(2))
    c = replace(c, a=Algebra(2, c.a.mult, (half, half)))
    phi = phi_map(c.a, opposite_unit_insertion(c.a, c.v))
    result = TwistResult(c.r, c.sigma, c, phi, phi)
    assert not check_algebra(c.a).passed
    pushed.clear()
    got = verify_twist_result(c, result).check("phi_mult")
    assert route(pushed, 2, 2) == "full"
    assert got == full_scan(c, result)
