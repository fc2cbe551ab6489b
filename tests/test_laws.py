"""The law vocabulary and the checker tables.

Every law is stated once, as an entry of a private checker table, and
``LAW_NAMES`` is read off the tables.  These tests pin the 24 names, check
that each map-law entry compiles on every builtin instance that has its
data, that each checker reports its laws in table order, and that the
one-sided ``phi_invertible`` gives the verdict, first counterexample and
detail of the two-sided dense oracle.
"""

from dataclasses import replace

import pytest

from crosstwist import (
    PrimeField,
    Rationals,
    ShapeError,
    apply_twist,
    builtin_corpus,
    check_algebra,
    check_brz_axioms,
    check_twist_conditions,
    check_twisting_map,
    make_sigma_prime,
    opposite_unit_insertion,
    specialize_ttp,
    twisted_tensor_product,
    verify_twist_result,
)
from crosstwist.algebra import _LAWS as ALGEBRA_LAWS
from crosstwist.crossed import _BRZ_LAWS, _TWISTING_LAWS, _unit_slides
from crosstwist.linmap import _sparse, _total, _Wiring
from crosstwist.report import LAW_NAMES
from crosstwist.twist import _CROS4_LAWS, _PAIR_LAWS, _PHI_LAWS, _TTP_LAWS
from oracles import phi_invertible_oracle, zero_map
from test_golden import bump

FIELDS = {"Q": Rationals(), "GF5": PrimeField(5)}
TABLES = (ALGEBRA_LAWS, _TWISTING_LAWS, _BRZ_LAWS, _PAIR_LAWS, _CROS4_LAWS, _PHI_LAWS, _TTP_LAWS)
MAP_LAWS = {
    "assoc", "tw3", "tw4", "brz3", "brz4", "brz5", "cros2", "cros3", "cros4", "rel1", "rel2", "rel3",
    "theta_mult", "sigma_prime_ttp", "phi_mult", "phi_invertible",
}
STREAM_LAWS = {"unit_left", "unit_right", "tw1", "tw2", "brz1", "brz2", "cros1", "phi_unital"}


def test_law_names_are_the_24_names_of_the_checker_tables():
    assert MAP_LAWS.isdisjoint(STREAM_LAWS) and len(MAP_LAWS | STREAM_LAWS) == 24
    assert LAW_NAMES == MAP_LAWS | STREAM_LAWS
    assert set().union(*TABLES) == set(LAW_NAMES)


def table_data(inst):
    """(table, data) for each checker table the instance has the data for,
    with the data its checker hands to ``_run``."""
    c, t, pair, star = inst.data, inst.twisting, inst.pair, inst.star
    out = []
    for a in (c.a,) + ((t.a, t.b) if t is not None else ()):
        out.append((ALGEBRA_LAWS, (a, _Wiring((a.dim, a.dim), [(a.mult, 0)]).push, _sparse(a.field, a.unit).items())))
    out.append((_BRZ_LAWS, (c,)))
    if t is not None:
        out.append((_TWISTING_LAWS, (t, *_unit_slides(t.r, t.a, t.b.unit, "B"))))
    if pair is not None:
        out.append((_PAIR_LAWS, (c.a, c.v, pair, opposite_unit_insertion(c.a, c.v))))
        out.append((_CROS4_LAWS, (c, pair, make_sigma_prime(c, pair))))
        out.append((_PHI_LAWS, (c, apply_twist(c, pair))))
    if t is not None and star is not None and pair is not None:
        ttp = twisted_tensor_product(t)
        iota = opposite_unit_insertion(t.a, ttp.v)
        out.append((_TTP_LAWS, (t.a, ttp.v, pair, iota, t, star, ttp)))
    return out


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_every_map_law_compiles_on_the_builtin_instances(field_name):
    seen = set()
    for inst in builtin_corpus(FIELDS[field_name]):
        for table, data in table_data(inst):
            for law, spec in table.items():
                got = spec(*data)
                assert isinstance(got, tuple) == (law in MAP_LAWS), (inst.name, law)
                if law not in MAP_LAWS:
                    continue
                legs, lhs, rhs, *column_dims = got[:4]
                reduced = [r for r in got[4:] if r is not None]
                assert len(reduced) == (law == "phi_mult"), (inst.name, law)
                for legs_, lhs_, rhs_ in [(legs, lhs, rhs), *reduced]:
                    left = _Wiring(legs_, lhs_)
                    right = _Wiring(legs_, rhs_, left.field)
                    assert _total(left.dims) == _total(right.dims), (inst.name, law)
                for legs_, lhs_, rhs_ in reduced:  # 1_A inserted before the full sides, on n.m.n columns
                    m, n = inst.data.a.dim, inst.data.v.dim
                    assert (legs_, lhs_[1:], rhs_[1:]) == ((n, m, n), lhs, rhs), inst.name
                    assert lhs_[0] == rhs_[0] and lhs_[0][1] == 0 and lhs_[0][0].column(0) == inst.data.a.unit
                assert all(_total(dims) == _total(legs) for dims in column_dims), (inst.name, law)
                seen.add(law)
    assert seen == MAP_LAWS


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_each_checker_reports_its_laws_in_table_order(field_name):
    for inst in builtin_corpus(FIELDS[field_name]):
        c, t, pair = inst.data, inst.twisting, inst.pair
        assert [x.law for x in check_algebra(c.a).checks] == list(ALGEBRA_LAWS)
        assert [x.law for x in check_brz_axioms(c).checks] == list(_BRZ_LAWS)
        if t is not None:
            assert [x.law for x in check_twisting_map(t).checks] == list(_TWISTING_LAWS)
        if pair is not None:
            assert [x.law for x in check_twist_conditions(c, pair).checks] == [*_PAIR_LAWS, *_CROS4_LAWS]
            verified = verify_twist_result(c, apply_twist(c, pair))
            assert [x.law for x in verified.checks] == [*_BRZ_LAWS, *_PHI_LAWS]
        if t is not None and inst.star is not None and pair is not None:
            assert [x.law for x in specialize_ttp(t, inst.star, pair).checks] == list(_TTP_LAWS)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_one_sided_phi_invertible_agrees_with_the_two_sided_oracle(field_name):
    """Every single-entry mutation of phi and of phi^-1 of the five builtin
    instances that carry a pair: the same verdict, first counterexample and
    detail as checking both phi . phi^-1 = id and phi^-1 . phi = id."""
    verdicts = []
    for inst in builtin_corpus(FIELDS[field_name]):
        if inst.pair is None:
            continue
        result = apply_twist(inst.data, inst.pair)
        assert verify_twist_result(inst.data, result).check("phi_invertible") == phi_invertible_oracle(
            result.phi, result.phi_inverse
        )
        for attr in ("phi", "phi_inverse"):
            f = getattr(result, attr)
            for row in range(f.codomain_total):
                for col in range(f.domain_total):
                    mutated = replace(result, **{attr: bump(f, row, col)})
                    got = verify_twist_result(inst.data, mutated).check("phi_invertible")
                    assert got == phi_invertible_oracle(mutated.phi, mutated.phi_inverse), (inst.name, attr, row, col)
                    verdicts.append(got.passed)
    assert len(verdicts) == 2 * (3 * 4**2 + 2 * 8**2) and not any(verdicts)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_a_phi_inverse_that_is_not_mn_by_mn_raises_shape_error(field_name):
    field = FIELDS[field_name]
    inst = {i.name: i for i in builtin_corpus(field)}["gauge-v4"]
    result = apply_twist(inst.data, inst.pair)
    n = result.phi.domain_total
    for dims in (((n + 1,), (n,)), ((n,), (n + 1,)), ((n - 1,), (n - 1,)), ((n + 1,), (n + 1,))):
        with pytest.raises(ShapeError):
            verify_twist_result(inst.data, replace(result, phi_inverse=zero_map(field, *dims)))
