"""Acceptance suite: one test per criterion, exact (zero-tolerance) equality
throughout, each printing a single pass/fail line (run with -s to see them)."""

import random
import subprocess
import sys
import time

from crosstwist import (
    PointedSpace,
    PrimeField,
    Rationals,
    TwistPair,
    algebra_from_group,
    apply_twist,
    basis_vector,
    builtin_corpus,
    check_algebra,
    check_brz_axioms,
    check_twist_conditions,
    compose,
    drinfeld_twist,
    identity,
    make_r_prime,
    make_sigma_prime,
    maps_equal,
    module_algebra_twist,
    opposite_unit_insertion,
    phi_map,
    smash_product_data,
    specialize_ttp,
    trivial_pair,
    verify_twist_result,
)
from crosstwist.cli import _instance_document
from crosstwist.io import report_to_json, serialize
from oracles import (
    check_mutual_inverse,
    check_pair_units,
    random_twist_pair,
    scale,
    sweedler_r_prime,
    sweedler_sigma_prime,
)
from test_corpus import direct_phi
from test_crossed import crafted_mutations

F = Rationals()


def conclude(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def test_criterion_1_axiom_soundness(corpus):
    ok = True
    slowest = 0.0
    for fld in (F, PrimeField(3), PrimeField(5)):
        instances = corpus if fld == F else builtin_corpus(fld)
        for inst in instances:
            start = time.monotonic()
            rep = check_brz_axioms(inst.data)
            elapsed = time.monotonic() - start
            slowest = max(slowest, elapsed)
            if not rep.passed or elapsed >= 1.0:
                ok = False
    conclude(1, "axiom soundness over Q, GF(3), GF(5)", ok, f"slowest check {slowest:.3f}s")


def test_criterion_2_theorem_certification(corpus):
    ok = True
    timing_4x2 = None
    for inst in corpus:
        pair = inst.pair if inst.pair is not None else trivial_pair(inst.data.a, inst.data.v)
        if not check_twist_conditions(inst.data, pair).passed:
            ok = False
            continue
        start = time.monotonic()
        result = apply_twist(inst.data, pair)
        report = verify_twist_result(inst.data, result)
        elapsed = time.monotonic() - start
        if inst.data.a.dim == 4 and inst.data.v.dim == 2:
            timing_4x2 = elapsed
        for law in ("brz1", "brz2", "brz3", "brz4", "brz5", "phi_unital", "phi_mult", "phi_invertible"):
            if not report.check(law).passed:
                ok = False
    ok = ok and timing_4x2 is not None and timing_4x2 < 5.0
    conclude(2, "twist certification with phi laws", ok, f"4x2 instance {timing_4x2:.2f}s")


def test_criterion_3_gauge_reproduction(by_name):
    inst = by_name["gauge-c2"]
    result = apply_twist(inst.data, inst.pair)
    direct = smash_product_data(
        drinfeld_twist(inst.quasi, inst.gauge),
        module_algebra_twist(inst.quasi, inst.module_algebra, inst.gauge),
    )
    ok = (
        maps_equal(result.data_prime.r, direct.r)
        and maps_equal(result.data_prime.sigma, direct.sigma)
        and maps_equal(result.phi, direct_phi(inst))
    )
    conclude(3, "gauge-twisted smash product reproduced entrywise", ok)


def test_criterion_4_ttp_specialization(by_name):
    inst = by_name["ttp-star-c2"]
    rep = specialize_ttp(inst.twisting, inst.star, inst.pair)
    ok = all(rep.check(law).passed for law in ("rel1", "rel2", "rel3", "sigma_prime_ttp"))
    iota = opposite_unit_insertion(inst.data.a, inst.data.v)
    ok = ok and maps_equal(make_sigma_prime(inst.data, inst.pair), compose(iota, inst.star))
    result = apply_twist(inst.data, inst.pair)
    ok = ok and verify_twist_result(inst.data, result).passed
    conclude(4, "twisted-tensor-product specialization", ok)


def test_criterion_5_sweedler_oracles(corpus):
    ok = True
    for inst in corpus:
        pair = inst.pair if inst.pair is not None else trivial_pair(inst.data.a, inst.data.v)
        if not maps_equal(make_r_prime(inst.data, pair), sweedler_r_prime(inst.data, pair)):
            ok = False
        if not maps_equal(make_sigma_prime(inst.data, pair), sweedler_sigma_prime(inst.data, pair)):
            ok = False
    conclude(5, "independent Sweedler expansions collide exactly", ok)


def test_criterion_6_mutation_detection(corpus):
    ok = True
    total = 0
    for inst in corpus:
        muts = crafted_mutations(inst.data)
        if len(muts) < 10:
            ok = False
        for kind, _desc, mutated in muts:
            total += 1
            rep = check_algebra(mutated) if kind == "mult" else check_brz_axioms(mutated)
            flagged = any((not c.passed) and c.first_counterexample for c in rep.checks)
            if not flagged:
                ok = False
    conclude(6, "crafted mutations all flagged", ok, f"{total} mutations")


def test_criterion_7_mutual_inverse():
    a = algebra_from_group(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0, F, label="kC3")
    v = PointedSpace(3, basis_vector(F, 3, 0))
    id_av = identity(F, (3, 3))
    rng = random.Random(20260809)
    ok = True
    for _ in range(50):
        pair = random_twist_pair(a, v, rng)
        cros2, cros3 = check_mutual_inverse(a, v, pair)
        if not (check_pair_units(a, v, pair).passed and cros2.passed and cros3.passed):
            ok = False
        pt, pg = phi_map(a, pair.theta), phi_map(a, pair.gamma)
        if not (maps_equal(compose(pt, pg), id_av) and maps_equal(compose(pg, pt), id_av)):
            ok = False
        doubled = TwistPair(theta=pair.theta, gamma=scale(pair.gamma, F.from_int(2)))
        bad2, bad3 = check_mutual_inverse(a, v, doubled)
        if bad2.passed or bad3.passed:
            ok = False
    conclude(7, "mutual-inverse characterization on 50 seeded pairs", ok)


def test_criterion_8_determinism(corpus, field):
    ok = builtin_corpus(field) == corpus
    for inst in corpus:
        doc_a = serialize(_instance_document(field, inst))
        doc_b = serialize(_instance_document(field, builtin_corpus(field)[corpus.index(inst)]))
        if doc_a != doc_b:
            ok = False
        rep_a = report_to_json(check_brz_axioms(inst.data))
        rep_b = report_to_json(check_brz_axioms(inst.data))
        if rep_a != rep_b:
            ok = False
    a = algebra_from_group(((0, 1), (1, 0)), 0, F)
    v = PointedSpace(2, basis_vector(F, 2, 0))
    if random_twist_pair(a, v, random.Random(7)) != random_twist_pair(a, v, random.Random(7)):
        ok = False
    emissions = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "crosstwist.cli", "corpus", "--emit", "1"],
            capture_output=True,
            check=True,
        )
        emissions.append(proc.stdout)
    ok = ok and emissions[0] == emissions[1]
    conclude(8, "byte-identical emission, serialization, reports", ok)
