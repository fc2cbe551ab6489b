"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import crosstwist as ct  # noqa: E402
import crosstwist.crossed  # noqa: E402
import crosstwist.linmap  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from generators import flip_rung, smash_gauge_rung  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

GF5 = ct.PrimeField(5)


def _bindings():
    """Every (namespace, attribute) -> object binding of a crosstwist function or patched method."""
    out = {}
    for mod in list(sys.modules.values()):
        for attr, value in list(getattr(mod, "__dict__", {}).items()):
            if callable(value) and (getattr(value, "__module__", None) or "").startswith("crosstwist"):
                out[(mod.__name__, attr)] = value
    for cls in (ct.LinMap, ct.LawCheck, ct.Rationals, ct.PrimeField):
        for attr in ("__post_init__", "mul", "add", "check"):
            if attr in vars(cls):
                out[(cls.__qualname__, attr)] = vars(cls)[attr]
    return out


@pytest.fixture
def installed():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.restore()


def test_generators_are_deterministic():
    def texts(seed):
        inputs = workloads.ladder_setup(seed, Path("unused"))
        return [
            workloads.serialized(rung.data.field, crossed=rung.data, pair=rung.pair)
            for tag in ("q", "gf5")
            for family in ("flip", "smash")
            for _, rung in inputs[tag][family]
        ]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_seeds_give_isomorphic_smash_gauge_instances():
    def nonzeros(f):
        return sum(len(row) - row.count(0) for row in f.matrix)

    rungs = [smash_gauge_rung(2, 2, GF5, workloads.smash_rng(seed, 2, 2)) for seed in (1, 2, 3)]
    assert len({r.module.action.matrix for r in rungs}) > 1
    for attr in ("r", "sigma"):
        assert len({nonzeros(getattr(ct.apply_twist(r.data, r.pair).data_prime, attr)) for r in rungs}) == 1


def test_cli_setup_is_deterministic(tmp_path):
    def texts(seed, where):
        inputs = workloads.cli_setup(seed, where)
        paths = [p for _, p, _, _ in inputs["gf5"]["docs"]] + list(inputs["gf5"]["negatives"].values())
        return [p.read_bytes() for p in paths]

    assert texts(5, tmp_path / "a") == texts(5, tmp_path / "b")


def test_smash_gauge_family_is_certified_and_matches_gauge_route():
    for seed in (1, 2):
        rung = smash_gauge_rung(2, 1, GF5, workloads.smash_rng(seed, 2, 1))
        result = ct.apply_twist(rung.data, rung.pair)
        direct = workloads.gauge_route(rung)
        assert ct.maps_equal(result.data_prime.r, direct.r)
        assert ct.maps_equal(result.data_prime.sigma, direct.sigma)


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    before = _bindings()
    t = Tracer()
    t.install()
    try:
        for module in (ct, ct.linmap, ct.crossed, workloads.ct):
            assert hasattr(module.compose, tracer_mod._MARK)
        assert hasattr(ct.crossed.check_algebra, tracer_mod._MARK)
        assert hasattr(ct.LinMap.__post_init__, tracer_mod._MARK)
        assert hasattr(ct.Rationals.mul, tracer_mod._MARK)
        assert hasattr(ct.LawCheck.__post_init__, tracer_mod._MARK)
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, tracer_mod._MARK) for v in after.values())


def test_wrappers_record_nothing_while_inactive(installed):
    ct.apply_twist(*_flip_2x2())
    assert installed.spans == [] and not installed.counts


def _flip_2x2():
    rung = flip_rung(1, 1, GF5)
    return rung.data, rung.pair


def test_self_time_is_never_negative_and_sums_to_the_root(installed):
    data, pair = _flip_2x2()
    installed.active = True
    with installed.span("bench.job", job="flip-2x2"):
        ct.apply_twist(data, pair)
        ct.build_crossed_product(data)
    installed.active = False
    own = installed.self_times()
    assert all(x >= 0 for x in own)
    root = installed.spans[0]
    assert root[1] is None and all(s[1] is not None for s in installed.spans[1:])
    assert sum(own) <= root[5] - root[4]
    calls, _ = installed.layer_totals()
    assert calls["twist.apply_twist"] == 1 and calls["linmap.LinMap"] > 0
    assert installed.counts["fields.mul.calls"] > 0


def test_law_attribution_follows_check_brz_axioms_order(installed):
    inst = {i.name: i for i in ct.builtin_corpus(GF5)}["gauge-v4"]
    installed.active = True
    with installed.span("bench.job", job="brz"):
        report = ct.check_brz_axioms(inst.data)
    installed.active = False
    check_span = next(s for s in installed.spans if s[3] == "crossed.check_brz_axioms")
    assert [law for _, law, _ in installed.law_events] == [c.law for c in report.checks]
    assert all(sid == check_span[0] for sid, _, _ in installed.law_events)
    assert all(ns >= 0 for _, _, ns in installed.law_events)
    assert sum(installed.law_ns.values()) <= check_span[5] - check_span[4]
    # brz3..brz5 compose tensor maps; brz1 and brz2 only apply R and sigma to vectors
    assert min(installed.law_ns[f"brz{k}"] for k in (3, 4, 5)) > installed.law_ns["brz2"]


def _corpus_jobs_gf5(tmp_path):
    inputs = workloads.corpus_setup(0, tmp_path)
    jobs = workloads.corpus_jobs(inputs, tmp_path)
    keep = {"gf5/builtin_corpus", "gf5/pipeline/ttp-flip-c2"}
    return [j for j in jobs if j.id in keep or j.id.startswith("gf5/mutation/ttp-flip-c2/")]


def test_wrong_golden_or_exception_fails_the_job_without_aborting(tmp_path):
    wl = workloads.WORKLOADS["corpus"]
    golden = workloads.load_golden()
    jobs = _corpus_jobs_gf5(tmp_path)
    assert all(r["error"] is None for r in run.run_pass(wl, jobs, golden))

    wrong = dict(golden)
    target = f"corpus:{jobs[-1].id}"
    wrong[target] = json.dumps(["brz5", [1, 1]])

    def boom(ctx):
        raise ValueError("boom")

    jobs[1].run = boom
    records = run.run_pass(wl, jobs, wrong)
    failed = {r["job"].id for r in records if r["error"] is not None}
    assert failed == {jobs[1].id, jobs[-1].id}
    assert len(records) == len(jobs)


def test_traced_pass_reproduces_untraced_outcomes(tmp_path):
    wl = workloads.WORKLOADS["corpus"]
    golden = workloads.load_golden()
    plain = run.run_pass(wl, _corpus_jobs_gf5(tmp_path), golden)
    t = Tracer()
    t.install()
    try:
        traced = run.run_pass(wl, _corpus_jobs_gf5(tmp_path), golden, t)
    finally:
        t.restore()
    assert [r["signature"] for r in plain] == [r["signature"] for r in traced]
    assert all(r["error"] is None for r in traced)
    assert {s[2] for s in t.spans} == {r["job"].id for r in traced}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
