"""The three benchmark workloads: their inputs, jobs and output checks.

A workload's ``setup`` builds every input from the seed (untimed; its cost is
``setup_s``).  ``jobs`` turns the inputs into a fresh list of jobs for one
pass, with fresh copies of the input objects, so nothing the program might
memoise per object carries over from one pass to the next.  A job's ``run``
is the timed call into crosstwist; its ``check`` runs afterwards, untimed,
and returns an outcome signature or raises :class:`Mismatch`.  Jobs marked
``fixed`` have seed-independent inputs; their signature must equal the
stored golden value.
"""

from __future__ import annotations

import copy
import hashlib
import io as _io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import crosstwist as ct
import crosstwist.cli as ct_cli
import crosstwist.io as ct_io
from crosstwist.report import AxiomReport

from generators import flip_rung, gauge_route, mutations, smash_gauge_rung

GOLDEN_PATH = Path(__file__).with_name("golden.json")
FIELDS = (("q", ct.Rationals(), "rationals"), ("gf5", ct.PrimeField(5), "gf:5"))
FLIP_RUNGS = {"q": ((1, 1), (2, 1), (2, 2), (3, 1)), "gf5": ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))}
SMASH_RUNGS = ((2, 1), (2, 2))


class Mismatch(Exception):
    """A job's output differs from what the benchmark expects."""


@dataclass
class Job:
    id: str
    field: str  # "q" or "gf5"
    run: Callable[[dict], Any]  # receives the pass context shared by the pass's jobs
    check: Callable[[Any], str]
    buckets: tuple[str, ...] = ()  # extra metrics this job's time counts toward
    fixed: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Any]
    jobs: Callable[[Any, Path], list[Job]]
    largest: str  # id of the job reported as largest_s


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def sha256(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def serialized(field, **objects) -> str:
    return ct_io.serialize(ct_io.SpecDocument(field=field, objects=objects))


def instance_objects(inst: ct.CorpusInstance) -> dict:
    """The objects of an instance under the names ``crosstwist corpus --emit`` uses."""
    objects = {
        "crossed": inst.data,
        "pair": inst.pair,
        "algebra_b": inst.twisting.b if inst.twisting is not None else None,
        "star": inst.star,
        "quasi": inst.quasi,
        "module_algebra": inst.module_algebra,
        "gauge": inst.gauge,
    }
    return {k: v for k, v in objects.items() if v is not None}


def first_failure(report: AxiomReport) -> list:
    bad = report.failures
    expect(bool(bad), "mutation not detected: every law passed")
    cex = bad[0].first_counterexample
    return [bad[0].law, list(cex) if cex is not None else None]


# ---------------------------------------------------------------------------
# corpus: the builtin instances through the verify_corpus pipeline, plus the
# crafted single-entry mutations as negative jobs.


def corpus_setup(seed: int, workdir: Path) -> dict:
    out = {}
    for tag, field, _ in FIELDS:
        instances = ct.builtin_corpus(field)
        out[tag] = {
            "names": [inst.name for inst in instances],
            "mutations": [
                (inst.name, desc, kind, mutated)
                for inst in instances
                for desc, kind, mutated in mutations(inst.data)
            ],
        }
    return out


def pipeline(inst: ct.CorpusInstance) -> dict:
    """The per-instance steps of scripts/verify_corpus.py, with check_algebra first."""
    out = {
        "algebra": ct.check_algebra(inst.data.a),
        "brz": ct.check_brz_axioms(inst.data),
    }
    if inst.pair is not None:
        out["conditions"] = ct.check_twist_conditions(inst.data, inst.pair)
        result = ct.apply_twist(inst.data, inst.pair)
        out["result"] = result
        out["verify"] = ct.verify_twist_result(inst.data, result)
        if inst.gauge is not None and inst.quasi is not None:
            direct = ct.smash_product_data(
                ct.drinfeld_twist(inst.quasi, inst.gauge),
                ct.module_algebra_twist(inst.quasi, inst.module_algebra, inst.gauge),
            )
            out["gauge_agrees"] = ct.maps_equal(result.data_prime.r, direct.r) and ct.maps_equal(
                result.data_prime.sigma, direct.sigma
            )
    if inst.twisting is not None and inst.star is not None and inst.pair is not None:
        out["star"] = ct.specialize_ttp(inst.twisting, inst.star, inst.pair)
    return out


def check_pipeline(out: dict) -> str:
    parts = []
    for key in ("algebra", "brz", "conditions", "verify", "star"):
        if key in out:
            if not out[key].passed:
                raise Mismatch(f"{key} report failed: {out[key].failures[0]}")
            parts.append(ct_io.report_to_json(out[key]))
    expect(out.get("gauge_agrees", True), "twisted data differs from the gauge route")
    if "result" in out:
        res = out["result"]
        parts.append(serialized(res.r_prime.field, r_prime=res.r_prime, sigma_prime=res.sigma_prime))
    return sha256(*parts)


def check_corpus_doc(value) -> str:
    field, instances = value
    return sha256(*(serialized(field, **instance_objects(inst)) for inst in instances))


def corpus_jobs(inputs: dict, workdir: Path) -> list[Job]:
    jobs = []
    for tag, field, _ in FIELDS:

        def build(ctx, tag=tag, field=field):
            ctx[tag] = {inst.name: inst for inst in ct.builtin_corpus(field)}
            return field, tuple(ctx[tag].values())

        jobs.append(Job(f"{tag}/builtin_corpus", tag, build, check_corpus_doc, fixed=True))
        for name in inputs[tag]["names"]:
            jobs.append(
                Job(
                    f"{tag}/pipeline/{name}",
                    tag,
                    lambda ctx, tag=tag, name=name: pipeline(ctx[tag][name]),
                    check_pipeline,
                    fixed=True,
                )
            )
        for inst_name, desc, kind, mutated in copy.deepcopy(inputs[tag]["mutations"]):
            checker = "check_brz_axioms" if kind == "crossed" else "check_algebra"
            jobs.append(
                Job(
                    f"{tag}/mutation/{inst_name}/{desc}",
                    tag,
                    # looked up at call time so an installed tracer sees the call
                    lambda ctx, checker=checker, mutated=mutated: getattr(ct, checker)(mutated),
                    lambda report: json.dumps(first_failure(report)),
                    buckets=("detect",),
                    fixed=True,
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# ladder: apply_twist then build_crossed_product on generated instances of
# increasing size.


def smash_rng(seed: int, a: int, b: int) -> random.Random:
    """One stream per (seed, rung), shared by both fields so Q and GF(5) get the same instance."""
    return random.Random(f"smash-gauge/{seed}/{a}x{b}")


def ladder_setup(seed: int, workdir: Path) -> dict:
    out = {}
    for tag, field, _ in FIELDS:
        out[tag] = {
            "flip": [((a, b), flip_rung(a, b, field)) for a, b in FLIP_RUNGS[tag]],
            "smash": [((a, b), smash_gauge_rung(a, b, field, smash_rng(seed, a, b))) for a, b in SMASH_RUNGS],
        }
    return out


def rung_name(family: str, a: int, b: int) -> str:
    return f"{family}-{2**a}x{2**b}"


def check_flip(value) -> str:
    rung, result, product = value
    data = rung.data
    expect(ct.maps_equal(result.r_prime, data.r), "trivial twist changed R")
    expect(ct.maps_equal(result.sigma_prime, data.sigma), "trivial twist changed sigma")
    expect(ct.maps_equal(product.mult, rung.product_oracle.mult), "crossed product is not k[C2^(a+b)]")
    expect(product.unit == rung.product_oracle.unit, "crossed product has the wrong unit")
    return sha256(serialized(data.field, r_prime=result.r_prime, sigma_prime=result.sigma_prime, product=product))


def check_smash(value) -> str:
    result, product, direct = value
    prime = result.data_prime
    expect(ct.maps_equal(prime.r, direct.r), "R' differs from the gauge route")
    expect(ct.maps_equal(prime.sigma, direct.sigma), "sigma' differs from the gauge route")
    return sha256(serialized(prime.field, r_prime=prime.r, sigma_prime=prime.sigma, product=product))


def ladder_jobs(inputs: dict, workdir: Path) -> list[Job]:
    jobs = []
    for tag, _, _ in FIELDS:
        fresh = copy.deepcopy(inputs[tag])
        for (a, b), rung in fresh["flip"]:

            def run(ctx, rung=rung):
                return rung, ct.apply_twist(rung.data, rung.pair), ct.build_crossed_product(rung.data)

            jobs.append(Job(f"{tag}/{rung_name('flip', a, b)}", tag, run, check_flip))
        for (a, b), rung in fresh["smash"]:

            def run(ctx, rung=rung):
                return (
                    ct.apply_twist(rung.data, rung.pair),
                    ct.build_crossed_product(rung.data),
                    gauge_route(rung),
                )

            jobs.append(Job(f"{tag}/{rung_name('smash-gauge', a, b)}", tag, run, check_smash))
    return jobs


# ---------------------------------------------------------------------------
# cli: crosstwist.cli.main in-process on documents written by setup.

EMITTED = "gauge-v4"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = _io.StringIO(), _io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ct_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _edit_first_r_entry(text: str, edit: Callable[[str], str]) -> str:
    raw = json.loads(text)
    row = raw["objects"]["crossed"]["r"]["matrix"][0]
    row[0] = edit(row[0])
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


def negative_documents(field, text: str) -> dict[str, str]:
    """A mutated entry (laws fail), a malformed scalar and a malformed shape (input errors)."""

    def bump_scalar(s):
        return field.format(field.add(field.parse(s), field.one()))

    def malformed(s):
        return "2/4" if field.characteristic == 0 else str(field.characteristic)

    raw = json.loads(text)
    raw["objects"]["crossed"]["r"]["matrix"].pop()
    return {
        "mutated": _edit_first_r_entry(text, bump_scalar),
        "bad-scalar": _edit_first_r_entry(text, malformed),
        "bad-shape": json.dumps(raw, sort_keys=True, indent=2) + "\n",
    }


def cli_setup(seed: int, workdir: Path) -> dict:
    docs = workdir / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    out = {}
    for tag, field, _ in FIELDS:
        entries = []
        for inst in ct.builtin_corpus(field):
            path = docs / f"{tag}-{inst.name}.json"
            path.write_text(serialized(field, **instance_objects(inst)), encoding="utf-8")
            entries.append((inst.name, path, inst.pair is not None, True))
        a, b = 2, 2
        rung = smash_gauge_rung(a, b, field, smash_rng(seed, a, b))
        name = rung_name("smash-gauge", a, b)
        path = docs / f"{tag}-{name}.json"
        path.write_text(
            serialized(
                field,
                crossed=rung.data,
                pair=rung.pair,
                quasi=rung.quasi,
                module_algebra=rung.module,
                gauge=rung.gauge,
            ),
            encoding="utf-8",
        )
        entries.append((name, path, True, False))
        negatives = {}
        base = (docs / f"{tag}-{EMITTED}.json").read_text(encoding="utf-8")
        for kind, text in negative_documents(field, base).items():
            negatives[kind] = docs / f"{tag}-{kind}.json"
            negatives[kind].write_text(text, encoding="utf-8")
        out[tag] = {"docs": entries, "negatives": negatives}
    return out


def cli_check(expected_code: int, output: Path | None = None):
    """Exit code, every reported check passed, and (for an output file) parse/serialize round trip."""

    def check(value) -> str:
        code, stdout, stderr = value
        expect(code == expected_code, f"exit code {code}, expected {expected_code}")
        parts = [str(code), stdout, stderr]
        if expected_code != 2 and stdout:
            expect(all(r["passed"] for r in json.loads(stdout)["results"]), "a reported check failed")
        if output is not None:
            text = output.read_text(encoding="utf-8")
            expect(ct_io.serialize(ct_io.parse(text)) == text, f"{output.name} does not re-serialize")
            parts.append(text)
        return sha256(*parts)

    return check


def check_mutated(value) -> str:
    code, stdout, _ = value
    expect(code == 1, f"exit code {code}, expected 1")
    for result in json.loads(stdout)["results"]:
        for c in result.get("checks", ()):
            if not c["passed"]:
                return json.dumps([result["object"], c["law_name"], c["first_counterexample"], sha256(stdout)])
    raise Mismatch("mutated document passed every check")


def cli_jobs(inputs: dict, workdir: Path) -> list[Job]:
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []

    def cli_job(job_id, tag, argv, check, buckets, fixed):
        jobs.append(Job(job_id, tag, lambda ctx: run_cli(argv), check, buckets, fixed))

    for tag, _, spec in FIELDS:
        emitted = out_dir / f"{tag}-emit-{EMITTED}.json"
        cli_job(
            f"{tag}/corpus-emit/{EMITTED}",
            tag,
            ["corpus", "--emit", EMITTED, "--field", spec, "--output", str(emitted)],
            cli_check(0, emitted),
            ("emit",),
            True,
        )
        for name, path, has_pair, fixed in inputs[tag]["docs"]:
            common = ["--input", str(path), "--report", "json"]
            cli_job(f"{tag}/validate/{name}", tag, ["validate", *common], cli_check(0), ("validate",), fixed)
            built = out_dir / f"{tag}-{name}-product.json"
            cli_job(
                f"{tag}/build/{name}", tag, ["build", *common, "--output", str(built)],
                cli_check(0, built), ("build",), fixed,
            )
            if not has_pair:
                continue
            twisted = out_dir / f"{tag}-{name}-twist.json"
            cli_job(
                f"{tag}/twist/{name}", tag, ["twist", *common, "--output", str(twisted)],
                cli_check(0, twisted), ("twist",), fixed,
            )
            cli_job(
                f"{tag}/verify-iso/{name}", tag,
                ["verify-iso", "--input", str(twisted), "--report", "json"],
                cli_check(0), ("verify_iso",), fixed,
            )
        for kind, path in inputs[tag]["negatives"].items():
            argv = ["validate", "--input", str(path), "--report", "json"]
            check = check_mutated if kind == "mutated" else cli_check(2)
            cli_job(f"{tag}/negative/{kind}", tag, argv, check, ("detect",), True)
    return jobs


WORKLOADS = {
    "corpus": Workload("corpus", corpus_setup, corpus_jobs, largest="q/pipeline/gauge-v4"),
    "ladder": Workload("ladder", ladder_setup, ladder_jobs, largest="gf5/flip-8x4"),
    "cli": Workload("cli", cli_setup, cli_jobs, largest="q/twist/smash-gauge-4x4"),
}
