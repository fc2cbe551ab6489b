"""Byte-level pins of every builtin instance and every law report.

Each digest is the sha256 of text the package emits: ``serialize`` of the
document of a builtin instance, and ``report_to_json`` of the reports of the
single-entry mutations in ``scripts/mutation_sweep.py`` plus mutations of the
twisting-map, twist-pair and isomorphism inputs, and ``validate`` output plus
the first outcome of each gauge-route constructor on mutated quasi-Hopf
objects.  Law names, first counterexamples and detail strings all enter the
digests, so any change to them fails here.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
from dataclasses import fields, replace
from pathlib import Path

import pytest

from crosstwist import (
    Algebra,
    CrossedData,
    LinMap,
    NonAssociativeError,
    PointedSpace,
    PrimeField,
    Rationals,
    TwistPair,
    TwistPreconditionError,
    TwistResult,
    algebra_from_group,
    apply_twist,
    builtin_corpus,
    check_algebra,
    check_brz_axioms,
    compose,
    check_twist_conditions,
    check_twisting_map,
    drinfeld_twist,
    flip,
    module_algebra_twist,
    opposite_unit_insertion,
    phi_map,
    reshape,
    smash_product_data,
    specialize_ttp,
    verify_twist_result,
)
from crosstwist.cli import _instance_document, main
from crosstwist.crossed import TwistingMapData, with_r
from crosstwist.io import SpecDocument, report_to_json, serialize
from oracles import random_matrix_map, scale, zero_map

_SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "mutation_sweep.py"
_spec = importlib.util.spec_from_file_location("mutation_sweep", _SWEEP)
mutation_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutation_sweep)
bump = mutation_sweep.bump

FIELDS = {"Q": Rationals(), "GF5": PrimeField(5)}

DOCUMENT_DIGESTS = {
    "GF5/ttp-flip-c2": "35f986c4281335e65cbd9068ba664bdda38933d0d7a0a6a6b6aa41b904528a4f",
    "GF5/smash-sign-c2": "6b6355d24b9afc633b5bf7a5d66a46877cb37dbf90d2074010ddabc3346a8378",
    "GF5/gauge-c2": "1e5b4df25468ced18d5b2709ddcf90017e9306e9cecfe7da812c17a3b3aefaf3",
    "GF5/ttp-star-c2": "e21d0345bc9a304db24ca307cbaef77a80ec0df45c889738a06953b1a7a1e769",
    "GF5/gauge-v4": "3b5d78e59015cf1a29409d376f632ab94632adb03c0d15d46cd8e676e86dd0a9",
    "GF5/smash-v4-twisted": "3c0471c210032fa3f81a2ce51830ba7e97b5df00ed60d70cf446e16a1697aafb",
    "Q/ttp-flip-c2": "3ca50a048fac67f5ca1d343e7d287a3be387b1606b3acdf7eb20c99c1d642e16",
    "Q/smash-sign-c2": "41aa660562bd4fe431aa257cb7d80cdca1e7504960d51f12baba22b8aaebe401",
    "Q/gauge-c2": "b02c0cfb6ef744c504c66b57ed16b7836bf243a84b3d26c3c5e0c651a4004be9",
    "Q/ttp-star-c2": "2d456445c17a3b3fc869f1f4c6217414b8778995e48e471204211eb9b39af5e5",
    "Q/gauge-v4": "276ce27de5d48c895bc9b9335248236490c0b14052fa31c37fb17db83a739043",
    "Q/smash-v4-twisted": "f3e43f7656f8bb5a802068f2804131ec13dc9b320484bf7464d13d667f06e927",
}

REPORT_DIGESTS = {
    "GF5/ttp-flip-c2/sweep": "7c51aa87ff1219b110e50ea9c194710fd5418981c19d208002e8aa3b9573d3ad",
    "GF5/ttp-flip-c2/inputs": "4c677a1039e6e5510d516f2546f7f665d46d694eb820e44769f49650fa0bae4b",
    "GF5/smash-sign-c2/sweep": "7301808d949845b0d47d1de95e0631d68846981b1be90c8082a4b7a72ffb01f3",
    "GF5/gauge-c2/sweep": "7301808d949845b0d47d1de95e0631d68846981b1be90c8082a4b7a72ffb01f3",
    "GF5/gauge-c2/inputs": "97b364f789da5990d9f665f24184725a633eac040271e2851a9975b82897b03a",
    "GF5/ttp-star-c2/sweep": "7301808d949845b0d47d1de95e0631d68846981b1be90c8082a4b7a72ffb01f3",
    "GF5/ttp-star-c2/inputs": "2f85bb2fe1ffc479aa203622729d441b7bf8565198e2431fde5e43e579b0ad29",
    "GF5/gauge-v4/sweep": "ddad152979b372ab0693752b5a30b823ea22849ba57aa3bbb095d74884206655",
    "GF5/gauge-v4/inputs": "badbd03f6af048f8c06555cd334a3f2930b838a2f4ae540ecd61a7efd66a70c0",
    "GF5/smash-v4-twisted/sweep": "9411645b3194ea7911a7e1d38a00067b8a9be4403872facf3ce4ba1016115177",
    "GF5/smash-v4-twisted/inputs": "26d654736c7c74596eb3d2df9c34b840e02e29401bf684ddea192fc724b0b958",
    "Q/ttp-flip-c2/sweep": "7c51aa87ff1219b110e50ea9c194710fd5418981c19d208002e8aa3b9573d3ad",
    "Q/ttp-flip-c2/inputs": "4c677a1039e6e5510d516f2546f7f665d46d694eb820e44769f49650fa0bae4b",
    "Q/smash-sign-c2/sweep": "9825490aeb2e2264820b72163449f86301f887f79d84313b721bed88907d226e",
    "Q/gauge-c2/sweep": "9825490aeb2e2264820b72163449f86301f887f79d84313b721bed88907d226e",
    "Q/gauge-c2/inputs": "97b364f789da5990d9f665f24184725a633eac040271e2851a9975b82897b03a",
    "Q/ttp-star-c2/sweep": "9825490aeb2e2264820b72163449f86301f887f79d84313b721bed88907d226e",
    "Q/ttp-star-c2/inputs": "2f85bb2fe1ffc479aa203622729d441b7bf8565198e2431fde5e43e579b0ad29",
    "Q/gauge-v4/sweep": "ea8c3a4856795106ec2d7316118c8bf7530d89cf2808efa9001f84b61c15f3cf",
    "Q/gauge-v4/inputs": "4a23ac783a8d7207c4b6905b21a42c12523a5f338e45edbe64fe9073fb7a22c8",
    "Q/smash-v4-twisted/sweep": "11f19642f0065c82cef31b34f76883cdf0220126e1ce9a2adb87b5c553baec6a",
    "Q/smash-v4-twisted/inputs": "d3ecaf71cb72b5277fbcd37ca6ec6675cc219c63510adcadbd3d8f3b8c8474fe",
}


def _sha(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def _extra_reports(inst):
    """Reports for mutated twisting maps, twist pairs and twist results."""
    if inst.twisting is not None:
        t = inst.twisting
        m = t.a.dim
        for col in (0, 1, m):
            r = bump(t.r, 0, col)
            yield check_twisting_map(TwistingMapData(a=t.a, b=t.b, r=r))
    if inst.pair is not None:
        pair = inst.pair
        n = inst.data.v.dim
        for col in range(n):
            yield check_twist_conditions(inst.data, TwistPair(bump(pair.theta, 0, col), pair.gamma))
            yield check_twist_conditions(inst.data, TwistPair(pair.theta, bump(pair.gamma, 1, col)))
        result = apply_twist(inst.data, pair)
        for row, col in ((0, 0), (1, 0)):
            phi = bump(result.phi, row, col)
            stored = TwistResult(
                r_prime=result.r_prime,
                sigma_prime=result.sigma_prime,
                data_prime=result.data_prime,
                phi=phi,
                phi_inverse=result.phi_inverse,
            )
            yield verify_twist_result(inst.data, stored)


def _corpus(field_name):
    return builtin_corpus(FIELDS[field_name])


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_builtin_documents_are_pinned(field_name):
    field = FIELDS[field_name]
    got = {
        f"{field_name}/{inst.name}": _sha([serialize(_instance_document(field, inst))])
        for inst in _corpus(field_name)
    }
    want = {k: v for k, v in DOCUMENT_DIGESTS.items() if k.startswith(f"{field_name}/")}
    assert got == want


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_mutation_reports_are_pinned(field_name):
    got = {}
    for inst in _corpus(field_name):
        sweep = [report_to_json(rep) for _, rep in mutation_sweep.mutations(inst.data)]
        got[f"{field_name}/{inst.name}/sweep"] = _sha(sweep)
        extra = [report_to_json(rep) for rep in _extra_reports(inst)]
        if extra:
            got[f"{field_name}/{inst.name}/inputs"] = _sha(extra)
    want = {k: v for k, v in REPORT_DIGESTS.items() if k.startswith(f"{field_name}/")}
    assert got == want


def _ttp_outcomes(inst):
    """(mutation, report_to_json of ``specialize_ttp``, or the refusal) for every
    single-entry +1 bump of the star, theta and gamma of a TTP instance."""
    t, star, pair = inst.twisting, inst.star, inst.pair
    for name, f in (("star", star), ("theta", pair.theta), ("gamma", pair.gamma)):
        for row in range(f.codomain_total):
            for col in range(f.domain_total):
                g = bump(f, row, col)
                args = (g, pair) if name == "star" else (star, replace(pair, **{name: g}))
                try:
                    out = report_to_json(specialize_ttp(t, *args))
                except TwistPreconditionError as exc:
                    out = f"TwistPreconditionError: {exc}\n"
                yield f"{name}[{row}][{col}]", out


TTP_DIGESTS = {
    "GF5/ttp-flip-c2": "654b57eeff4b8512da9cd166a4996a8ae97dc7a3b204657bc2a5e520a70d9912",
    "GF5/ttp-star-c2": "1ab19f1d30b3fa7e8de32af5476f21ab18523566cc1a7a642f3cc9f326292935",
    "Q/ttp-flip-c2": "654b57eeff4b8512da9cd166a4996a8ae97dc7a3b204657bc2a5e520a70d9912",
    "Q/ttp-star-c2": "0bb0e29a9725a7181a51081bbf33ecf71abc2c0860b132651384c8b697b13f12",
}


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_failing_specialization_reports_are_pinned(field_name):
    """The reports pin each law's verdict, first counterexample and detail; every
    law of ``specialize_ttp`` fails on some bump, so each failing form enters."""
    got, failing = {}, set()
    for inst in _corpus(field_name):
        if inst.star is None:
            continue
        outcomes = list(_ttp_outcomes(inst))
        got[f"{field_name}/{inst.name}"] = _sha(f"== {name}\n{out}" for name, out in outcomes)
        for _, out in outcomes:
            if not out.startswith("TwistPreconditionError"):
                failing.update(c["law_name"] for c in json.loads(out)["checks"] if not c["passed"])
    assert got == {k: v for k, v in TTP_DIGESTS.items() if k.startswith(f"{field_name}/")}
    assert failing == {"cros1", "theta_mult", "rel1", "rel2", "rel3", "sigma_prime_ttp"}


def _twist_cases(corpus_q, non_associative):
    """name -> (document, --report) for every ``twist`` input pinned below."""
    for field_name in sorted(FIELDS):
        field = FIELDS[field_name]
        insts = corpus_q if field_name == "Q" else _corpus(field_name)
        for inst in insts:
            if inst.pair is not None:
                yield f"{field_name}/{inst.name}", _instance_document(field, inst), "json"
    by_name = {inst.name: inst for inst in corpus_q}
    field = FIELDS["Q"]
    yield "Q/gauge-c2/text", _instance_document(field, by_name["gauge-c2"]), "text"
    data, pair = non_associative
    yield "Q/non-associative", SpecDocument(field, {"crossed": data, "pair": pair}), "json"
    gauge = by_name["gauge-c2"]
    doubled = TwistPair(gauge.pair.theta, scale(gauge.pair.gamma, field.from_int(2)))
    yield "Q/gauge-c2/doubled-gamma", SpecDocument(field, {"crossed": gauge.data, "pair": doubled}), "json"
    flip = by_name["ttp-flip-c2"]
    zeroed = with_r(flip.data, zero_map(field, (2, 2), (2, 2)))
    yield "Q/ttp-flip-c2/zero-r", SpecDocument(field, {"crossed": zeroed, "pair": flip.pair}), "json"


TWIST_DIGESTS = {
    "GF5/ttp-flip-c2": "dac990b7f2ee02ee1b9c7a9eb082884ae8a7b3bd832f5f2305092ef2bd16b2f8",
    "GF5/gauge-c2": "28bdc823aa9da34aab4f6b42ebfb4a9f24a61ea110ade2d73780d0c603df18dd",
    "GF5/ttp-star-c2": "cc14a4fffa5f0bfa64d7ae5ec25059a78f5fe2c30d3fceccebd41a357af49330",
    "GF5/gauge-v4": "0ab1a353e2fc01de131a38cfcc0c425dcdb6a494854e793df2e258dc0a154307",
    "GF5/smash-v4-twisted": "367e71dbfd62f04b1cc8e79762fc88507f9731e278209379009c2fe57a283ca3",
    "Q/ttp-flip-c2": "4fdfda91e5bdce60bffb5d69487f626f336abcb05b6e2731bee62edcfec898fa",
    "Q/gauge-c2": "72cc1f49f42cb9a2da50a2aa609a7fb25d72bf9760d11a211b63d46e054e8692",
    "Q/ttp-star-c2": "5ebd2cb094dc2610e0fd0299b771334888be6f1eb4903ec870e3d534e9eb69cd",
    "Q/gauge-v4": "30eb351ed07ee999792f02a8d070e740e68a80b340dbf1c4276637ed16f4bc97",
    "Q/smash-v4-twisted": "eea747409ac785b8acbaaeb24ae9d012c8a28680710c7573f73d488942ce39e3",
    "Q/gauge-c2/text": "dc43ef5422e23a09623d99da9f1a4cd92145d581da3e55bdb997bbe91b8ae6e8",
    "Q/non-associative": "cbc26ac5260c0a8e6891fe96c6825cb4cfa14a2818ad7925bced3e2e501ff8f4",
    "Q/gauge-c2/doubled-gamma": "466cfa6a997873612bc7d315af023a7ce490e52254142e880f5d3911c8ee29e7",
    "Q/ttp-flip-c2/zero-r": "988d8e460146e9bae74ac23ded165cbc7f791867125bc364dfd905e25d0be44a",
}


def test_twist_command_output_is_pinned(corpus, non_associative, tmp_path):
    """Exit code, stdout and the --output document of ``crosstwist twist``."""
    got = {}
    for name, doc, report in _twist_cases(corpus, non_associative):
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(serialize(doc), encoding="utf-8")
        dst.unlink(missing_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["twist", "--input", str(src), "--report", report, "--output", str(dst)])
        written = dst.read_text(encoding="utf-8") if dst.exists() else ""
        got[name] = _sha([f"{code}\n", out.getvalue(), written])
    assert got == TWIST_DIGESTS


def _bumped(field, obj):
    """(path, copy of obj with one entry increased by one) for every entry of
    every map, vector and algebra inside obj."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, LinMap):
            for row in range(value.codomain_total):
                for col in range(value.domain_total):
                    yield f"{f.name}[{row}][{col}]", replace(obj, **{f.name: bump(value, row, col)})
        elif isinstance(value, Algebra):
            for path, alg in _bumped(field, value):
                yield f"{f.name}.{path}", replace(obj, **{f.name: alg})
        elif isinstance(value, tuple):
            for k, x in enumerate(value):
                entries = value[:k] + (field.add(x, field.one()),) + value[k + 1 :]
                yield f"{f.name}[{k}]", replace(obj, **{f.name: entries})


def _quasi_hopf_cases(field):
    """(name, quasi, module algebra, gauge) of gauge-c2 and of a sample of its
    single-entry mutations: every comult and counit entry, which break several
    laws at once, and every third of the other entries."""
    inst = {i.name: i for i in builtin_corpus(field)}["gauge-c2"]
    h, b, g = inst.quasi, inst.module_algebra, inst.gauge
    yield "valid", h, b, g
    for n, (path, h2) in enumerate(_bumped(field, h)):
        if path.startswith(("comult", "counit")) or n % 3 == 0:
            yield f"quasi.{path}", h2, b, g
    for n, (path, b2) in enumerate(_bumped(field, b)):
        if n % 3 == 0:
            yield f"module_algebra.{path}", h, b2, g
    for n, (path, g2) in enumerate(_bumped(field, g)):
        if n % 3 == 0:
            yield f"gauge.{path}", h, b, g2


def _first_outcome(field, build, *args):
    """The serialized result of a constructor, or its exception."""
    try:
        out = build(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}\n"
    return serialize(SpecDocument(field, {"out": out}))


QUASI_HOPF_DIGESTS = {
    "GF5": "ad6d9c9b22b6972df73fe21356443af7eef6d128b679b76dcb4f8923572281a1",
    "Q": "287cddc983ca83627d001bd5639e889997bd721f16b6376c8aacf0586a1de48a",
}


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_quasi_hopf_validation_is_pinned(field_name, tmp_path):
    """``validate`` (json and text) on the quasi-Hopf objects of gauge-c2 and
    its mutations, and the first outcome of each gauge-route constructor."""
    field = FIELDS[field_name]
    src = tmp_path / "in.json"
    texts = []
    for name, h, b, g in _quasi_hopf_cases(field):
        texts.append(f"== {name}\n")
        doc = SpecDocument(field, {"quasi": h, "module_algebra": b, "gauge": g})
        src.write_text(serialize(doc), encoding="utf-8")
        for report in ("json", "text"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["validate", "--input", str(src), "--report", report])
            texts += [f"{code}\n", out.getvalue()]
        texts.append(_first_outcome(field, smash_product_data, h, b))
        texts.append(_first_outcome(field, drinfeld_twist, h, g))
        texts.append(_first_outcome(field, module_algebra_twist, h, b, g))
    assert _sha(texts) == QUASI_HOPF_DIGESTS[field_name]



def _cyclic_or_random_algebra(field, rng, m):
    """The group algebra of Z/m, or (half the time) random structure constants
    and a random unit, which are almost never lawful."""
    cyclic = algebra_from_group([[(i + j) % m for j in range(m)] for i in range(m)], 0, field)
    if rng.random() < 0.5:
        return cyclic
    mult = random_matrix_map(field, (m, m), (m,), rng)
    return Algebra(m, mult, random_matrix_map(field, (1,), (m,), rng).column(0))


def _perturbed(f, rng):
    """``f``, a random map of its shape, or ``f`` with one entry bumped."""
    mode = rng.choice(("keep", "random", "bump", "bump"))
    if mode == "random":
        return random_matrix_map(f.field, f.domain_dims, f.codomain_dims, rng)
    if mode == "bump":
        return bump(f, rng.randrange(f.codomain_total), rng.randrange(f.domain_total))
    return f


def _seeded_reports(field, seed):
    """Law reports on seeded random data with dims up to 3x2: A is Z/m or random,
    V = k[Z/n], and R, sigma, theta, gamma and phi start from the flip twisted
    tensor product and its trivial pair, each kept, redrawn or bumped.  A law
    check that refuses a non-associative A contributes its error text."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 3), rng.randint(1, 2)
    a = _cyclic_or_random_algebra(field, rng, m)
    b = algebra_from_group([[(i + j) % n for j in range(n)] for i in range(n)], 0, field)
    v = PointedSpace(n, b.unit)
    iota = opposite_unit_insertion(a, v)
    lawful = CrossedData(a, v, flip(field, n, m), compose(iota, b.mult))

    def crossed():
        return CrossedData(a, v, _perturbed(lawful.r, rng), _perturbed(lawful.sigma, rng))

    c, c_prime = crossed(), crossed()
    pair = TwistPair(_perturbed(iota, rng), _perturbed(iota, rng))
    result = TwistResult(
        r_prime=c_prime.r,
        sigma_prime=c_prime.sigma,
        data_prime=c_prime,
        phi=_perturbed(phi_map(a, pair.theta), rng),
        phi_inverse=phi_map(a, pair.gamma),
    )
    yield check_algebra(a)
    yield check_brz_axioms(c)
    yield check_twisting_map(TwistingMapData(a=a, b=_cyclic_or_random_algebra(field, rng, n), r=c.r))
    for check, args in ((check_twist_conditions, (c, pair)), (verify_twist_result, (c, result))):
        try:
            yield check(*args)
        except NonAssociativeError as exc:
            yield f"NonAssociativeError: {exc}"


SEEDED_REPORT_DIGESTS = {
    "GF5": "6c461cc35d536ed71cb6e3ee31ee454a2da946cb6b03acf7fcdf195adfc4790a",
    "Q": "7d228afff551f8943907c92ddbc28d347bf27408986565bf385ba0e9f36e1df3",
}


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_seeded_law_reports_are_pinned(field_name):
    """Reports of every law checker on 85 seeded random inputs per field, most
    of them failing, so the first counterexample and detail of each law enter
    the digest."""
    texts = [
        out if isinstance(out, str) else report_to_json(out)
        for seed in range(85)
        for out in _seeded_reports(FIELDS[field_name], seed)
    ]
    assert _sha(texts) == SEEDED_REPORT_DIGESTS[field_name]


VERIFY_ISO_DIGESTS = {
    "GF5": "2da4028333771398318f6888438b8b74b9a17026bcd1b2f4aa4f3b0cdd935e82",
    "Q": "a925936b52ebbef524ac55e8a3b5bd15242bf7b1aa44bca7860c00e9b26db42f",
}


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_verify_iso_on_flat_phi_is_pinned(field_name, tmp_path):
    """``verify-iso`` (json and text) on twist outputs whose phi and phi_inverse
    are relabelled (mn,) -> (mn,), as they are, and with one entry bumped.  The
    command checks only the totals of phi, so the laws must read a map over
    the whole of A (x) V whatever its factor list."""
    field = FIELDS[field_name]
    src = tmp_path / "in.json"
    texts = []
    for inst in _corpus(field_name):
        if inst.pair is None:
            continue
        result = apply_twist(inst.data, inst.pair)
        mn = inst.data.a.dim * inst.data.v.dim
        flat = {k: reshape(getattr(result, k), (mn,), (mn,)) for k in ("phi", "phi_inverse")}
        variants = [("as-is", flat), ("phi[0][0]", dict(flat, phi=bump(flat["phi"], 0, 0)))]
        variants.append(
            ("phi_inverse[-1][1]", dict(flat, phi_inverse=bump(flat["phi_inverse"], mn - 1, 1)))
        )
        for name, maps in variants:
            texts.append(f"== {inst.name} {name}\n")
            objects = {"crossed": inst.data, "crossed_prime": result.data_prime, **maps}
            src.write_text(serialize(SpecDocument(field, objects)), encoding="utf-8")
            for report in ("json", "text"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["verify-iso", "--input", str(src), "--report", report])
                texts += [f"{code}\n", out.getvalue()]
    assert _sha(texts) == VERIFY_ISO_DIGESTS[field_name]
