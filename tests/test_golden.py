"""Byte-level pins of every builtin instance and every law report.

Each digest is the sha256 of text the package emits: ``serialize`` of the
document of a builtin instance, and ``report_to_json`` of the reports of the
single-entry mutations in ``scripts/mutation_sweep.py`` plus mutations of the
twisting-map, twist-pair and isomorphism inputs.  Law names, first
counterexamples and detail strings all enter the digests, so any change to
them fails here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from crosstwist import (
    PrimeField,
    Rationals,
    TwistPair,
    TwistResult,
    apply_twist,
    builtin_corpus,
    check_twist_conditions,
    check_twisting_map,
    verify_twist_result,
)
from crosstwist.cli import _instance_document
from crosstwist.crossed import TwistingMapData
from crosstwist.io import report_to_json, serialize

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
    "Q/ttp-flip-c2/sweep": "cd0ff1985e3198c4cebe8e02ec64886f9a85ea8767713c9da836e40476c078b7",
    "Q/ttp-flip-c2/inputs": "4c677a1039e6e5510d516f2546f7f665d46d694eb820e44769f49650fa0bae4b",
    "Q/smash-sign-c2/sweep": "15a6273497435d8b00e44c639486d6dfbd18851f2cda41a2ecb7e2f5803b085d",
    "Q/gauge-c2/sweep": "15a6273497435d8b00e44c639486d6dfbd18851f2cda41a2ecb7e2f5803b085d",
    "Q/gauge-c2/inputs": "97b364f789da5990d9f665f24184725a633eac040271e2851a9975b82897b03a",
    "Q/ttp-star-c2/sweep": "15a6273497435d8b00e44c639486d6dfbd18851f2cda41a2ecb7e2f5803b085d",
    "Q/ttp-star-c2/inputs": "2f85bb2fe1ffc479aa203622729d441b7bf8565198e2431fde5e43e579b0ad29",
    "Q/gauge-v4/sweep": "54392b511bb9ef5050d014ab002ab31de10e99b83759a6f761a306c95278a33c",
    "Q/gauge-v4/inputs": "4a23ac783a8d7207c4b6905b21a42c12523a5f338e45edbe64fe9073fb7a22c8",
    "Q/smash-v4-twisted/sweep": "eec2194edd8024382947fe1b10f0dc6646db1d4038ed850acfd6eae98cd7d8de",
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
