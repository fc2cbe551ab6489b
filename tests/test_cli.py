import json
import subprocess
import sys

import pytest

import crosstwist
from crosstwist.cli import main
from crosstwist.fields import _text
from crosstwist.io import SpecDocument, serialize


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def emitted(tmp_path, capsys):
    def emit(selector, field=None):
        path = tmp_path / f"inst_{selector}.json"
        args = ["corpus", "--emit", str(selector), "--output", str(path)]
        if field:
            args += ["--field", field]
        code, _, err = run_cli(args, capsys)
        assert code == 0, err
        return path

    return emit


class TestCorpusCommand:
    def test_listing(self, capsys):
        code, out, _ = run_cli(["corpus"], capsys)
        assert code == 0
        assert "ttp-flip-c2" in out and "gauge-v4" in out

    def test_emit_by_index_then_validate(self, emitted, capsys):
        path = emitted(1)
        code, out, _ = run_cli(["validate", "--input", str(path)], capsys)
        assert code == 0
        assert "[PASS] brz5" in out

    def test_emit_by_name(self, emitted, capsys):
        path = emitted("gauge-c2")
        code, _, _ = run_cli(["validate", "--input", str(path), "--object", "crossed"], capsys)
        assert code == 0

    def test_emit_unknown_instance(self, capsys):
        code, _, err = run_cli(["corpus", "--emit", "nope"], capsys)
        assert code == 2 and "no corpus instance" in err

    def test_gf2_is_input_error(self, capsys):
        code, _, err = run_cli(["corpus", "--field", "gf:2"], capsys)
        assert code == 2 and "characteristic 2" in err

    def test_emission_is_byte_identical_across_processes(self, tmp_path):
        outs = []
        for run in range(2):
            path = tmp_path / f"run{run}.json"
            subprocess.run(
                [sys.executable, "-m", "crosstwist.cli", "corpus", "--emit", "gauge-v4", "--output", str(path)],
                check=True,
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestValidateCommand:
    def test_validates_all_objects(self, emitted, capsys):
        path = emitted("gauge-c2")
        code, out, _ = run_cli(["validate", "--input", str(path)], capsys)
        assert code == 0
        for header in ("crossed", "quasi", "gauge", "module_algebra", "pair"):
            assert f"== {header}" in out

    def test_mutated_document_fails_naming_law(self, emitted, capsys, tmp_path):
        path = emitted(1)
        raw = json.loads(path.read_text())
        raw["objects"]["crossed"]["r"]["matrix"][0][0] = "7/2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out, _ = run_cli(["validate", "--input", str(bad)], capsys)
        assert code == 1
        assert "[FAIL] brz1" in out

    def test_json_report(self, emitted, capsys):
        path = emitted(1)
        code, out, _ = run_cli(["validate", "--input", str(path), "--report", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        names = {r["object"] for r in payload["results"]}
        assert "crossed" in names

    def test_unknown_object(self, emitted, capsys):
        path = emitted(1)
        code, _, err = run_cli(["validate", "--input", str(path), "--object", "ghost"], capsys)
        assert code == 2 and "no such object" in err

    def test_field_mismatch_is_input_error(self, emitted, capsys):
        path = emitted(1)
        code, _, err = run_cli(["validate", "--input", str(path), "--field", "gf:5"], capsys)
        assert code == 2 and "does not match" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run_cli(["validate", "--input", "/nonexistent.json"], capsys)
        assert code == 2


class TestBuildCommand:
    def test_build_emits_product(self, emitted, capsys, tmp_path):
        path = emitted(1)
        out_path = tmp_path / "product.json"
        code, out, _ = run_cli(
            ["build", "--input", str(path), "--output", str(out_path)], capsys
        )
        assert code == 0 and "[PASS] assoc" in out
        built = json.loads(out_path.read_text())
        assert built["objects"]["crossed_product"]["dim"] == 4

    def test_build_refuses_mutated_data(self, emitted, capsys, tmp_path):
        path = emitted(1)
        raw = json.loads(path.read_text())
        raw["objects"]["crossed"]["sigma"]["matrix"][0][0] = "7/2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out, _ = run_cli(["build", "--input", str(bad)], capsys)
        assert code == 1 and "brz2" in out


class TestTwistCommands:
    def test_twist_reports_phi_mult(self, emitted, capsys, tmp_path):
        path = emitted("gauge-c2")
        out_path = tmp_path / "twisted.json"
        code, out, _ = run_cli(
            ["twist", "--input", str(path), "--output", str(out_path)], capsys
        )
        assert code == 0
        assert "[PASS] phi_mult" in out and "[PASS] phi_invertible" in out

    def test_twist_then_verify_iso(self, emitted, capsys, tmp_path):
        path = emitted("gauge-v4")
        out_path = tmp_path / "twisted.json"
        code, _, _ = run_cli(["twist", "--input", str(path), "--output", str(out_path)], capsys)
        assert code == 0
        code, out, _ = run_cli(["verify-iso", "--input", str(out_path)], capsys)
        assert code == 0 and "[PASS] phi_mult" in out

    def test_verify_iso_catches_tampered_phi(self, emitted, capsys, tmp_path):
        path = emitted("gauge-c2")
        out_path = tmp_path / "twisted.json"
        run_cli(["twist", "--input", str(path), "--output", str(out_path)], capsys)
        raw = json.loads(out_path.read_text())
        raw["objects"]["phi"]["matrix"][0][0] = "7/2"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(raw))
        code, out, _ = run_cli(["verify-iso", "--input", str(tampered)], capsys)
        assert code == 1 and "[FAIL] phi" in out

    def test_twist_missing_pair_is_input_error(self, emitted, capsys):
        path = emitted("smash-sign-c2")
        code, _, err = run_cli(["twist", "--input", str(path)], capsys)
        assert code == 2 and "twist_pair" in err

    def test_twist_on_non_associative_algebra_is_check_failure(
        self, non_associative, capsys, tmp_path
    ):
        data, pair = non_associative
        doc = SpecDocument(field=data.field, objects={"crossed": data, "pair": pair})
        path = tmp_path / "nonassoc.json"
        path.write_text(serialize(doc))
        code, out, err = run_cli(["twist", "--input", str(path)], capsys)
        assert code == 1 and "[FAIL] assoc" in out
        assert "Traceback" not in err

    def test_twist_rejected_pair_is_check_failure(self, emitted, capsys, tmp_path):
        path = emitted("gauge-c2")
        raw = json.loads(path.read_text())
        # double every gamma entry: cros2/cros3 break
        gamma = raw["objects"]["pair"]["gamma"]["matrix"]
        for i, row in enumerate(gamma):
            for j, cell in enumerate(row):
                num, den = cell.split("/")
                from fractions import Fraction

                doubled = Fraction(2 * int(num), int(den))
                gamma[i][j] = f"{doubled.numerator}/{doubled.denominator}"
        bad = tmp_path / "bad_pair.json"
        bad.write_text(json.dumps(raw))
        code, out, _ = run_cli(["twist", "--input", str(bad)], capsys)
        assert code == 1 and "[FAIL] cros" in out


COUNTED = ("make_sigma_prime", "verify_twist_result", "check_brz_axioms", "crossed_mult")


@pytest.fixture()
def call_counts(count_calls):
    """Calls of each COUNTED function, through every module that binds it."""
    return count_calls(crosstwist, COUNTED)


class TestTwistCallCounts:
    def test_twist_command_runs_each_check_once(self, emitted, call_counts, capsys):
        path = emitted("gauge-c2")
        call_counts.clear()
        code, out, _ = run_cli(["twist", "--input", str(path)], capsys)
        assert code == 0 and "[PASS] phi_mult" in out
        assert call_counts["make_sigma_prime"] == 1
        assert call_counts["verify_twist_result"] == 1
        assert call_counts["check_brz_axioms"] <= 2
        assert call_counts["crossed_mult"] <= 2

    def test_apply_twist_builds_sigma_prime_once(self, by_name, call_counts):
        inst = by_name["gauge-c2"]
        crosstwist.apply_twist(inst.data, inst.pair)
        assert call_counts["make_sigma_prime"] == 1
        # phi_mult pushes the products of c and of c' as steps; no product map is built
        assert call_counts["crossed_mult"] == 0
        crosstwist.build_crossed_product(inst.data)
        assert call_counts["crossed_mult"] == 1


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(["nonsense"], capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(["corpus", "--frobnicate"], capsys)
        assert code == 2

    def test_bad_field_spec(self, capsys):
        # 318665857834031151167461 = psi_12 is a strong pseudoprime to bases 2..37
        for spec in ("gf:4", "gf:318665857834031151167461"):
            code, out, err = run_cli(["corpus", "--field", spec], capsys)
            assert code == 2 and "must be prime" in err and out == ""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("validate", "--output"),
            ("verify-iso", "--object"),
            ("verify-iso", "--output"),
            ("corpus", "--object"),
            ("corpus", "--report"),
        ],
    )
    def test_a_flag_the_command_does_not_read_is_refused(self, command, flag, emitted, capsys, tmp_path):
        argv = [command]
        if command == "validate":
            argv += ["--input", str(emitted("gauge-c2"))]
        elif command == "verify-iso":
            twisted = tmp_path / "twisted.json"
            run_cli(["twist", "--input", str(emitted("gauge-c2")), "--output", str(twisted)], capsys)
            argv += ["--input", str(twisted)]
        value = {"--output": str(tmp_path / "written.json"), "--object": "crossed", "--report": "json"}[flag]
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(argv + [flag, value], capsys)
        assert code == 2 and out == ""
        assert "usage:" in err and f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "case", ["directory", "non_utf8", "deep_json", "verify_iso_dims", "twist_pair_dims"]
    )
    def test_unreadable_or_mismatched_input_is_input_error(self, case, emitted, capsys, tmp_path):
        command = "validate"
        path = tmp_path / "doc.json"
        if case == "directory":
            path = tmp_path
        elif case == "non_utf8":
            path.write_bytes(b'{"field": "\xff"}')
        elif case == "deep_json":
            path.write_text("[" * 100000 + "]" * 100000)
        elif case == "twist_pair_dims":
            command = "twist"
            raw = json.loads(emitted("ttp-flip-c2").read_text())
            narrow = {"domain_dims": [1], "codomain_dims": [2, 1], "matrix": [["1/1"], ["0/1"]]}
            raw["objects"]["pair"].update(theta=narrow, gamma=narrow)
            path.write_text(json.dumps(raw))
        else:
            command = "verify-iso"
            run_cli(["twist", "--input", str(emitted("ttp-flip-c2")), "--output", str(path)], capsys)
            raw = json.loads(path.read_text())
            other = json.loads(emitted("gauge-v4").read_text())
            raw["objects"]["crossed_prime"] = other["objects"]["crossed"]
            path.write_text(json.dumps(raw))
        code, out, err = run_cli([command, "--input", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


class TestOversizedNumbers:
    """Python reads and writes ints of at most ``sys.get_int_max_str_digits()``
    (by default 4300) digits; literals and values of any length are read and
    written in full, and only an oversized JSON integer is an input error."""

    @pytest.mark.parametrize(
        "field, literal",
        [(None, "1" * 5000 + "/1"), (None, "1/" + "1" * 5000), ("gf:5", "1" * 5000)],
        ids=["numerator", "denominator", "gf5"],
    )
    def test_oversized_literal_is_read_in_full(self, field, literal, emitted, capsys, tmp_path):
        """Over Q the 5000-digit entry is read and breaks R's unit law; over
        GF(5) it is read and refused as a literal not below 5."""
        raw = json.loads(emitted("gauge-c2", field).read_text())
        raw["objects"]["crossed"]["r"]["matrix"][0][0] = literal
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(["validate", "--input", str(path)], capsys)
        if field:
            assert code == 2 and out == ""
            assert err == f"error: $.objects.crossed.r.matrix[0][0]: non-canonical GF(5) literal '{literal}' (must be < 5)\n"
        else:
            assert code == 1 and err == ""
            assert "[FAIL] brz1 at basis index (0,): R(1_V (x) a_0) != a_0 (x) 1_V" in out

    def test_built_product_with_long_entries_reads_back(self, capsys, tmp_path):
        """A = k[x]/(x^2 - M) and V = k[y]/(y^2 - M) with the flip, M of 4000
        digits: the product holds (xy)^2 = M^2, of 7999 digits, which ``build
        --output`` writes and ``validate --input`` reads back."""
        field, big = crosstwist.Rationals(), 10**3999 + 7

        def quadratic(label):
            mult = crosstwist.MapBuilder(field, (2, 2), (2,))
            for col, row, value in ((0, 0, 1), (1, 1, 1), (2, 1, 1), (3, 0, big)):
                mult.add(row, col, field.from_int(value))
            return crosstwist.Algebra(2, mult.build(), (field.one(), field.zero()), label=label)

        twisting = crosstwist.TwistingMapData(quadratic("A"), quadratic("V"), crosstwist.flip(field, 2, 2))
        doc = SpecDocument(field=field, objects={"crossed": crosstwist.twisted_tensor_product(twisting)})
        source, built = tmp_path / "crossed.json", tmp_path / "product.json"
        source.write_text(serialize(doc))
        code, _, err = run_cli(["build", "--input", str(source), "--output", str(built)], capsys)
        assert code == 0, err
        assert '"' + _text(big * big) + '/1"' in built.read_text()
        code, out, err = run_cli(["validate", "--input", str(built)], capsys)
        assert code == 0 and err == "" and "[FAIL]" not in out

    def test_oversized_json_integer_is_input_error(self, emitted, capsys, tmp_path):
        text = emitted("gauge-c2").read_text().replace('"dim": 2', '"dim": ' + "1" * 5000, 1)
        path = tmp_path / "big.json"
        path.write_text(text)
        code, out, err = run_cli(["validate", "--input", str(path)], capsys)
        assert code == 2 and out == "" and err.startswith("error: $: not valid JSON")

    def test_failing_law_names_a_product_of_long_entries(self, emitted, capsys, tmp_path):
        """Two sigma entries of 3000 digits each break brz4; the first difference
        is their product, of 6000 digits, which the detail writes in full."""
        raw = json.loads(emitted("gauge-c2").read_text())
        sigma = raw["objects"]["crossed"]["sigma"]["matrix"]
        sigma[0][0], sigma[1][1] = "7" * 3000 + "/1", "9" * 3000 + "/1"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        for report in ("text", "json"):
            code, out, err = run_cli(["validate", "--input", str(path), "--report", report], capsys)
            assert code == 1 and err == ""
            assert "[FAIL] brz4" in out if report == "text" else '"brz4"' in out
            assert len(out) > 6000
