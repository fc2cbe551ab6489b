"""The scripts under ``scripts/`` report a bad argument as a usage error
(exit 2, a message on stderr, nothing on stdout), never as a traceback,
which exits 1 and so reads as "a law failed"."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_mutation_sweep_refuses_an_unknown_instance():
    proc = run_script("mutation_sweep.py", "--instance", "no-such-instance")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unknown instance 'no-such-instance'" in proc.stderr
    assert "known instances: ttp-flip-c2, " in proc.stderr and "gauge-v4" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_corpus_refuses_a_field_the_corpus_does_not_exist_over():
    proc = run_script("verify_corpus.py", "--field", "gf:2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "characteristic 2" in proc.stderr and "Traceback" not in proc.stderr
