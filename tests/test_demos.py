"""Each demo prints exactly the output it printed when its digest was recorded.

A demo prints normal forms, verdicts and check counts, so a change that moves
any of them changes the digest.  Re-record a digest only for a change meant
to alter that demo's output:

    PYTHONPATH=src python demos/05_hopf_structure.py | sha256sum
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_DEMO_SHA256 = {
    "01_normal_forms.py":
        "d0963a768cca90c39fb30e50f46b53a5684553244f8de9b63f89336325befd5e",
    "02_consistency_ansatz.py":
        "a52b55256fbe8f704f5f48f98ccdd6790f5e4a05e87d3f02754a9524f1abb54e",
    "03_cartan_maurer.py":
        "9df50afa7147ac77ea08d650ecc8576caba992de420a50487cccc2e8c2f93f8f",
    "04_superalgebra.py":
        "9f872c21c877595ff7b4732bc5ce24eaddc66116c0e6a8eb1d703ad5c74c05d1",
    "05_hopf_structure.py":
        "f7471d9fa3b204895358eb4d12e6a0a6906a393d65c9f33c8a79254b6a3c4eec",
    "06_rmatrix.py":
        "7107fc014154c5429c80d213ea6c4a23bc2440452848daf0ecaaac99937125a8",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(_DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(_DEMO_SHA256))
def test_demo_output_is_pinned(demo):
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, cwd=ROOT, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == _DEMO_SHA256[demo]
