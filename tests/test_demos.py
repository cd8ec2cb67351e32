"""Every demo script runs to completion and prints the same bytes, pinned by
SHA-256, whatever the string hash seed."""
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_families_and_partitions.py":
        "28693c68e95e8877a1385271515d764eab995c15bd88a7361fdb20bf19ecc85d",
    "02_partial_summation.py":
        "f2630a0793e390f04615ce128c44e5b7508894d16f50bb7dcbc31055aad9c11b",
    "03_law_checking.py":
        "31a4d6140b7118c36ba4a4505cadd06bdd8ce801cd1255b35cfb420a6993b752",
    "04_constructions.py":
        "ba971ff8e97566bf3a0ed6e0f2637ca6532259fcb497965e31c37bc66840bc8f",
    "05_free_strong_quotient.py":
        "167d82a5849864238379e76465a8180f39e93ff73d5171f0895b7f961900ee29",
    "06_net_summation.py":
        "64436c2a6f44f0bb751c4c10d1bbc09638acb595e8ab9f08ebf34d98f4a5c097",
}


def test_every_demo_has_a_pinned_digest():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                              env=env, cwd=ROOT, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.strip()
        digest = hashlib.sha256(done.stdout).hexdigest()
        assert digest == STDOUT_SHA256[demo.name], (seed, done.stdout.decode())
