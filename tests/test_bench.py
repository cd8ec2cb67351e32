"""The benchmark's self-test runs every workload on tiny inputs against the
library in this checkout and requires each deliberately wrong result to be
rejected, so a library change that breaks the benchmark fails here."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    done = subprocess.run([sys.executable, "bench/run.py", "--self-test"],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-test passed"
