"""Shared pytest plumbing: surfaces acceptance verdicts in the summary, and
re-runs tests with numpy's AVX2/FMA dispatch off."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

acceptance_lines = []  # appended by test_acceptance._verdict


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


# the AVX2/FMA-and-up dispatch targets under the names of numpy 2.4 (X86_V3 ...) and of earlier
# 2.x releases (AVX2 ...); an unknown name is at most a warning, so the re-run first checks that
# no such target is left on
SIMD_OFF = ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR FMA3 AVX2 AVX512F AVX512CD "
            "AVX512_KNL AVX512_KNM AVX512_SKX AVX512_CLX AVX512_CNL")
LEFT_ON = """
from numpy._core import _multiarray_umath as m
below = {"SSSE3", "SSE41", "POPCNT", "SSE42", "AVX", "F16C"}  # no AVX2, no FMA
print(*(f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f) and f not in below))
"""


@pytest.fixture
def rerun_without_simd():
    """A function that runs pytest on its arguments in a subprocess with numpy's
    AVX2/FMA dispatch off and asserts that it passes; skips inside such a re-run
    and where numpy cannot turn that dispatch off."""
    if "NPY_DISABLE_CPU_FEATURES" in os.environ:
        pytest.skip("this is the re-run")
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if "AVX2" not in umath.__cpu_features__ or {"AVX2", "FMA3", "X86_V3"} & set(umath.__cpu_baseline__):
        pytest.skip("numpy cannot turn its AVX2/FMA dispatch off here")
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": SIMD_OFF, "PYTHONPATH": path}
    left = subprocess.run([sys.executable, "-c", LEFT_ON], capture_output=True, text=True, env=env, check=True)
    assert left.stdout.split() == [], "dispatch targets from AVX2 and FMA up left on"

    def rerun(*args):
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
        proc = subprocess.run(command, capture_output=True, text=True, env=env, cwd=root)
        assert proc.returncode == 0, proc.stdout[-3000:]

    return rerun
