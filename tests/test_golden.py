"""Every golden trace still comes out as ``golden_traces.txt`` holds it.

The file, written by ``tests/make_golden.py``, holds v at every 8th tau of
the three presets on the average-Hamiltonian engine, the ideal
average-Hamiltonian echo on nc60's three lines (both held at 1e-12 of
max|v|), the three presets as shipped on the exact engine, each averaged
with ``shared_b1`` false and true, and the ideal stepped-rotating-frame
echo on nc60's three lines (both held at 1e-8, the tolerance of the
40-digit fixture, since the phase roundoff of the engines that
diagonalize differs between LAPACK builds).

Regenerating the file changes test data: only an issue that names the
arrays that move, and by how much, may regenerate it, and its change
records the largest deviation before and after.
"""

import numpy as np
import pytest

from make_golden import EVERY, OUT, arrays

with open(OUT) as fh:
    NAMES = fh.readlines()[1].split()[2:]  # "# tau_s name ..."
GOLDEN = np.loadtxt(OUT)


@pytest.fixture(scope="module")
def computed():
    return arrays()


def test_golden_file_holds_every_array(computed):
    assert NAMES == list(computed)
    assert GOLDEN.shape == (512 // EVERY, 1 + len(NAMES))
    assert OUT.stat().st_size < 50_000
    for tau, _, _ in computed.values():
        assert np.array_equal(GOLDEN[:, 0], tau[::EVERY])


@pytest.mark.parametrize("name", NAMES)
def test_trace_matches_the_golden_file(computed, name):
    _, v, tol = computed[name]
    want = GOLDEN[:, 1 + NAMES.index(name)]
    assert np.abs(v[::EVERY] - want).max() <= tol * np.abs(want).max()
