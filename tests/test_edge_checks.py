"""The budget-edge module's shared oracles on tiny inputs, so that a broken
helper fails in tier-1 and not first in the slow run of ``edge_checks.py``."""

import numpy as np

from edge_checks import explicit_sums, refused
from qscatter import io
from qscatter.spectrometer import spectral_density, structure_function


def test_explicit_sums_match_both_fourier_routes():
    # Eigenphases off the counter labels, so that every bin has weight.
    phi = np.array([0.3, 1.7, -2.2, 4.0])
    u = np.diag(np.exp(1j * phi))
    density, structure = explicit_sums(phi, 8)
    np.testing.assert_allclose(density, spectral_density(u, 3).bins, rtol=0, atol=1e-13)
    np.testing.assert_allclose(structure, structure_function(u, 3).bins, rtol=0, atol=1e-13)


def test_refused_reads_a_negative_eigenvalue_refusal_and_only_that(tmp_path):
    io.save_matrix(tmp_path / "u.json", np.eye(4))
    io.save_matrix(tmp_path / "bad.json", np.diag([0.5, 0.4, 0.2, -0.1]))
    io.save_matrix(tmp_path / "good.json", np.diag([0.4, 0.3, 0.2, 0.1]))
    args = ["scatter", "--u", str(tmp_path / "u.json"), "--rho"]
    ok, detail = refused([*args, str(tmp_path / "bad.json")], "negative eigenvalue")
    assert ok, detail
    assert "negative eigenvalue -1" in detail
    ok, detail = refused([*args, str(tmp_path / "good.json")], "negative eigenvalue")
    assert not ok and detail.startswith("exit 0,"), detail
