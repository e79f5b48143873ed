"""Tests for file formats and fixed-width rendering."""

import json

import numpy as np
import pytest

from qscatter import io
from qscatter.errors import InputFormatError
from qscatter.phasespace import wigner_direct
from qscatter.scattering import scattering_circuit
from qscatter.spectrometer import spectral_density
from qscatter.states import basis_state, maximally_mixed
from reference import random_density_matrix, random_unitary


class TestNumberFormat:
    def test_twelve_significant_digits(self):
        assert io.fmt(1 / 3) == "0.333333333333"
        assert io.fmt(0.125) == "0.125"
        assert io.fmt(-1.0) == "-1"
        assert io.fmt(1.23456789012345e-7) == "1.23456789012e-07"

    def test_round12_is_idempotent(self):
        x = 0.1234567890123456
        assert io.round12(io.round12(x)) == io.round12(x)


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        m = random_unitary(4, np.random.default_rng(3))
        path = tmp_path / "u.json"
        io.save_matrix(path, m)
        assert np.array_equal(io.load_matrix(path), m)

    def test_payload_shape(self):
        payload = io.matrix_to_payload(np.eye(2))
        assert payload == {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"dim": 2},
            {"dim": 2, "entries": [[1, 0]]},
            {"dim": "x", "entries": []},
            {"dim": 0, "entries": []},
            {"dim": 1, "entries": [[np.inf, 0]]},
            {"dim": 1, "entries": [["a", "b"]]},
            {"dim": 2.7, "entries": [[1, 0]] * 4},
            {"dim": "2", "entries": [[1, 0]] * 4},
            {"dim": True, "entries": [[1, 0]]},
            {"dim": 1, "entries": [[True, False]]},
            {"dim": 1, "entries": [[1, 0, 0]]},
        ],
    )
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(InputFormatError):
            io.matrix_from_payload(payload)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError, match="cannot read"):
            io.load_matrix(tmp_path / "absent.json")

    def test_unparsable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(InputFormatError, match="not valid JSON"):
            io.load_matrix(path)


class TestGridRendering:
    def test_csv_layout_row_major(self):
        grid = wigner_direct(basis_state(0, 2))
        text = io.wigner_csv(grid)
        lines = text.strip().splitlines()
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 16
        # q is the outer loop
        assert lines[1].startswith("0,0,")
        assert lines[2].startswith("0,1,")
        assert lines[5].startswith("1,0,")

    def test_csv_parses_back_to_the_same_values(self):
        grid = wigner_direct(random_density_matrix(4, np.random.default_rng(8)))
        rows = io.wigner_csv(grid).strip().splitlines()[1:]
        rebuilt = np.zeros((8, 8))
        for row in rows:
            q, p, w = row.split(",")
            rebuilt[int(q), int(p)] = float(w)
        assert np.abs(rebuilt - grid.values).max() < 1e-12

    def test_json_values_round12(self):
        grid = wigner_direct(maximally_mixed(2))
        payload = json.loads(io.wigner_json(grid))
        assert payload["n"] == 2
        assert payload["values"][0][0] == 0.25
        assert len(payload["values"]) == 4

    def test_ascii_fixed_ramp(self):
        grid = wigner_direct(basis_state(0, 4))
        art = io.wigner_ascii(grid)
        rows = art.strip("\n").split("\n")
        assert len(rows) == 8
        assert all(len(r) == 8 for r in rows)
        assert set("".join(rows)) <= set(io.ASCII_RAMP)
        # the flat strip saturates the ramp, the zero rows sit mid-ramp
        assert rows[0] == "@" * 8
        assert rows[4] == "@ @ @ @ "
        assert rows[1] == "=" * 8

    def test_point_csv(self):
        assert io.wigner_point_csv(3, 5, 0.125) == "q,p,w\n3,5,0.125\n"


class TestSpectrumRendering:
    def test_csv_header_and_length(self):
        s = spectral_density(np.eye(2), 3)
        lines = io.spectrum_csv(s).strip().splitlines()
        assert lines[0] == "E,phi,g"
        assert len(lines) == 9
        assert lines[1] == "0,0,1"

    def test_json_fields(self):
        s = spectral_density(np.diag([1.0, -1.0]), 3)
        payload = json.loads(io.spectrum_json(s))
        assert payload["n1"] == 3
        assert payload["t_max"] == 7
        assert payload["phase_multiple"] == 2
        assert payload["E"] == list(range(8))
        assert payload["g"] == [0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0]


def test_scatter_json_fields():
    res = scattering_circuit(basis_state(0, 2), 1j * np.eye(2))
    payload = json.loads(io.scatter_json(res))
    assert payload["sigma_z"] == pytest.approx(0.0, abs=1e-12)
    assert payload["sigma_x"] == pytest.approx(-1.0)
    assert payload["re_trace"] == pytest.approx(0.0, abs=1e-12)
    assert payload["im_trace"] == pytest.approx(1.0)
