"""Command-line interface: documents, commands, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from qincompat.cli import main
from qincompat.errors import CrossCheckError

from _util import encode_matrix, qubit_basis, write_document

LN2 = math.log(2.0)


@pytest.fixture
def mub_eigenstate_doc(tmp_path):
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    return write_document(
        tmp_path / "ctx.json", 2, np.diag([1.0, 0.0]), np.eye(2), hadamard
    )


@pytest.fixture
def commuting_doc(tmp_path):
    return write_document(
        tmp_path / "comm.json",
        2,
        np.diag([0.7, 0.3]),
        np.eye(2),
        np.eye(2)[:, [1, 0]],
    )


@pytest.fixture
def mixed_doc(tmp_path):
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    return write_document(
        tmp_path / "mixed.json", 2, np.eye(2) / 2, np.eye(2), hadamard
    )


class TestMeasureCommand:
    def test_mub_eigenstate(self, mub_eigenstate_doc, capsys):
        assert main(["measure", mub_eigenstate_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert f"{payload['i_context']:.4f}" == "0.6931"
        assert payload["i_initial"] == pytest.approx(LN2, abs=1e-10)
        assert payload["i_final"] == pytest.approx(0.0, abs=1e-10)
        assert payload["ratio"] == pytest.approx(1.0, abs=1e-10)
        assert payload["m_measurement"] == pytest.approx(1.0, abs=1e-10)
        assert payload["classification"] == "RESOURCEFUL"

    def test_commuting_context(self, commuting_doc, capsys):
        assert main(["measure", commuting_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "FREE_COMMUTING"
        assert payload["i_context"] == pytest.approx(0.0, abs=1e-10)
        assert payload["ratio"] == pytest.approx(0.0, abs=1e-10)
        assert payload["m_measurement"] == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_ratio_is_null(self, mixed_doc, capsys):
        assert main(["measure", mixed_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] is None
        assert payload["ratio_reason"] == "ZERO_INFO"
        assert payload["classification"] == "FREE_ZERO_INFO"

    def test_bits_flag(self, mub_eigenstate_doc, capsys):
        assert main(["--bits", "measure", mub_eigenstate_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["i_context"] == pytest.approx(1.0, abs=1e-10)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["measure", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_invariant_violation_exit_code(self, tmp_path, capsys):
        doc = write_document(
            tmp_path / "nonpsd.json",
            2,
            np.array([[1.3, 0.0], [0.0, -0.3]]),
            np.eye(2),
            np.eye(2)[:, [1, 0]],
        )
        assert main(["measure", doc]) == 3
        assert "negative eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measure", "sweep", "protocol", "bloch"])
    def test_nan_in_state_is_an_invariant_violation(self, tmp_path, command, capsys):
        rho = np.array([[0.5, math.nan], [math.nan, 0.5]])
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        doc = write_document(tmp_path / "nan.json", 2, rho, np.eye(2), hadamard)
        assert main([command, doc]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invariant violation")

    def test_nan_eigenvalue_is_an_invariant_violation(self, tmp_path, capsys):
        doc = write_document(
            tmp_path / "nan_eigs.json",
            2,
            np.diag([0.6, 0.4]),
            np.eye(2),
            np.eye(2)[:, [1, 0]],
            x_eigenvalues=[math.nan, 2.0],
        )
        assert main(["measure", doc]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invariant violation")

    def test_missing_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"version": "1", "dim": 2}))
        assert main(["measure", str(path)]) == 2
        assert "rho" in capsys.readouterr().err


class TestSweepCommand:
    def test_commuting_ratio_column_zero(self, commuting_doc, capsys):
        assert main(["sweep", commuting_doc, "--eps-grid", "log:1e-4:1:20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epsilon,i_initial,i_final,ratio"
        assert len(lines) == 21
        for line in lines[1:]:
            assert abs(float(line.split(",")[3])) <= 1e-9

    def test_orthogonal_qubit_ratio_column_one(self, tmp_path, capsys):
        doc = write_document(
            tmp_path / "orth.json",
            2,
            np.diag([1.0, 0.0]),
            np.eye(2),
            qubit_basis(math.pi / 2).vectors,
        )
        assert main(["sweep", doc, "--eps-grid", "log:1e-4:1:10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-9)

    def test_linear_grid_row_count(self, mub_eigenstate_doc, capsys):
        assert main(["sweep", mub_eigenstate_doc, "--eps-grid", "lin:0.1:0.9:7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8

    @pytest.mark.parametrize(
        "spec",
        [
            "geometric:1:2:3",
            "log:1e-4:1",
            "log:0:1:5",
            "lin:0.5:0.1:5",
            "log:a:b:5",
            "log:1e-4:nan:3",
            "lin:nan:nan:3",
            "log:1e-4:2:3",
            "lin:0.5:inf:3",
        ],
    )
    def test_malformed_grid_exit_code(self, mub_eigenstate_doc, spec, capsys):
        assert main(["sweep", mub_eigenstate_doc, "--eps-grid", spec]) == 4

    def test_zero_information_exit_code(self, mixed_doc, capsys):
        assert main(["sweep", mixed_doc]) == 5

    def test_repeated_sweeps_are_byte_identical(self, mub_eigenstate_doc, capsys):
        main(["sweep", mub_eigenstate_doc])
        first = capsys.readouterr().out
        main(["sweep", mub_eigenstate_doc])
        assert capsys.readouterr().out == first


class TestNumericalFailures:
    # a failed cross-check or eigensolver is reported, never a traceback
    @pytest.mark.parametrize(
        "command, target",
        [("measure", "incompatibility_report"), ("sweep", "noise_sweep")],
    )
    @pytest.mark.parametrize(
        "error",
        [
            CrossCheckError("incompatibility forms disagree"),
            np.linalg.LinAlgError("Eigenvalues did not converge"),
        ],
        ids=["cross-check", "eigh"],
    )
    def test_exit_code_five(
        self, mub_eigenstate_doc, command, target, error, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"qincompat.cli.{target}", fail)
        assert main([command, mub_eigenstate_doc]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


class TestProtocolCommand:
    def test_maximally_mixed_ledger_consumes_nothing(self, mixed_doc, capsys):
        assert main(["protocol", mixed_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["i_initial"] == pytest.approx(0.0, abs=1e-10)
        assert payload["i_final"] == pytest.approx(0.0, abs=1e-10)
        assert payload["delta_apparatus"] + payload["mutual_info"] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_mub_eigenstate_ledger(self, mub_eigenstate_doc, capsys):
        assert main(["protocol", mub_eigenstate_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["i_initial"] == pytest.approx(LN2, abs=1e-10)
        assert payload["delta_apparatus"] + payload["mutual_info"] == pytest.approx(
            LN2, abs=1e-9
        )


class TestMubCommand:
    def test_qubit_search_certifies(self, capsys):
        assert main(["mub", "--dim", "2", "--restarts", "5", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified_mub"] is True
        assert payload["objective"] == pytest.approx(1.0, abs=1e-10)
        assert payload["seed"] == 7

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("QINCOMPAT_SEED", "13")
        assert main(["mub", "--dim", "2", "--restarts", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 13

    @pytest.mark.parametrize("dim", ["17", "5000"])
    def test_dimension_above_documented_range(self, dim, capsys, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("the search was reached")

        monkeypatch.setattr("qincompat.cli.maximize_incompatibility", search)
        monkeypatch.setattr("qincompat.cli.SearchConfig", search)
        assert main(["mub", "--dim", dim]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --dim must lie in 2..16, got {dim}\n"

    def test_non_integer_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("QINCOMPAT_SEED", "abc")
        assert main(["mub", "--dim", "2", "--restarts", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: QINCOMPAT_SEED must be an integer, got 'abc'\n"


class TestBlochCommand:
    def test_qubit_computational_frame(self, mub_eigenstate_doc, capsys):
        assert main(["bloch", mub_eigenstate_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x_frame"][0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert payload["x_frame"][1] == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)
        assert payload["r"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert payload["u"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert payload["v"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert payload["xx_dots"][0][1] == pytest.approx(-1.0, abs=1e-12)

    def test_repeated_runs_are_byte_identical(self, mub_eigenstate_doc, capsys):
        main(["bloch", mub_eigenstate_doc])
        first = capsys.readouterr().out
        main(["bloch", mub_eigenstate_doc])
        second = capsys.readouterr().out
        assert first == second


class TestDocumentValidation:
    def test_wrong_version_rejected(self, tmp_path, capsys):
        path = tmp_path / "v2.json"
        path.write_text(
            json.dumps(
                {
                    "version": "2",
                    "dim": 2,
                    "rho": encode_matrix(np.eye(2) / 2),
                    "x_basis": encode_matrix(np.eye(2)),
                    "y_basis": encode_matrix(np.eye(2)[:, [1, 0]]),
                }
            )
        )
        assert main(["measure", str(path)]) == 2

    def test_custom_eigenvalues_accepted(self, tmp_path, capsys):
        doc = write_document(
            tmp_path / "eigs.json",
            2,
            np.diag([0.6, 0.4]),
            np.eye(2),
            np.eye(2)[:, [1, 0]],
            x_eigenvalues=[-1.0, 1.0],
            y_eigenvalues=[0.5, -0.5],
        )
        assert main(["measure", doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "FREE_COMMUTING"

    def test_degenerate_eigenvalues_rejected(self, tmp_path, capsys):
        doc = write_document(
            tmp_path / "degen.json",
            2,
            np.diag([0.6, 0.4]),
            np.eye(2),
            np.eye(2)[:, [1, 0]],
            x_eigenvalues=[1.0, 1.0],
        )
        assert main(["measure", doc]) == 3
        assert "degenerate" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["measure", str(tmp_path / "absent.json")]) == 2
