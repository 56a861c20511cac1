"""Command-line interface: documents, commands, exit codes, determinism."""

import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qincompat.cli import build_parser, main
from qincompat.core import ObservableBasis
from qincompat.errors import CrossCheckError, InvariantViolationError

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

    def test_parse_error_exit_code(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["measure", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
        # every document command fails closed on bytes that are not UTF-8 and
        # on arrays that hold anything but JSON numbers, in equal lengths
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"version": "1", "note": "caf\xe9"}')
        paths = [str(latin1)]
        string_pairs = [[["0.5", "0"], ["0", "0"]], [["0", "0"], ["0.5", "0"]]]
        for i, (key, value) in enumerate(
            [
                ("x_eigenvalues", ["a", 1]),
                ("y_eigenvalues", {"a": 1}),
                ("x_eigenvalues", [[1], 2]),
                ("x_eigenvalues", ["1", "2e0"]),
                ("x_eigenvalues", [True, False]),
                ("y_eigenvalues", [1, None]),
                ("x_basis", string_pairs),
                ("y_basis", [[[1, 0], [0, 0]], [[0, 0], [1]]]),
            ]
        ):
            paths.append(
                write_document(
                    tmp_path / f"eigs{i}.json", 2, np.eye(2) / 2, np.eye(2), np.eye(2), **{key: value}
                )
            )
        doc = json.loads(Path(paths[1]).read_text())
        doc["rho"] = string_pairs
        (tmp_path / "rho-strings.json").write_text(json.dumps(doc))
        paths.append(str(tmp_path / "rho-strings.json"))
        for path in paths:
            for command in ("measure", "sweep", "protocol", "bloch"):
                assert main([command, path]) == 2
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1

        def unreadable(*args, **kwargs):
            raise PermissionError(13, "Permission denied", args[0])

        monkeypatch.setattr("qincompat.cli.open", unreadable, raising=False)
        assert main(["measure", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")

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

    def test_invariant_violation_exits_three_from_every_document_command(self, tmp_path, capsys):
        # the x basis passes the Gram check (deviation 9.8e-11), but the Born
        # probabilities of the uniform superposition sum to 1 + 1.5e-9
        d = 16
        x_cols = np.eye(d) + 4.9e-11 * (np.ones((d, d)) - np.eye(d))
        ket = np.ones(d) / math.sqrt(d)
        doc = write_document(
            tmp_path / "skewed.json",
            d,
            np.outer(ket, ket),
            x_cols,
            ObservableBasis.fourier(d).vectors,
        )
        for command in ("measure", "sweep", "protocol"):
            assert main([command, doc]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: invariant violation: ") and err.count("\n") == 1

    def test_every_subcommand_declares_its_failure_code(self):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, subparser in subparsers.choices.items():
            assert isinstance(subparser.get_default("failure"), int), name

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

    # one table in main: an invariant violation exits 3 from every subcommand,
    # any other ValueError or ArithmeticError exits with the subcommand's code
    @pytest.mark.parametrize(
        "command, target, code",
        [
            ("measure", "incompatibility_report", 5),
            ("protocol", "stinespring_ledger", 5),
            ("mub", "maximize_incompatibility", 6),
            ("bloch", "basis_to_bloch_frame", 7),
        ],
    )
    @pytest.mark.parametrize(
        "error, prefix",
        [
            (ValueError("plain value error"), "error: "),
            (InvariantViolationError("broken invariant"), "error: invariant violation: "),
        ],
        ids=["value", "invariant"],
    )
    def test_exit_code_table(
        self, mub_eigenstate_doc, command, target, code, error, prefix, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"qincompat.cli.{target}", fail)
        argv = ["mub", "--dim", "2"] if command == "mub" else [command, mub_eigenstate_doc]
        expected = 3 if isinstance(error, InvariantViolationError) else code
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prefix}{error}\n"


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

    @pytest.mark.parametrize("state", ["mub_eigenstate", "zero_info"])
    def test_zeros_print_without_sign(self, tmp_path, state, capsys):
        # the exact zeros of these geometries come out of the sums as rounding
        # noise of either sign
        d = 3
        ket = np.eye(d)[0] if state == "mub_eigenstate" else np.ones(d) / math.sqrt(d)
        doc = write_document(
            tmp_path / f"{state}.json", d, np.outer(ket, ket), np.eye(d), ObservableBasis.fourier(d).vectors
        )
        assert main(["bloch", doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        leaves = np.concatenate([np.ravel(value) for value in payload.values()])
        zeros = leaves[leaves == 0.0]
        assert zeros.size > 0
        assert not np.signbit(zeros).any()

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


class TestReadmeExample:
    ROOT = Path(__file__).resolve().parents[1]
    EXAMPLE = ROOT / "examples" / "context-d2.json"
    # the exact stdout of each command on the example
    STDOUT = {
        "measure": (
            '{"i_context": 0.69314718056, "i_initial": 0.69314718056, '
            '"i_final": 0.0, "ratio": 1.0, "m_measurement": 1.0, '
            '"classification": "RESOURCEFUL"}\n'
        ),
        "sweep": (
            "epsilon,i_initial,i_final,ratio\n"
            "0.0001,5.00000000833e-09,0.0,1.0\n"
            "0.000162377673919,1.31832545516e-08,0.0,1.0\n"
            "0.000263665089873,3.47596402116e-08,0.0,1.0\n"
            "0.000428133239872,9.16490383414e-08,0.0,1.0\n"
            "0.000695192796178,2.41646531393e-07,0.0,1.0\n"
            "0.00112883789168,6.37137628166e-07,0.0,1.0\n"
            "0.00183298071083,1.67991008384e-06,0.0,1.0\n"
            "0.00297635144163,4.42934049174e-06,0.0,1.0\n"
            "0.00483293023857,1.16786528092e-05,0.0,1.0\n"
            "0.00784759970351,3.07927266186e-05,0.0,1.0\n"
            "0.012742749857,8.11910343112e-05,0.0,1.0\n"
            "0.0206913808111,0.000214081897392,0.0,1.0\n"
            "0.0335981828628,0.000564525183402,0.0,1.0\n"
            "0.0545559478117,0.00148891482343,0.0,1.0\n"
            "0.088586679041,0.00392894809801,0.0,1.0\n"
            "0.143844988829,0.0103816667804,0.0,1.0\n"
            "0.233572146909,0.0275315795502,0.0,1.0\n"
            "0.379269019073,0.0737543923494,0.0,1.0\n"
            "0.615848211066,0.203928109444,0.0,1.0\n"
            "1.0,0.69314718056,0.0,1.0\n"
        ),
        "protocol": (
            '{"i_initial": 0.69314718056, "i_final": 0.0, '
            '"delta_apparatus": -0.69314718056, "mutual_info": 1.38629436112}\n'
        ),
        "bloch": (
            '{"r": [0.0, 0.0, 1.0], "u": [0.0, 0.0, 1.0], "v": [0.0, 0.0, 0.0], '
            '"x_frame": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], '
            '"y_frame": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], '
            '"xx_dots": [[1.0, -1.0], [-1.0, 1.0]], '
            '"yy_dots": [[1.0, -1.0], [-1.0, 1.0]], '
            '"xy_dots": [[0.0, 0.0], [0.0, 0.0]]}\n'
        ),
    }

    def test_readme_shows_the_example_file(self):
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert block == self.EXAMPLE.read_text(encoding="utf-8")

    @pytest.mark.parametrize("command", ["measure", "sweep", "protocol", "bloch"])
    def test_example_is_accepted(self, command, capsys):
        assert main([command, str(self.EXAMPLE)]) == 0
        assert capsys.readouterr().out == self.STDOUT[command]
