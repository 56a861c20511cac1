"""Each checker of the benchmark accepts the program's output and rejects a
corrupted copy of it: an entry off by 1e-6, a NaN in the JSON, a wrong exit
code, a traceback.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import qincompat  # noqa: E402
from qincompat import cli  # noqa: E402
from reference import (  # noqa: E402
    CheckError,
    Reference,
    check_cli_bloch,
    check_cli_measure,
    check_cli_mub,
    check_cli_protocol,
    check_cli_rejected,
    check_cli_sweep,
    check_ledger,
    check_report,
    check_search,
    check_sweep,
)
from workloads import context_arrays, context_document  # noqa: E402

OFF = 1e-6
GRID = np.logspace(-4.0, 0.0, 20)


@pytest.fixture(scope="module", params=[("mixed", 2), ("pure", 4), ("commuting", 3)])
def context(request):
    kind, d = request.param
    rho, x, y = context_arrays(kind, d, np.random.default_rng(7))
    ctx = qincompat.Context(
        qincompat.DensityMatrix(rho), qincompat.ObservableBasis(x), qincompat.ObservableBasis(y)
    )
    return rho, x, y, Reference.from_arrays(rho, x, y), ctx


def run_cli(argv) -> subprocess.CompletedProcess:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def altered(proc, stdout=None, returncode=None, stderr=None) -> subprocess.CompletedProcess:
    return subprocess.CompletedProcess(
        proc.args,
        proc.returncode if returncode is None else returncode,
        proc.stdout if stdout is None else stdout,
        proc.stderr if stderr is None else stderr,
    )


def test_report_checker(context):
    *_, ref, ctx = context
    report = qincompat.incompatibility_report(ctx)
    check_report(ref, report)
    for field in ("i_context", "i_initial", "i_final", "m_measurement", "ratio"):
        with pytest.raises(CheckError, match=field):
            check_report(ref, dataclasses.replace(report, **{field: getattr(report, field) + OFF}))
    with pytest.raises(CheckError, match="i_initial"):
        check_report(ref, dataclasses.replace(report, i_initial=float("nan")))
    wrong = qincompat.ContextClass.FREE_ZERO_INFO
    with pytest.raises(CheckError, match="classification"):
        check_report(ref, dataclasses.replace(report, classification=wrong))


def test_ledger_checker(context):
    *_, ref, ctx = context
    ledger = qincompat.stinespring_ledger(ctx)
    check_ledger(ref, ledger)
    fields = dict(vars(ledger))
    for field in fields:
        with pytest.raises(CheckError):
            check_ledger(ref, SimpleNamespace(**dict(fields, **{field: fields[field] + OFF})))


def test_sweep_checker(context):
    *_, ref, ctx = context
    points = qincompat.noise_sweep(ctx, GRID)
    check_sweep(ref, GRID, points)
    for field in ("i_initial_eps", "i_final_eps", "ratio_eps"):
        bad = list(points)
        bad[3] = dataclasses.replace(bad[3], **{field: getattr(bad[3], field) + OFF})
        with pytest.raises(CheckError):
            check_sweep(ref, GRID, bad)
    with pytest.raises(CheckError):
        check_sweep(ref, GRID, points[:-1])


@pytest.mark.parametrize("dim", [2, 3])
def test_search_checker(dim):
    config = qincompat.SearchConfig(dim=dim, restarts=20, tol_mub=1e-6, seed=3)
    result = qincompat.maximize_incompatibility(qincompat.ObservableBasis.computational(dim), config)
    check_search(result, dim, config.restarts, config.tol_mub)
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    with pytest.raises(CheckError, match="objective"):
        check_search(SimpleNamespace(**dict(fields, objective=result.objective - OFF)), dim, 20, 1e-6)
    flipped = SimpleNamespace(**dict(fields, certified_mub=not result.certified_mub))
    with pytest.raises(CheckError, match="certified_mub"):
        check_search(flipped, dim, 20, 1e-6)
    descending = result.trajectory + ((len(result.trajectory), result.trajectory[-1][1] - OFF),)
    with pytest.raises(CheckError):
        check_search(SimpleNamespace(**dict(fields, trajectory=descending)), dim, 20, 1e-6)


def bump_first_number(text: str, key: str) -> str:
    """Raise the value printed for ``key`` by 1e-6, keeping all else."""
    payload = json.loads(text)
    value = payload[key]
    payload[key] = [[value[0][0] + OFF] + value[0][1:]] + value[1:] if isinstance(value, list) else value + OFF
    return json.dumps(payload)


def with_nan(text: str, key: str) -> str:
    payload = json.loads(text)
    payload[key] = float("nan")
    return json.dumps(payload)


@pytest.fixture(scope="module")
def documents(context, tmp_path_factory):
    rho, x, y, ref, _ = context
    path = tmp_path_factory.mktemp("docs") / "ctx.json"
    path.write_text(json.dumps(context_document(rho, x, y)), encoding="utf-8")
    return rho, ref, str(path)


def test_cli_json_checkers(documents):
    rho, ref, path = documents
    cases = (
        ("measure", lambda p: check_cli_measure(ref, p), "m_measurement"),
        ("protocol", lambda p: check_cli_protocol(ref, p), "mutual_info"),
        ("bloch", lambda p: check_cli_bloch(ref, rho, p), "xy_dots"),
    )
    for command, check, key in cases:
        proc = run_cli([command, path])
        check(proc)
        with pytest.raises(CheckError):
            check(altered(proc, stdout=bump_first_number(proc.stdout, key)))
        with pytest.raises(CheckError, match="NaN"):
            check(altered(proc, stdout=with_nan(proc.stdout, key)))
        with pytest.raises(CheckError, match="exit code"):
            check(altered(proc, returncode=1))
        with pytest.raises(CheckError, match="traceback"):
            check(altered(proc, stderr="Traceback (most recent call last):\n"))


def test_cli_sweep_checker(documents):
    rho, ref, path = documents
    proc = run_cli(["sweep", path])
    check_cli_sweep(ref, GRID, proc)
    lines = proc.stdout.splitlines()
    for column, value in enumerate(("1", OFF, OFF, OFF)):
        row = lines[5].split(",")
        row[column] = "nan" if column == 0 else repr(float(row[column]) + value)
        bad = "\n".join(lines[:5] + [",".join(row)] + lines[6:])
        with pytest.raises(CheckError):
            check_cli_sweep(ref, GRID, altered(proc, stdout=bad))
    with pytest.raises(CheckError, match="exit code"):
        check_cli_sweep(ref, GRID, altered(proc, returncode=5))


def test_cli_mub_checker():
    proc = run_cli(["mub", "--dim", "2", "--seed", "4"])
    check_cli_mub(4, 20, proc)
    with pytest.raises(CheckError, match="seed"):
        check_cli_mub(5, 20, proc)
    below = dict(json.loads(proc.stdout), objective=1.0 - 2 * OFF)
    with pytest.raises(CheckError, match="objective"):
        check_cli_mub(4, 20, altered(proc, stdout=json.dumps(below)))
    with pytest.raises(CheckError, match="NaN"):
        check_cli_mub(4, 20, altered(proc, stdout=with_nan(proc.stdout, "objective")))
    with pytest.raises(CheckError, match="exit code"):
        check_cli_mub(4, 20, altered(proc, returncode=6))


def test_rejection_checker(tmp_path):
    rho, x, y = context_arrays("mixed", 2, np.random.default_rng(1))
    rho[0, 1] += 0.1
    path = tmp_path / "non-hermitian.json"
    path.write_text(json.dumps(context_document(rho, x, y)), encoding="utf-8")
    proc = run_cli(["measure", str(path)])
    check_cli_rejected((3,), "Hermitian", proc)
    with pytest.raises(CheckError, match="exit code"):
        check_cli_rejected((2,), "Hermitian", proc)
    with pytest.raises(CheckError, match="exit code"):
        check_cli_rejected((3,), "Hermitian", altered(proc, returncode=0))
    with pytest.raises(CheckError, match="traceback"):
        check_cli_rejected((3,), "Hermitian", altered(proc, stderr="Traceback (most recent call last):\n"))
    with pytest.raises(CheckError, match="printed output"):
        check_cli_rejected((3,), "Hermitian", altered(proc, stdout='{"ratio": NaN}'))
    with pytest.raises(CheckError, match="does not name"):
        check_cli_rejected((3,), "positive", proc)
