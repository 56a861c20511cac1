"""The benchmark's workloads: inputs made from a seed, rounds of operations,
and the check of every output against ``reference``.

A workload generates all its inputs in ``setup``; ``run_round(index)`` runs
one round of operations on the inputs of that index and returns one
``Outcome`` per operation. Every round of a workload runs the same cases in
the same order, so the share of failed operations does not depend on how many
rounds a run fits in.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qincompat
from qincompat import cli as qcli
from reference import (
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

CLI_EXIT_CODES = (2, 3, 4, 5, 6, 7)
SUBPROCESS_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Outcome:
    """One operation: its case, its latency and, if it failed, why."""

    case: str
    seconds: float
    error: str | None = None


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # an operation that raises has failed; the run goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, value, None


def _checked(case: str, seconds: float, error: str | None, check, *args) -> Outcome:
    if error is None:
        try:
            check(*args)
        except CheckError as exc:
            error = str(exc)
        except Exception as exc:  # output too malformed for the check to read
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    return Outcome(case, seconds, error)


# --- inputs ----------------------------------------------------------------


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def fourier(d: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / math.sqrt(d)


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _pure(ket: np.ndarray) -> np.ndarray:
    ket = ket / np.linalg.norm(ket)
    return _hermitian(np.outer(ket, ket.conj()))


def _mixed(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return _hermitian(m / np.trace(m).real)


def context_arrays(kind: str, d: int, rng: np.random.Generator):
    """(rho, x, y) of one context; x and y hold eigenvectors as columns.

    ``commuting`` reorders the first basis, so T is a permutation;
    ``zero_info`` is a pure state unbiased to the first basis, so p is uniform;
    ``mub_eigenstate`` is an eigenstate of the first basis of a MUB pair.
    """
    x = haar_unitary(d, rng)
    if kind == "mixed":
        return _mixed(d, rng), x, haar_unitary(d, rng)
    if kind == "pure":
        ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return _pure(ket), x, haar_unitary(d, rng)
    if kind == "commuting":
        return _mixed(d, rng), x, x[:, rng.permutation(d)]
    if kind == "zero_info":
        phases = np.exp(2j * np.pi * rng.uniform(size=d))
        return _pure(x @ phases), x, haar_unitary(d, rng)
    if kind == "mub_eigenstate":
        return _pure(x[:, rng.integers(d)]), x, x @ fourier(d)
    raise ValueError(f"unknown context kind {kind!r}")


# --- contexts --------------------------------------------------------------


class Contexts:
    """Batch analysis through the library, one context per case per round."""

    name = "contexts"
    in_process = True
    min_rounds = 1
    known_faults: frozenset[str] = frozenset()
    DIMS = (2, 4, 8, 16)
    KINDS = ("mixed", "pure", "commuting", "zero_info", "mub_eigenstate")
    CONTEXTS_PER_CASE = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.grid = qincompat.default_epsilon_grid()
        self.inputs = []
        for index in range(self.CONTEXTS_PER_CASE):
            batch = []
            for d in self.DIMS:
                for kind in self.KINDS:
                    rho, x, y = context_arrays(kind, d, rng)
                    batch.append((f"{kind}-d{d}", rho, x, y, Reference.from_arrays(rho, x, y)))
            self.inputs.append(batch)
        for case, rho, x, y, _ in self.inputs[0]:
            self._analyse(rho, x, y)

    def _analyse(self, rho, x, y):
        ctx = qincompat.Context(
            qincompat.DensityMatrix(rho), qincompat.ObservableBasis(x), qincompat.ObservableBasis(y)
        )
        report = qincompat.incompatibility_report(ctx)
        ledger = qincompat.stinespring_ledger(ctx)
        try:
            sweep = qincompat.noise_sweep(ctx, self.grid)
        except qincompat.ZeroInformationError:
            sweep = None
        return report, ledger, sweep

    def _check(self, ref: Reference, outputs) -> None:
        report, ledger, sweep = outputs
        check_report(ref, report)
        check_ledger(ref, ledger)
        if ref.zero_info:
            if sweep is not None:
                raise CheckError("noise_sweep did not raise ZeroInformationError on a zero-information context")
        elif sweep is not None:
            check_sweep(ref, self.grid, sweep)
        elif not ref.sweep_may_stop(self.grid):
            raise CheckError("noise_sweep raised ZeroInformationError on a context with information")

    def run_round(self, index: int) -> list[Outcome]:
        outcomes = []
        for case, rho, x, y, ref in self.inputs[index % len(self.inputs)]:
            seconds, outputs, error = _timed(self._analyse, rho, x, y)
            outcomes.append(_checked(case, seconds, error, self._check, ref, outputs))
        return outcomes

    def close(self) -> None:
        pass


# --- mub-search ------------------------------------------------------------


class MubSearch:
    """MUB searches against the computational basis, one search per operation.

    The searches at d = 2, 3 and 4 take their search seeds from the workload
    seed, several per round, because a single search's cost varies severalfold
    from seed to seed. The acceptance criterion 8 search at d = 5 keeps its
    own configuration, seed included, and runs once per round.
    """

    name = "mub-search"
    in_process = True
    # the criterion 8 search alone takes most of a 20 s run; two rounds give
    # every case, that one included, two samples
    min_rounds = 2
    known_faults: frozenset[str] = frozenset()
    # (case, dim, searches per round, config)
    SEEDED = (
        ("d2", 2, 48, dict(restarts=20, tol_mub=1e-6)),
        ("d3", 3, 8, dict(restarts=20, tol_mub=1e-6)),
        ("d4", 4, 2, dict(restarts=6, max_iters=300)),
    )
    CRITERION_8 = ("d5-criterion8", 5, dict(restarts=12, max_iters=1200, seed=0))
    SEED_POOL = 4096

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pools = {case: rng.integers(0, 2**31, size=self.SEED_POOL) for case, *_ in self.SEEDED}
        self.fixed = {d: qincompat.ObservableBasis.computational(d) for d in (2, 3, 4, 5)}
        for d, fixed in self.fixed.items():
            qincompat.maximize_incompatibility(fixed, qincompat.SearchConfig(dim=d, restarts=1, max_iters=5))

    def _one(self, case: str, dim: int, config: dict) -> Outcome:
        config = qincompat.SearchConfig(dim=dim, **config)
        seconds, result, error = _timed(qincompat.maximize_incompatibility, self.fixed[dim], config)
        return _checked(case, seconds, error, check_search, result, dim, config.restarts, config.tol_mub)

    def run_round(self, index: int) -> list[Outcome]:
        """Each seeded case spread evenly over the round and the criterion 8
        search in its middle, so that a burst of machine speed, which can
        last a second or two here, lands on a few samples of every case
        instead of on all samples of one."""
        planned = []
        for order, (case, dim, per_round, config) in enumerate(self.SEEDED):
            pool = self.pools[case]
            for i in range(per_round):
                seed = int(pool[(index * per_round + i) % len(pool)])
                planned.append(((i + 0.5) / per_round, order, case, dim, dict(config, seed=seed)))
        case, dim, config = self.CRITERION_8
        planned.append((0.5, len(self.SEEDED), case, dim, config))
        planned.sort(key=lambda plan: plan[:2])
        return [self._one(case, dim, config) for _, _, case, dim, config in planned]

    def close(self) -> None:
        pass


# --- cli -------------------------------------------------------------------


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def context_document(rho, x, y) -> dict:
    return {"version": "1", "dim": len(rho), "rho": _pairs(rho), "x_basis": _pairs(x), "y_basis": _pairs(y)}


# Fixed inputs of the two operations that fail today: a NaN in an off-diagonal
# entry of rho must be rejected, and so must a seed variable that is no integer.
NAN_DOCUMENT = {
    "version": "1",
    "dim": 2,
    "rho": [[[0.5, 0.0], [float("nan"), 0.0]], [[float("nan"), 0.0], [0.5, 0.0]]],
    "x_basis": _pairs(np.eye(2)),
    "y_basis": _pairs(fourier(2)),
}
BAD_SEED_ENV = {"QINCOMPAT_SEED": "abc"}


class Cli:
    """The ``qincompat`` command as fresh subprocesses, one at a time."""

    name = "cli"
    in_process = False
    min_rounds = 1
    known_faults = frozenset({"measure-nan-d2", "mub-bad-seed-d2"})
    DIMS = (2, 16)
    COMMANDS = ("measure", "sweep", "protocol", "bloch")
    DOCS_PER_DIM = 2
    # passes over the commands per round: several samples of each fast case
    REPEATS = 4
    MUB_DIM = 3
    MUB_RESTARTS = 20  # the command's default
    PROBE_REPEATS = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        # the subprocesses import the same source tree and inherit the pinned
        # thread settings; only the bad-seed operation sets QINCOMPAT_SEED
        src = str(Path(qincompat.__file__).resolve().parents[1])
        self.env = {k: v for k, v in os.environ.items() if k != "QINCOMPAT_SEED"}
        self.env["PYTHONPATH"] = src
        self.grid = np.logspace(-4.0, 0.0, 20)  # the command's default grid

    def _write(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.docs = {}
        for d in self.DIMS:
            for i in range(self.DOCS_PER_DIM):
                rho, x, y = context_arrays("mixed", d, rng)
                path = self._write(f"ctx-d{d}-{i}.json", context_document(rho, x, y))
                self.docs[d, i] = (path, rho, Reference.from_arrays(rho, x, y))
        rho, x, y = context_arrays("mixed", 2, rng)
        rho[0, 1] += 0.1
        self.non_hermitian = self._write("non-hermitian.json", context_document(rho, x, y))
        self.nan_doc = self._write("nan.json", NAN_DOCUMENT)
        self.mub_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.REPEATS)]
        self._run(["measure", self.docs[2, 0][0]])

    def _run(self, args: list[str], extra_env: dict[str, str] | None = None):
        env = dict(self.env, **(extra_env or {}))
        return subprocess.run(
            [sys.executable, "-m", "qincompat.cli", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=self.workdir,
            timeout=SUBPROCESS_TIMEOUT_S,
        )

    def _operations(self, index: int, repeats: int):
        """(case, argv, extra env, check, check args) of every operation of a
        round: ``repeats`` passes over the commands, bloch at d = 16 in the
        first pass only, since it alone takes longer than all the rest."""
        ops = []
        for rep in range(repeats):
            slot = (index + rep) % self.DOCS_PER_DIM
            for d in self.DIMS:
                path, rho, ref = self.docs[d, slot]
                checks = {
                    "measure": (check_cli_measure, ref),
                    "sweep": (check_cli_sweep, ref, self.grid),
                    "protocol": (check_cli_protocol, ref),
                    "bloch": (check_cli_bloch, ref, rho),
                }
                for command in self.COMMANDS:
                    if command == "bloch" and d == max(self.DIMS) and rep > 0:
                        continue
                    check, *args = checks[command]
                    ops.append((f"{command}-d{d}", [command, path], None, check, args))
            seed = self.mub_seeds[rep]
            ops += [
                (f"mub-d{self.MUB_DIM}", ["mub", "--dim", str(self.MUB_DIM), "--seed", str(seed)], None,
                 check_cli_mub, [seed, self.MUB_RESTARTS]),
                ("measure-non-hermitian-d2", ["measure", self.non_hermitian], None,
                 check_cli_rejected, [(3,), "Hermitian"]),
                ("measure-nan-d2", ["measure", self.nan_doc], None, check_cli_rejected, [(2, 3), ""]),
                ("mub-bad-seed-d2", ["mub", "--dim", "2"], BAD_SEED_ENV,
                 check_cli_rejected, [CLI_EXIT_CODES, ""]),
            ]
        return ops

    def run_round(self, index: int) -> list[Outcome]:
        outcomes = []
        for case, argv, extra_env, check, args in self._operations(index, self.REPEATS):
            seconds, proc, error = _timed(self._run, argv, extra_env)
            outcomes.append(_checked(case, seconds, error, check, *args, proc))
        return outcomes

    def layer_pass(self) -> tuple[float, dict[str, float], list[str]]:
        """One pass over the commands through ``cli.main`` in this process.

        Returns the total time, the time per subcommand in ms and the errors.
        The bad-seed operation is left out: it would end in an uncaught
        exception, which is the fault it stands for.
        """
        per_command: dict[str, float] = {}
        errors = []
        total = 0.0
        for case, argv, extra_env, check, args in self._operations(0, 1):
            if extra_env:
                continue
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = qcli.main(argv)
                except Exception as exc:  # record the fault and go on
                    code, err = 1, io.StringIO(f"Traceback: {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
            total += seconds
            per_command[argv[0]] = per_command.get(argv[0], 0.0) + seconds * 1e3
            proc = subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())
            outcome = _checked(case, seconds, None, check, *args, proc)
            if outcome.error and case not in self.known_faults:
                errors.append(f"{case}: {outcome.error}")
        return total, per_command, errors

    def startup_probes(self) -> tuple[float, float]:
        """Median ms of a fresh ``import numpy`` and of the extra time a
        fresh ``import qincompat.cli`` takes on top of it."""

        def probe(code: str) -> float:
            times = []
            for _ in range(self.PROBE_REPEATS):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.workdir,
                               check=True, timeout=SUBPROCESS_TIMEOUT_S)
                times.append((time.perf_counter() - start) * 1e3)
            return statistics.median(times)

        interpreter = probe("import numpy")
        return interpreter, probe("import qincompat.cli") - interpreter

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {workload.name: workload for workload in (Contexts, MubSearch, Cli)}
