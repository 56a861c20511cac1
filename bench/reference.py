"""Independent reference values and output checks, built on numpy alone.

Every measure of a context depends only on two small arrays: the Born
distribution ``p`` of the state in the first basis and the transition matrix
``T`` of squared overlaps between the two bases. The reference computes them
from the raw input arrays and derives each value in closed form, so no check
goes through the code it checks. Nothing in this module imports qincompat.

Each ``check_*`` function raises ``CheckError`` naming the first output that
disagrees with the reference or breaks a property the method must have.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Library results against the closed forms: |got - want| <= ABS + REL |want|.
# Over 1200 seeded contexts at d = 2..16 the worst absolute deviations were
# 3.5e-14 for the measures, 3.1e-13 for the ledger (its mutual information
# comes from the spectrum of a d^2 x d^2 matrix) and 2.4e-14 for the sweep
# informations; the bounds below sit about ten times higher, and far below
# the 1e-6 error that the checks must catch.
MEASURE_REL_TOL, MEASURE_ABS_TOL = 1e-12, 3e-13
LEDGER_REL_TOL, LEDGER_ABS_TOL = 1e-12, 3e-12
SWEEP_ABS_TOL = 2e-13
# The leakage ratio divides by |p - 1/d|^2, which both routes form from
# entries with ~1e-16 absolute error, so its relative error grows like
# d * 1e-16 / |p - 1/d| as a context nears zero information: 7e-12 was seen
# at |p - 1/d| = 3e-5. Over 6000 seeded contexts the error stayed below
# 13 * 2.2e-16 * d / |p - 1/d|; this factor is ten times that.
RATIO_CONDITION_TOL = 3e-14
# noise_sweep stops with ZeroInformationError once the injected information
# at a grid point falls below this; at eps = 1e-4 that takes |p - 1/d| below
# about 1e-3 at d = 2, which one seeded context in a few hundred has.
SWEEP_INFORMATION_FLOOR = 1e-14
# A sweep point's ratio must follow from its two informations.
RATIO_CONSISTENCY_TOL = 1e-12
# CLI output is printed with 12 significant digits (measures, ledger, sweep)
# or 12 decimals (bloch, mub); these cover that rounding.
PRINTED_REL_TOL = 1e-11
PRINTED_FIXED_TOL = 2e-12
PRINTED_NORM_TOL = 1e-10
# Search results: objective recomputed from the returned basis, unitarity of
# that basis, and the success thresholds of the test suite.
OBJECTIVE_TOL = 1e-12
UNITARY_TOL = 1e-10
SMALL_DIM_OBJECTIVE_FLOOR = 1.0 - 1e-6
SMALL_DIM_CERTIFICATE_TOL = 1e-6
LARGE_DIM_OBJECTIVE_FLOOR = 1.0 - 1e-4
# Class decisions: a free context is free by construction in the inputs, far
# inside these thresholds, and a random context is far outside them.
ZERO_INFO_TOL = 1e-10
PERMUTATION_TOL = 1e-9

SWEEP_HEADER = "epsilon,i_initial,i_final,ratio"
LEDGER_KEYS = ("i_initial", "i_final", "delta_apparatus", "mutual_info")


class CheckError(Exception):
    """An output disagrees with the reference or breaks a required property."""


def entropy(q: np.ndarray) -> float:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    q = q[q > 0.0]
    return float(-(q * np.log(q)).sum())


@dataclass(frozen=True)
class Reference:
    """Closed-form values of one context, from ``p`` and ``T`` alone."""

    p: np.ndarray
    t: np.ndarray

    @classmethod
    def from_arrays(cls, rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> "Reference":
        """``x`` and ``y`` hold the eigenvectors of the two observables as columns."""
        p = np.real(np.diag(x.conj().T @ rho @ x)).copy()
        t = np.abs(x.conj().T @ y) ** 2
        return cls(p, t)

    @property
    def d(self) -> int:
        return len(self.p)

    @property
    def q(self) -> np.ndarray:
        """Outcome distribution of the second measurement, T^T p."""
        return self.t.T @ self.p

    @property
    def i_initial(self) -> float:
        return math.log(self.d) - entropy(self.p)

    @property
    def i_final(self) -> float:
        return math.log(self.d) - entropy(self.q)

    @property
    def i_context(self) -> float:
        return entropy(self.q) - entropy(self.p)

    @property
    def m_measurement(self) -> float:
        return (self.d - float(np.sum(self.t**2))) / (self.d - 1)

    @property
    def zero_info(self) -> bool:
        return float(np.linalg.norm(self.p - 1.0 / self.d)) <= ZERO_INFO_TOL

    @property
    def commuting(self) -> bool:
        """A doubly stochastic 0/1 matrix is a permutation: same eigenvectors."""
        return bool(np.all(np.abs(self.t - np.round(self.t)) <= PERMUTATION_TOL))

    @property
    def ratio(self) -> float | None:
        if self.zero_info:
            return None
        # (|p|^2 + |q|^2 - 2 p.Tq) / (|p|^2 - 1/d), written as sums of squares
        # (rows and columns of T sum to 1) so that neither side cancels
        gaps = self.p[:, None] - self.q[None, :]
        num = float(np.sum(self.t * gaps**2))
        return num / float(np.sum((self.p - 1.0 / self.d) ** 2))

    @property
    def ratio_rel_tol(self) -> float:
        """Relative error the leakage ratio carries from its conditioning."""
        return RATIO_CONDITION_TOL * self.d / float(np.linalg.norm(self.p - 1.0 / self.d))

    @property
    def expected_class(self) -> str:
        if self.commuting:
            return "FREE_COMMUTING"
        if self.zero_info:
            return "FREE_ZERO_INFO"
        return "RESOURCEFUL"

    def ledger(self) -> dict[str, float]:
        h_p, h_q = entropy(self.p), entropy(self.q)
        return {
            "i_initial": self.i_initial,
            "i_final": self.i_final,
            "delta_apparatus": -h_q,
            "mutual_info": 2.0 * h_q - h_p,
        }

    def sweep(self, eps: float) -> tuple[float, float]:
        """Informations ln d - H of p_eps = (1 - eps)/d + eps p and of T^T p_eps.

        Written as sum_j p_j log1p(d p_j - 1), where d p_eps - 1 = eps (d p - 1),
        so that they keep their precision however small eps makes them.
        """
        d = self.d

        def information(dev: np.ndarray) -> float:
            probs = (1.0 + dev) / d
            keep = probs > 0.0
            return float(np.sum(probs[keep] * np.log1p(dev[keep])))

        dev = eps * (d * self.p - 1.0)
        return information(dev), information(self.t.T @ dev)

    def sweep_may_stop(self, grid: np.ndarray) -> bool:
        """Whether ``noise_sweep`` may stop with ZeroInformationError: at the
        weakest noise of the grid the injected information is below its floor."""
        return self.sweep(float(np.min(grid)))[0] < SWEEP_INFORMATION_FLOOR

    def frame_dots(self) -> tuple[np.ndarray, np.ndarray]:
        """Bloch frame identities x_j.x_k and x_j.y_k."""
        d = self.d
        return (d * np.eye(d) - 1.0) / (d - 1), (d * self.t - 1.0) / (d - 1)


def close(name: str, got, want: float, rel: float, abs_tol: float) -> None:
    """Require |got - want| <= abs_tol + rel |want| for a finite number ``got``."""
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        raise CheckError(f"{name}: expected a number, got {got!r}")
    if not math.isfinite(got) or abs(got - want) > abs_tol + rel * abs(want):
        raise CheckError(f"{name}: got {got!r}, reference {want!r}")


def _close_measure(name: str, got, want: float, printed: bool = False) -> None:
    close(name, got, want, PRINTED_REL_TOL if printed else MEASURE_REL_TOL, MEASURE_ABS_TOL)


def _close_ledger(name: str, got, want: float, printed: bool = False) -> None:
    close(name, got, want, PRINTED_REL_TOL if printed else LEDGER_REL_TOL, LEDGER_ABS_TOL)


def _check_balance(entry: dict, printed: bool = False) -> None:
    """i_initial - i_final = delta_apparatus + mutual_info."""
    gap = (entry["i_initial"] - entry["i_final"]) - (entry["delta_apparatus"] + entry["mutual_info"])
    slack = PRINTED_REL_TOL * sum(abs(v) for v in entry.values()) if printed else 0.0
    if not abs(gap) <= LEDGER_ABS_TOL + slack:
        raise CheckError(f"ledger does not balance: gap {gap!r}")


# --- library outputs -------------------------------------------------------


def check_report(ref: Reference, report) -> None:
    """``incompatibility_report`` against the closed forms and the class."""
    _close_measure("i_initial", report.i_initial, ref.i_initial)
    _close_measure("i_final", report.i_final, ref.i_final)
    _close_measure("i_context", report.i_context, ref.i_context)
    _close_measure("m_measurement", report.m_measurement, ref.m_measurement)
    if ref.ratio is None:
        if report.ratio is not None:
            raise CheckError(f"ratio: got {report.ratio!r} for a zero-information context")
    else:
        close("ratio", report.ratio, ref.ratio, MEASURE_REL_TOL + ref.ratio_rel_tol, MEASURE_ABS_TOL)
    if report.classification.value != ref.expected_class:
        raise CheckError(
            f"classification: got {report.classification.value}, expected {ref.expected_class}"
        )


def check_ledger(ref: Reference, ledger) -> None:
    """``stinespring_ledger`` against the closed forms; it must balance."""
    want = ref.ledger()
    got = {key: getattr(ledger, key) for key in LEDGER_KEYS}
    for key in LEDGER_KEYS:
        _close_ledger(key, got[key], want[key])
    _check_balance(got)


def check_sweep(ref: Reference, grid: np.ndarray, points) -> None:
    """``noise_sweep`` informations against the noisy closed forms."""
    if len(points) != len(grid):
        raise CheckError(f"sweep: {len(points)} points for a grid of {len(grid)}")
    for eps, point in zip(grid, points):
        want_initial, want_final = ref.sweep(float(eps))
        close("epsilon", point.epsilon, float(eps), 0.0, 0.0)
        close(f"i_initial at {eps:.3g}", point.i_initial_eps, want_initial, 0.0, SWEEP_ABS_TOL)
        close(f"i_final at {eps:.3g}", point.i_final_eps, want_final, 0.0, SWEEP_ABS_TOL)
        if not point.i_initial_eps > 0.0:
            raise CheckError(f"no injected information at {eps:.3g}")
        consumed = (point.i_initial_eps - point.i_final_eps) / point.i_initial_eps
        close(f"ratio at {eps:.3g}", point.ratio_eps, consumed, 0.0, RATIO_CONSISTENCY_TOL)


def search_stats(trajectory) -> tuple[int, int, int]:
    """(entries, iterations, improving iterations) of a search trajectory.

    A restart begins with an iteration-0 entry; an iteration improves when it
    raises the objective above the previous entry of its restart.
    """
    iterations = improving = 0
    for (it, value), (prev_it, prev_value) in zip(trajectory[1:], trajectory[:-1]):
        if it == 0:
            continue
        iterations += 1
        improving += value > prev_value
    return len(trajectory), iterations, improving


def check_search(result, dim: int, restarts: int, tol_mub: float) -> None:
    """A search against the computational basis.

    The objective is recomputed from the returned basis, the certificate is
    recomputed from its overlaps, the trajectory must restart at iteration 0
    and never descend within a restart, and the result must clear the test
    suite's success threshold for its dimension.
    """
    u = np.asarray(result.best_basis.vectors)
    if u.shape != (dim, dim):
        raise CheckError(f"basis has shape {u.shape}, expected ({dim}, {dim})")
    if not np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= UNITARY_TOL:
        raise CheckError("returned basis is not orthonormal")
    t = np.abs(u) ** 2
    objective = (dim - float(np.sum(t**2))) / (dim - 1)
    close("objective", result.objective, objective, 0.0, OBJECTIVE_TOL)
    deviation = float(np.max(np.abs(t - 1.0 / dim)))
    if result.certified_mub != (deviation <= tol_mub):
        raise CheckError(f"certified_mub is {result.certified_mub} at deviation {deviation:.3e}")
    if dim <= 3:
        if not (result.objective >= SMALL_DIM_OBJECTIVE_FLOOR and deviation <= SMALL_DIM_CERTIFICATE_TOL):
            raise CheckError(f"d={dim}: objective {result.objective!r}, deviation {deviation:.3e}")
    elif not result.objective >= LARGE_DIM_OBJECTIVE_FLOOR:
        raise CheckError(f"d={dim}: objective {result.objective!r} below {LARGE_DIM_OBJECTIVE_FLOOR}")

    trajectory = result.trajectory
    if not trajectory or trajectory[0][0] != 0:
        raise CheckError("trajectory does not start at iteration 0")
    starts = sum(1 for it, _ in trajectory if it == 0)
    if starts != result.restarts_used or not 1 <= starts <= restarts:
        raise CheckError(f"{starts} restarts in the trajectory, {result.restarts_used} reported")
    for (it, value), (prev_it, prev_value) in zip(trajectory[1:], trajectory[:-1]):
        if it != 0 and (it != prev_it + 1 or value < prev_value):
            raise CheckError(f"trajectory descends or skips at iteration {it}")
    if result.objective != max(value for _, value in trajectory):
        raise CheckError("objective is not the best value of the trajectory")


# --- command-line outputs --------------------------------------------------


def _reject_constant(token: str):
    raise CheckError(f"output is not valid JSON: it contains {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens that json accepts."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not valid JSON: {exc}") from exc


def _succeeded(proc) -> None:
    if "Traceback" in proc.stderr:
        raise CheckError("the command printed a traceback")
    if proc.returncode != 0:
        raise CheckError(f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}")


def _json_object(proc, keys) -> dict:
    _succeeded(proc)
    payload = strict_json(proc.stdout)
    if not isinstance(payload, dict) or not set(keys) <= set(payload):
        raise CheckError(f"output lacks the keys {sorted(keys)}")
    return payload


def check_cli_measure(ref: Reference, proc) -> None:
    keys = ("i_context", "i_initial", "i_final", "ratio", "m_measurement", "classification")
    out = _json_object(proc, keys)
    for key in ("i_initial", "i_final", "i_context", "m_measurement"):
        _close_measure(key, out[key], getattr(ref, key), printed=True)
    if ref.ratio is None:
        if out["ratio"] is not None or out.get("ratio_reason") != "ZERO_INFO":
            raise CheckError("zero-information context must print ratio null with ZERO_INFO")
    else:
        close("ratio", out["ratio"], ref.ratio, PRINTED_REL_TOL + ref.ratio_rel_tol, MEASURE_ABS_TOL)
    if out["classification"] != ref.expected_class:
        raise CheckError(f"classification: got {out['classification']}, expected {ref.expected_class}")


def check_cli_protocol(ref: Reference, proc) -> None:
    out = _json_object(proc, LEDGER_KEYS)
    want = ref.ledger()
    for key in LEDGER_KEYS:
        _close_ledger(key, out[key], want[key], printed=True)
    _check_balance({key: out[key] for key in LEDGER_KEYS}, printed=True)


def check_cli_sweep(ref: Reference, grid: np.ndarray, proc) -> None:
    if proc.returncode == 5 and ref.sweep_may_stop(grid):
        check_cli_rejected((5,), "information", proc)
        return
    _succeeded(proc)
    lines = proc.stdout.strip().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise CheckError(f"sweep output does not start with {SWEEP_HEADER!r}")
    if len(lines) != len(grid) + 1:
        raise CheckError(f"sweep printed {len(lines) - 1} rows for a grid of {len(grid)}")
    for eps, line in zip(grid, lines[1:]):
        try:
            eps_out, initial, final, ratio = (float(v) for v in line.split(","))
        except ValueError as exc:
            raise CheckError(f"malformed sweep row {line!r}") from exc
        want_initial, want_final = ref.sweep(float(eps))
        close("epsilon", eps_out, float(eps), PRINTED_REL_TOL, 0.0)
        close(f"i_initial at {eps:.3g}", initial, want_initial, PRINTED_REL_TOL, SWEEP_ABS_TOL)
        close(f"i_final at {eps:.3g}", final, want_final, PRINTED_REL_TOL, SWEEP_ABS_TOL)
        close(f"ratio at {eps:.3g}", ratio, 1.0 - final / initial, 0.0, 100 * PRINTED_REL_TOL)


def check_cli_bloch(ref: Reference, rho: np.ndarray, proc) -> None:
    """Frame identities, plus norms and projections of r, u and v.

    With x_j . r = (d p_j - 1)/(d - 1), the images of the two dephasing maps
    are u = sum_j p_j x_j and v = sum_k q_k y_k, which fixes their norms and
    their projections on the second frame.
    """
    keys = ("r", "u", "v", "x_frame", "y_frame", "xx_dots", "yy_dots", "xy_dots")
    out = _json_object(proc, keys)
    d, n = ref.d, ref.d * ref.d - 1
    try:
        r, u, v = (np.array(out[k], dtype=float).reshape(n) for k in ("r", "u", "v"))
        xs, ys = (np.array(out[k], dtype=float).reshape(d, n) for k in ("x_frame", "y_frame"))
        xx, yy, xy = (
            np.array(out[k], dtype=float).reshape(d, d) for k in ("xx_dots", "yy_dots", "xy_dots")
        )
    except (TypeError, ValueError) as exc:
        raise CheckError(f"bloch output has the wrong shapes: {exc}") from exc
    want_xx, want_xy = ref.frame_dots()
    for name, got, want in (("xx_dots", xx, want_xx), ("yy_dots", yy, want_xx), ("xy_dots", xy, want_xy)):
        err = float(np.max(np.abs(got - want)))
        if not err <= PRINTED_FIXED_TOL:
            raise CheckError(f"{name}: off by {err:.3e} from the frame identity")
    purity = float(np.real(np.trace(rho @ rho)))
    q = ref.q
    checks = (
        ("|r|^2", r @ r, (d * purity - 1.0) / (d - 1)),
        ("|u|^2", u @ u, (d * (ref.p @ ref.p) - 1.0) / (d - 1)),
        ("|v|^2", v @ v, (d * (q @ q) - 1.0) / (d - 1)),
    )
    for name, got, want in checks:
        close(name, float(got), want, 0.0, PRINTED_NORM_TOL)
    for name, got, want in (
        ("x_frame . r", xs @ r, (d * ref.p - 1.0) / (d - 1)),
        ("y_frame . u", ys @ u, (d * q - 1.0) / (d - 1)),
    ):
        err = float(np.max(np.abs(got - want)))
        if not err <= PRINTED_NORM_TOL:
            raise CheckError(f"{name}: off by {err:.3e}")


def check_cli_mub(seed: int, restarts: int, proc) -> None:
    keys = ("objective", "certified_mub", "restarts_used", "iterations", "seed")
    out = _json_object(proc, keys)
    if out["seed"] != seed:
        raise CheckError(f"mub reports seed {out['seed']!r}, expected {seed}")
    used, iterations = out["restarts_used"], out["iterations"]
    if not (isinstance(used, int) and isinstance(iterations, int) and 1 <= used <= restarts and iterations >= used):
        raise CheckError(f"implausible restarts_used {used!r} or iterations {iterations!r}")
    if not isinstance(out["certified_mub"], bool):
        raise CheckError("certified_mub is not a boolean")
    objective = out["objective"]
    if not (isinstance(objective, float) and SMALL_DIM_OBJECTIVE_FLOOR <= objective <= 1.0 + PRINTED_FIXED_TOL):
        raise CheckError(f"objective {objective!r} outside [{SMALL_DIM_OBJECTIVE_FLOOR}, 1]")


def check_cli_rejected(exit_codes: tuple[int, ...], names: str, proc) -> None:
    """A rejected input: a documented exit code, an error line, no traceback.

    ``names`` is a word the error message must contain, such as the violated
    invariant; an empty string asks for none.
    """
    if "Traceback" in proc.stderr:
        raise CheckError("the command printed a traceback")
    if proc.returncode not in exit_codes:
        raise CheckError(f"exit code {proc.returncode}, expected one of {exit_codes}")
    if proc.stdout.strip():
        raise CheckError(f"a rejected input printed output: {proc.stdout.strip()[:120]!r}")
    if not proc.stderr.startswith("error:") or names not in proc.stderr:
        raise CheckError(f"error message does not name {names!r}: {proc.stderr.strip()[:200]!r}")
