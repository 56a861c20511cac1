"""Generalized Bloch representation in generalized Gell-Mann coordinates.

The d^2 - 1 generators G_i are traceless, Hermitian and normalized to
Tr(G_i G_j) = 2 delta_ij: the symmetric off-diagonal block, then the
antisymmetric block (both lexicographic in the index pair a < b), then the
diagonal block; at d = 2 they are the Pauli matrices in order. Each
coordinate Tr(G_i M) is read straight off the entries of M (Bertlmann &
Krammer, J. Phys. A 41, 235303, 2008), so no generator is ever built.

States map to real vectors of length d^2 - 1, projectors to unit frame
vectors, and the dephasing channels to projections onto those frames. The
entropic and norm-based incompatibility measures all have equivalent forms
in this geometry; they are provided here and cross-checked against the
state-space forms in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, ObservableBasis, _information, _require_same_dim
from .errors import DimensionMismatchError, InvariantViolationError, ZeroInformationError
from .measures import ZERO_INFO_NORM_TOL

BALL_TOL = 1e-10
UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class BlochVector:
    """A point of the generalized Bloch ball: a finite real (d^2-1)-vector
    of norm at most 1.

    Membership in the ball is necessary but not sufficient for physicality
    when d > 2; conversion to a state is where positivity gets checked.
    """

    dim: int
    r: np.ndarray

    def __post_init__(self) -> None:
        _require_bloch_dim(self.dim)
        vec = np.array(self.r, dtype=float)
        n = self.dim * self.dim - 1
        if vec.shape != (n,):
            raise InvariantViolationError(
                f"expected a vector of length {n}, got shape {vec.shape}"
            )
        # the norm check below is false for NaN, so test finiteness first
        if not np.isfinite(vec).all():
            raise InvariantViolationError("Bloch vector has non-finite entries")
        if np.linalg.norm(vec) > 1.0 + BALL_TOL:
            raise InvariantViolationError(
                f"vector norm {float(np.linalg.norm(vec))!r} is outside the Bloch ball"
            )
        vec.setflags(write=False)
        object.__setattr__(self, "r", vec)

    def norm(self) -> float:
        return float(np.linalg.norm(self.r))


def _require_bloch_dim(d: int) -> None:
    if d < 2:
        raise DimensionMismatchError(f"the Bloch representation needs d >= 2, got {d}")


def _radius(d: int) -> float:
    """The radius normalization C_d = sqrt(d(d-1)/2)."""
    return math.sqrt(d * (d - 1) / 2.0)


def _diagonal_weights(d: int) -> np.ndarray:
    """The (d-1, d) diagonals of the diagonal generators: row l-1 is
    sqrt(2/(l(l+1))) (1, ..., 1, -l, 0, ..., 0) with l leading ones."""
    levels = np.arange(1, d)
    weights = np.tri(d - 1, d)
    weights[levels - 1, levels] = -levels
    return weights * np.sqrt(2.0 / (levels * (levels + 1)))[:, None]


def _components(mat: np.ndarray) -> np.ndarray:
    """Tr(G_i M) for every generator, along the last axis for a stack of
    matrices, read off the entries: M_ab + M_ba, then i(M_ab - M_ba), for
    each pair a < b in lexicographic order, then the weighted diagonals."""
    d = mat.shape[-1]
    a, b = np.triu_indices(d, 1)
    upper, lower = mat[..., a, b], mat[..., b, a]
    diag = np.diagonal(mat, axis1=-2, axis2=-1)
    return np.concatenate(
        [upper + lower, 1j * (upper - lower), diag @ _diagonal_weights(d).T], axis=-1
    )


def _operator(u: BlochVector) -> np.ndarray:
    """U = sum_j u_j G_j, written entry by entry."""
    d = u.dim
    a, b = np.triu_indices(d, 1)
    sym, anti, diag = np.split(u.r, [len(a), 2 * len(a)])
    mat = np.zeros((d, d), dtype=complex)
    mat[a, b] = sym - 1j * anti
    mat[b, a] = sym + 1j * anti
    mat[np.diag_indices(d)] = diag @ _diagonal_weights(d)
    return mat


def wedge(u: BlochVector, v: BlochVector) -> BlochVector:
    """Antisymmetric product (u ^ v)_i = sum f_ijk u_j v_k.

    Computed as Tr(G_i [U, V]) / 4i with U = sum u_j G_j, which equals the
    structure-constant form without building f. For d = 2 this is the
    ordinary cross product.
    """
    _require_same_dim(u.dim, v.dim)
    big_u, big_v = _operator(u), _operator(v)
    comm = big_u @ big_v - big_v @ big_u
    return BlochVector(u.dim, np.real(_components(comm) / 4j))


def star(u: BlochVector, v: BlochVector) -> BlochVector:
    """Symmetric product (u * v)_i = (C_d / (d-2)) sum d_ijk u_j v_k.

    Computed as (C_d / (d-2)) Tr(G_i {U, V}) / 4 with U = sum u_j G_j, which
    equals the structure-constant form without building dsym. At d = 2
    every d_ijk vanishes and the (d-2) prefactor in the operator product
    identity kills the star term, so the product is defined as the zero
    vector there; this keeps the identity valid at all d.
    """
    _require_same_dim(u.dim, v.dim)
    d = u.dim
    if d == 2:
        return BlochVector(2, np.zeros(3))
    coeff = _radius(d) / (d - 2)
    big_u, big_v = _operator(u), _operator(v)
    anti = big_u @ big_v + big_v @ big_u
    return BlochVector(d, coeff * np.real(_components(anti)) / 4.0)


def state_to_bloch(rho: DensityMatrix) -> BlochVector:
    """Components r_i = (d / 2 C_d) Tr(rho G_i)."""
    d = rho.dim
    _require_bloch_dim(d)
    return BlochVector(d, d / (2.0 * _radius(d)) * np.real(_components(rho.entries)))


def bloch_to_state(r: BlochVector) -> DensityMatrix:
    """rho = (1/d)(identity + C_d r . Lambda); rejects unphysical vectors.

    Ball membership alone is not enough for d > 2: the reconstructed matrix
    must pass the positivity validation of DensityMatrix.
    """
    d = r.dim
    mat = (np.eye(d, dtype=complex) + _radius(d) * _operator(r)) / d
    return DensityMatrix(mat)


def basis_to_bloch_frame(basis: ObservableBasis) -> np.ndarray:
    """Frame of the eigenprojectors: a read-only (d, d^2-1) array whose row j
    is the Bloch vector x_j of the j-th projector.

    The rows sum to zero and satisfy x_i . x_j = (d delta_ij - 1)/(d - 1).
    """
    d = basis.dim
    frame = d / (2.0 * _radius(d)) * np.real(_components(basis.projectors()))
    frame.setflags(write=False)
    return frame


def _frame(rows, d: int) -> np.ndarray:
    """The rows of a dimension-d frame as a float (d, d^2-1) array; rejects
    any other shape and non-finite entries."""
    frame = np.asarray(rows, dtype=float)
    if d < 2 or frame.shape != (d, d * d - 1):
        raise DimensionMismatchError(
            f"expected a frame of shape ({d}, {d * d - 1}), got {frame.shape}"
        )
    if not np.isfinite(frame).all():
        raise InvariantViolationError("frame has non-finite entries")
    return frame


def geometric_maps(
    r: BlochVector, xframe: np.ndarray, yframe: np.ndarray
) -> tuple[BlochVector, BlochVector]:
    """Bloch-space action of the two dephasing maps.

    u is the image of r under the first map, v the image of u under the
    second: each projects onto the frame directions and contracts.
    """
    d = r.dim
    xs, ys = _frame(xframe, d), _frame(yframe, d)
    u = (d - 1) / d * (xs.T @ (xs @ r.r))
    v = (d - 1) / d * (ys.T @ (ys @ u))
    return BlochVector(d, u), BlochVector(d, v)


def geometric_context_incompatibility(
    r: BlochVector, xframe: np.ndarray, yframe: np.ndarray
) -> float:
    """Entropy gap between the two measured distributions, straight from
    the frame geometry: p_j = (1 + (d-1) x_j . r)/d, and likewise y_k . u."""
    d = r.dim
    u, _ = geometric_maps(r, xframe, yframe)
    rows = (d - 1) * np.stack([_frame(xframe, d) @ r.r, _frame(yframe, d) @ u.r])
    i_first, i_second = _information(rows).tolist()
    return i_first - i_second


def geometric_leakage_ratio(
    r: BlochVector, xframe: np.ndarray, yframe: np.ndarray
) -> float:
    """Leakage ratio 1 - |v|^2 / |u|^2 of the contracted images; undefined (raises)
    when sqrt((d-1)/d) |u| = ||p - 1/d|| <= 1e-10, the state-space rule."""
    u, v = geometric_maps(r, xframe, yframe)
    denom = float(u.r @ u.r)
    if math.sqrt((u.dim - 1) / u.dim * denom) <= ZERO_INFO_NORM_TOL:
        raise ZeroInformationError(
            "first-measured image sits at the ball center; ratio undefined"
        )
    return 1.0 - float(v.r @ v.r) / denom


def geometric_measurement_incompatibility(xframe: np.ndarray, yframe: np.ndarray) -> float:
    """1 - ((d-1)/d^2) sum_jk (x_j . y_k)^2, clamped to [0, 1] against
    rounding at either end."""
    d = np.shape(xframe)[0] if np.ndim(xframe) else 0
    dots = _frame(xframe, d) @ _frame(yframe, d).T
    value = 1.0 - (d - 1) / d**2 * float(np.sum(dots**2))
    return min(max(value, 0.0), 1.0)


def qubit_measures(
    r: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Closed qubit forms of the context and measurement incompatibilities.

    Takes plain finite 3-vectors: the state vector r (norm <= 1) and the unit
    observable axes x and y. Returns the pair (entropic context
    incompatibility, measurement incompatibility 1 - (x.y)^2).
    """
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for vec, name in ((r, "state vector"), (x, "x axis"), (y, "y axis")):
        if vec.shape != (3,):
            raise DimensionMismatchError(f"{name} has shape {vec.shape}, not (3,)")
        if not np.isfinite(vec).all():
            raise InvariantViolationError(f"{name} has non-finite entries")
    for axis, name in ((x, "x"), (y, "y")):
        if abs(np.linalg.norm(axis) - 1.0) > UNIT_NORM_TOL:
            raise InvariantViolationError(f"{name} axis is not a unit vector")
    if np.linalg.norm(r) > 1.0 + BALL_TOL:
        raise InvariantViolationError("state vector is outside the Bloch ball")
    xr = float(x @ r)
    xy = float(x @ y)
    # the outcome distributions (1 +- x.r)/2 and (1 +- x.y x.r)/2 as deviations
    i_first, i_second = _information(np.array([[xr, -xr], [xy * xr, -xy * xr]])).tolist()
    return i_first - i_second, 1.0 - xy**2

