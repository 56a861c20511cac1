"""Generalized Bloch representation over SU(d) generators.

States map to real vectors of length d^2 - 1, projectors to unit frame
vectors, and the dephasing channels to projections onto those frames. The
entropic and norm-based incompatibility measures all have equivalent forms
in this geometry; they are provided here and cross-checked against the
state-space forms in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DensityMatrix,
    ObservableBasis,
    _require_same_dim,
    binary_entropy,
    shannon_entropy,
)
from .errors import InvariantViolationError, ZeroInformationError
from .measures import ZERO_INFO_NORM_TOL

BALL_TOL = 1e-10
UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class GeneratorSet:
    """The d^2 - 1 SU(d) generators and the radius normalization.

    ``generators`` has shape (d^2-1, d, d); each matrix is traceless,
    Hermitian and normalized to Tr(G_i G_j) = 2 delta_ij. ``c_d`` is the
    radius normalization sqrt(d(d-1)/2).

    ``f`` and ``dsym`` are the totally antisymmetric and totally symmetric
    rank-3 structure tensors, f_ijk = Tr([G_i, G_j] G_k) / 4i and
    dsym_ijk = Tr({G_i, G_j} G_k) / 4. No computation here reads them:
    ``wedge`` and ``star`` work through commutators instead. Both tensors
    are built together, dense, (d^2-1)^3 reals each, when either is first
    read, and live as long as this set; they serve as reference values, and
    at d = 16 they take seconds and about 1 GiB to build.
    """

    dim: int
    generators: np.ndarray
    c_d: float

    @property
    def f(self) -> np.ndarray:
        return self._structure_tensors[0]

    @property
    def dsym(self) -> np.ndarray:
        return self._structure_tensors[1]

    @cached_property
    def _structure_tensors(self) -> tuple[np.ndarray, np.ndarray]:
        """(f, dsym) from the trace formulas, both from one pass over
        Tr(G_i G_j G_k)."""
        gens = self.generators
        pair = np.einsum("iab,jbc->ijac", gens, gens)
        triple = np.einsum("ijab,kba->ijk", pair, gens)
        del pair
        f = np.real((triple - triple.transpose(1, 0, 2)) / 4j)
        dsym = np.real((triple + triple.transpose(1, 0, 2)) / 4.0)
        return _frozen(f), _frozen(dsym)


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
                f"vector norm {np.linalg.norm(vec)!r} is outside the Bloch ball"
            )
        vec.setflags(write=False)
        object.__setattr__(self, "r", vec)

    def norm(self) -> float:
        return float(np.linalg.norm(self.r))


def build_generators(dim: int) -> GeneratorSet:
    """Generalized Gell-Mann construction.

    Ordering is the symmetric off-diagonal block, then the antisymmetric
    block (both lexicographic in the index pair), then the diagonal block.
    For d = 2 this yields the Pauli matrices in their conventional order.
    The generator array is read-only.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    mats = []
    for a in range(dim):
        for b in range(a + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[a, b] = 1.0
            m[b, a] = 1.0
            mats.append(m)
    for a in range(dim):
        for b in range(a + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[a, b] = -1.0j
            m[b, a] = 1.0j
            mats.append(m)
    for level in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -float(level)
        mats.append(m * math.sqrt(2.0 / (level * (level + 1))))
    return GeneratorSet(
        dim=dim,
        generators=_frozen(np.stack(mats)),
        c_d=math.sqrt(dim * (dim - 1) / 2.0),
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _operator(u: BlochVector, gens: GeneratorSet) -> np.ndarray:
    """U = sum_j u_j G_j."""
    return np.tensordot(u.r, gens.generators, axes=1)


def _components(mat: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Tr(G_i M) for every generator."""
    return np.einsum("iab,ba->i", gens.generators, mat)


def wedge(u: BlochVector, v: BlochVector, gens: GeneratorSet) -> BlochVector:
    """Antisymmetric product (u ^ v)_i = sum f_ijk u_j v_k.

    Computed as Tr(G_i [U, V]) / 4i with U = sum u_j G_j, which equals the
    structure-constant form without building f. For d = 2 this is the
    ordinary cross product.
    """
    _require_same_dim(u.dim, v.dim, gens.dim)
    big_u, big_v = _operator(u, gens), _operator(v, gens)
    comm = big_u @ big_v - big_v @ big_u
    return BlochVector(gens.dim, np.real(_components(comm, gens) / 4j))


def star(u: BlochVector, v: BlochVector, gens: GeneratorSet) -> BlochVector:
    """Symmetric product (u * v)_i = (C_d / (d-2)) sum d_ijk u_j v_k.

    Computed as (C_d / (d-2)) Tr(G_i {U, V}) / 4 with U = sum u_j G_j, which
    equals the structure-constant form without building dsym. At d = 2
    every d_ijk vanishes and the (d-2) prefactor in the operator product
    identity kills the star term, so the product is defined as the zero
    vector there; this keeps the identity valid at all d.
    """
    _require_same_dim(u.dim, v.dim, gens.dim)
    d = gens.dim
    if d == 2:
        return BlochVector(2, np.zeros(3))
    coeff = gens.c_d / (d - 2)
    big_u, big_v = _operator(u, gens), _operator(v, gens)
    anti = big_u @ big_v + big_v @ big_u
    return BlochVector(d, coeff * np.real(_components(anti, gens)) / 4.0)


def state_to_bloch(rho: DensityMatrix, gens: GeneratorSet) -> BlochVector:
    """Components r_i = (d / 2 C_d) Tr(rho G_i)."""
    _require_same_dim(rho.dim, gens.dim)
    scale = gens.dim / (2.0 * gens.c_d)
    comps = scale * np.real(np.einsum("ab,iba->i", rho.entries, gens.generators))
    return BlochVector(gens.dim, comps)


def bloch_to_state(r: BlochVector, gens: GeneratorSet) -> DensityMatrix:
    """rho = (1/d)(identity + C_d r . Lambda); rejects unphysical vectors.

    Ball membership alone is not enough for d > 2: the reconstructed matrix
    must pass the positivity validation of DensityMatrix.
    """
    _require_same_dim(r.dim, gens.dim)
    d = gens.dim
    mat = (np.eye(d, dtype=complex) + gens.c_d * _operator(r, gens)) / d
    return DensityMatrix(mat)


def basis_to_bloch_frame(basis: ObservableBasis, gens: GeneratorSet) -> list[BlochVector]:
    """Frame vectors x_j of the eigenprojectors.

    They sum to zero and satisfy x_i . x_j = (d delta_ij - 1)/(d - 1).
    """
    _require_same_dim(basis.dim, gens.dim)
    scale = gens.dim / (2.0 * gens.c_d)
    cols = basis.vectors
    comps = scale * np.real(
        np.einsum("aj,iab,bj->ji", cols.conj(), gens.generators, cols)
    )
    return [BlochVector(gens.dim, comps[j]) for j in range(gens.dim)]


def _frame_array(frame: list[BlochVector]) -> np.ndarray:
    return np.stack([x.r for x in frame])


def geometric_maps(
    r: BlochVector, xframe: list[BlochVector], yframe: list[BlochVector]
) -> tuple[BlochVector, BlochVector]:
    """Bloch-space action of the two dephasing maps.

    u is the image of r under the first map, v the image of u under the
    second: each projects onto the frame directions and contracts.
    """
    d = r.dim
    _require_same_dim(d, *[x.dim for x in xframe], *[y.dim for y in yframe])
    xs = _frame_array(xframe)
    ys = _frame_array(yframe)
    u = (d - 1) / d * (xs.T @ (xs @ r.r))
    v = (d - 1) / d * (ys.T @ (ys @ u))
    return BlochVector(d, u), BlochVector(d, v)


def _frame_distribution(frame_rows: np.ndarray, vec: np.ndarray, d: int) -> np.ndarray:
    probs = (1.0 + (d - 1) * frame_rows @ vec) / d
    return np.clip(probs, 0.0, None)


def geometric_context_incompatibility(
    r: BlochVector, xframe: list[BlochVector], yframe: list[BlochVector]
) -> float:
    """Entropy gap between the two measured distributions, straight from
    the frame geometry."""
    d = r.dim
    xs = _frame_array(xframe)
    ys = _frame_array(yframe)
    u = (d - 1) / d * (xs.T @ (xs @ r.r))
    p_first = _frame_distribution(xs, r.r, d)
    p_second = _frame_distribution(ys, u, d)
    return shannon_entropy(p_second) - shannon_entropy(p_first)


def geometric_leakage_ratio(
    r: BlochVector, xframe: list[BlochVector], yframe: list[BlochVector]
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


def geometric_measurement_incompatibility(
    xframe: list[BlochVector], yframe: list[BlochVector]
) -> float:
    """1 - ((d-1)/d^2) sum_jk (x_j . y_k)^2."""
    d = xframe[0].dim
    _require_same_dim(*[x.dim for x in xframe], *[y.dim for y in yframe])
    dots = _frame_array(xframe) @ _frame_array(yframe).T
    return 1.0 - (d - 1) / d**2 * float(np.sum(dots**2))


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
        if not np.isfinite(vec).all():
            raise InvariantViolationError(f"{name} has non-finite entries")
    for axis, name in ((x, "x"), (y, "y")):
        if abs(np.linalg.norm(axis) - 1.0) > UNIT_NORM_TOL:
            raise InvariantViolationError(f"{name} axis is not a unit vector")
    if np.linalg.norm(r) > 1.0 + BALL_TOL:
        raise InvariantViolationError("state vector is outside the Bloch ball")
    xr = float(x @ r)
    xy = float(x @ y)
    i_c = binary_entropy((1.0 + xy * xr) / 2.0) - binary_entropy((1.0 + xr) / 2.0)
    return i_c, 1.0 - xy**2

