"""Shared builders for the test suite."""

import json

import numpy as np

from qincompat.core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    random_density_matrix,
    random_observable_basis,
)


def qubit_basis(theta: float, phi: float = 0.0) -> ObservableBasis:
    """Qubit eigenbasis along the Bloch axis at polar angle theta."""
    up = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    down = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
    return ObservableBasis(np.column_stack([up, down]))


def bloch_axis(theta: float, phi: float = 0.0) -> np.ndarray:
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def random_context(dim: int, rng: np.random.Generator, pure: bool = False) -> Context:
    return Context(
        random_density_matrix(dim, rng, pure=pure),
        random_observable_basis(dim, rng),
        random_observable_basis(dim, rng),
    )


def eigenstate_context(dim: int, rng: np.random.Generator, index: int = 0) -> Context:
    first = random_observable_basis(dim, rng)
    second = random_observable_basis(dim, rng)
    state = DensityMatrix.pure(first.vectors[:, index])
    return Context(state, first, second)


def commuting_context(dim: int, rng: np.random.Generator) -> Context:
    """Same eigenvectors for both observables, shuffled eigenvalues."""
    basis = random_observable_basis(dim, rng)
    shuffled = ObservableBasis(
        basis.vectors, eigenvalues=rng.permutation(np.arange(1.0, dim + 1.0))
    )
    return Context(random_density_matrix(dim, rng), basis, shuffled)


def mub_mixture_context(dim: int, rng: np.random.Generator) -> Context:
    """State eps * Y_k + (1 - eps) * identity/d with unbiased eigenbases."""
    first = ObservableBasis.computational(dim)
    second = ObservableBasis.fourier(dim)
    eps = rng.uniform(0.0, 1.0)
    k = rng.integers(dim)
    column = second.vectors[:, k]
    state = DensityMatrix(
        eps * np.outer(column, column.conj()) + (1 - eps) * np.eye(dim) / dim
    )
    return Context(state, first, second)


def zero_information_context(dim: int, rng: np.random.Generator) -> Context:
    """Pure state with equal overlaps on every vector of the first basis."""
    first = random_observable_basis(dim, rng)
    phases = np.exp(2j * np.pi * rng.uniform(size=dim))
    state = DensityMatrix.pure(first.vectors @ phases)
    return Context(state, first, random_observable_basis(dim, rng))


def encode_matrix(matrix) -> list:
    matrix = np.asarray(matrix, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def write_document(path, dim, rho, x_cols, y_cols, **extra) -> str:
    """Write a version-1 context document and return its path."""
    doc = {
        "version": "1",
        "dim": dim,
        "rho": encode_matrix(rho),
        "x_basis": encode_matrix(x_cols),
        "y_basis": encode_matrix(y_cols),
    }
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)
