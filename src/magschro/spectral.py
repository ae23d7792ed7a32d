"""Dirichlet truncations of the operator on finite vertex windows.

The truncation keeps the full degree term of every window vertex (edges
leaving the window still contribute to the diagonal) and drops couplings to
outside vertices.  That makes the matrix-vector product agree exactly with
applying the operator to functions supported inside the window, which is the
cross-check every assembled matrix is held to.

Matrices are Hermitian with respect to the weighted inner product; the
similarity transform S = D^(1/2) M D^(-1/2) (D the diagonal of vertex
weights) is Hermitian in the ordinary sense and shares the spectrum, so
standard solvers apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigensolveError, InputError, UnknownVertexError
from .functions import VertexFunction
from .graphs import vertex_sort_key

DENSE_CUTOFF = 2000
RESIDUAL_CONTRACT = 1e-8


@dataclass
class TruncatedOperator:
    window: tuple
    index: dict  # vertex id -> row position
    matrix: sp.csr_matrix  # complex, row x acts as (Hu)(x) for in-window u
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.window)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def vector_of(self, u: VertexFunction) -> np.ndarray:
        """Coefficients of an in-window function; rejects outside support."""
        vec = np.zeros(self.size, dtype=complex)
        for x, v in u.items():
            if x not in self.index:
                raise InputError(f"function is supported outside the window at {x!r}")
            vec[self.index[x]] = complex(v)
        return vec

    def hermitian_defect(self) -> float:
        """max |w(x) M[x,y] - conj(w(y) M[y,x])| over all entries."""
        scaled = sp.diags(self.weights) @ self.matrix
        diff = (scaled - scaled.conjugate().transpose()).tocoo()
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0

    def symmetrized(self) -> sp.csr_matrix:
        root = np.sqrt(self.weights)
        return sp.diags(root) @ self.matrix @ sp.diags(1.0 / root)


def assemble_truncation(g, window) -> TruncatedOperator:
    """Assemble the operator restricted to functions supported in ``window``."""
    ordered = sorted(set(window), key=vertex_sort_key)
    if not ordered:
        raise InputError("window must be nonempty")
    for x in ordered:
        if not g.has_vertex(x):
            raise UnknownVertexError(x)
    index = {x: i for i, x in enumerate(ordered)}
    weights = np.array([g.vertex(x).weight for x in ordered], dtype=float)

    rows, cols, vals = [], [], []
    for i, x in enumerate(ordered):
        rec = g.vertex(x)
        degree_term = 0.0
        for e, data in g.neighbors(x):
            degree_term += data.weight
            j = index.get(e.terminus)
            if j is not None:
                # coupling coefficient of u(y): -(a(e) / w(x)) * conj(sigma(e))
                rows.append(i)
                cols.append(j)
                vals.append(-data.weight * complex(data.phase).conjugate() / rec.weight)
        rows.append(i)
        cols.append(i)
        vals.append(complex(degree_term / rec.weight + rec.potential))

    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(len(ordered), len(ordered)))
    return TruncatedOperator(tuple(ordered), index, matrix, weights)


class EigenExtremes(NamedTuple):
    lambda_min: float
    lambda_max: float
    residual: float  # max over both pairs of |S v - lambda v| / |v|
    method: str


def _polish_pair(herm, S, lam, vec, target):
    """Inverse-iteration refinement of a nearly converged eigenpair.

    The Krylov solver certifies convergence against its internal estimates,
    which on matrices with large norm can leave the true residual just above
    the contract; one linear solve at the converged shift restores it to the
    rounding floor.
    """
    identity = sp.identity(herm.shape[0], format="csc", dtype=complex)
    for _ in range(3):
        residual = np.linalg.norm(S @ vec - lam * vec) / np.linalg.norm(vec)
        if residual <= target:
            break
        try:
            w = spla.splu((herm - lam * identity).tocsc()).solve(vec)
        except RuntimeError:
            break
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0:
            break
        vec = w / norm
        lam = float((vec.conj() @ (herm @ vec)).real)
    return lam, vec


def eigen_extremes(trunc: TruncatedOperator, *, seed=0) -> EigenExtremes:
    """Extreme eigenvalues of the truncation with a residual certificate.

    Windows of up to ``DENSE_CUTOFF`` vertices are solved densely, larger
    ones by shift-invert Lanczos.  A solver failure, or a pair whose
    residual is not within ``RESIDUAL_CONTRACT`` (NaN included), raises
    :class:`EigensolveError`.
    """
    S = trunc.symmetrized()
    n = trunc.size
    try:
        if n <= DENSE_CUTOFF:
            dense = S.toarray()
            herm = (dense + dense.conjugate().T) / 2
            vals, vecs = np.linalg.eigh(herm)
            pairs = [(vals[0], vecs[:, 0]), (vals[-1], vecs[:, -1])]
            method = "dense"
        else:
            herm = ((S + S.conjugate().transpose()) / 2).tocsr()
            rng = np.random.default_rng(seed)
            v0 = rng.standard_normal(n)
            # shift-invert from just outside the Gershgorin interval: the factored
            # operator is definite and the extreme eigenvalue is the one nearest
            # the shift, so convergence does not suffer from the spectral spread
            diag = herm.diagonal()
            offdiag = np.asarray(np.abs(herm).sum(axis=1)).ravel() - np.abs(diag)
            g_lo = float(np.min(diag.real - offdiag))
            g_hi = float(np.max(diag.real + offdiag))
            margin = 1e-3 * max(g_hi - g_lo, 1.0)
            lo_val, lo_vec = spla.eigsh(herm, k=1, sigma=g_lo - margin, which="LM", v0=v0)
            hi_val, hi_vec = spla.eigsh(herm, k=1, sigma=g_hi + margin, which="LM", v0=v0)
            pairs = [_polish_pair(herm, S, lo_val[0], lo_vec[:, 0], RESIDUAL_CONTRACT / 2),
                     _polish_pair(herm, S, hi_val[0], hi_vec[:, 0], RESIDUAL_CONTRACT / 2)]
            method = "lanczos"
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # RuntimeError covers ARPACK errors and a singular shift-invert factor
        raise EigensolveError(f"eigensolver failed (n={n}): {exc}") from exc

    residual = 0.0
    for lam, vec in pairs:
        r = float(np.linalg.norm(S @ vec - lam * vec) / np.linalg.norm(vec))
        if not r <= RESIDUAL_CONTRACT:
            raise EigensolveError(
                f"eigenpair residual {r:.3e} exceeds the contract {RESIDUAL_CONTRACT:.0e} "
                f"({method}, n={n})")
        residual = max(residual, r)
    return EigenExtremes(float(pairs[0][0]), float(pairs[1][0]), residual, method)


class TrendRow(NamedTuple):
    size: int
    lambda_min: float
    lambda_max: float
    residual: float


def spectral_trend(g, windows, *, seed=0) -> list:
    """Extreme eigenvalues across a sequence of (typically nested) windows."""
    rows = []
    for window in windows:
        trunc = assemble_truncation(g, window)
        ext = eigen_extremes(trunc, seed=seed)
        rows.append(TrendRow(trunc.size, ext.lambda_min, ext.lambda_max, ext.residual))
    return rows
