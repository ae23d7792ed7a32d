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

:func:`eigen_extremes` solves windows of up to ``DENSE_CUTOFF`` vertices
densely and larger ones by shift-invert Lanczos from just outside the
Gershgorin bound, in real arithmetic when all phases are real.  The cut-off
is the measured crossover of the two paths on the quadratic well and on a
complex flux lattice (both near 200 vertices on a 2-core OpenBLAS box).
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

DENSE_CUTOFF = 200
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
    run = _run_rows(g, ordered)
    if run is not None:
        win, rows = run
        return TruncatedOperator(tuple(ordered), index, _assemble_rows(win, rows),
                                 win.w[rows].copy())
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


def _run_rows(g, ordered):
    """A window holding the run of integer ids ``ordered`` among its interior
    rows, with those rows as a slice, or None."""
    lo, hi = ordered[0], ordered[-1]
    if not (isinstance(lo, int) and isinstance(hi, int) and hi - lo == len(ordered) - 1):
        return None
    center = lo + (hi - lo) // 2
    win = g.hop_window(center, hi - center + 1)
    if win is None or np.any(win.sigma.imag != 0):
        return None
    first = int(np.searchsorted(win.ids, lo))
    rows = slice(first, first + len(ordered))
    if win.ids[rows.stop - 1] != hi or not np.all(win.interior[rows]):
        return None
    return win, rows


def _assemble_rows(win, rows):
    """The truncation matrix on interior ``rows`` of a window with real phases.

    The entries are those of the loop in :func:`assemble_truncation`, bit
    for bit and in the same order: per row, the in-window couplings in
    neighbor order, then the diagonal.
    """
    size = rows.stop - rows.start
    starts = win.indptr[rows.start:rows.stop + 1]
    entries = slice(starts[0], starts[-1])
    src = win.rows()[entries] - rows.start
    dst = win.indices[entries] - rows.start
    a = win.a[entries]
    w = win.w[rows]
    # sum a(e) from 0.0 in neighbor order, as the loop does
    lengths = np.diff(starts)
    degree = np.zeros(size)
    for j in range(lengths.max()):
        has = lengths > j
        degree[has] += a[starts[:-1][has] - starts[0] + j]
    coupling = (-a * win.sigma.real[entries]) / w[src]
    inside = np.flatnonzero((dst >= 0) & (dst < size))
    src, dst, coupling = src[inside], dst[inside], coupling[inside]
    # each row's diagonal follows its couplings
    slots = np.arange(len(inside)) + src
    diagonal = np.cumsum(np.bincount(src, minlength=size)) + np.arange(size)
    coo_rows = np.empty(len(inside) + size, dtype=np.int64)
    coo_cols = np.empty_like(coo_rows)
    vals = np.empty(len(coo_rows), dtype=complex)
    coo_rows[slots], coo_cols[slots], vals[slots] = src, dst, coupling
    coo_rows[diagonal] = coo_cols[diagonal] = np.arange(size)
    vals[diagonal] = degree / w + win.W[rows]
    return sp.csr_matrix((vals, (coo_rows, coo_cols)), shape=(size, size))


class EigenExtremes(NamedTuple):
    lambda_min: float
    lambda_max: float
    residual: float  # max over both pairs of |S v - lambda v| / |v|
    method: str  # "dense" or "lanczos"
    shifts: tuple | None = None  # shift-invert points (below, above); None when dense
    polish_solves: int = 0  # inverse-iteration solves spent by _polish_pair


def _polish_pair(herm, S, lam, vec, target):
    """Inverse-iteration refinement of a nearly converged eigenpair.

    The Krylov solver certifies convergence against its internal estimates,
    which on matrices with large norm can leave the true residual just above
    the contract; one linear solve at the converged shift restores it to the
    rounding floor.  Returns the refined pair and the number of solves.
    """
    identity = sp.identity(herm.shape[0], format="csc", dtype=herm.dtype)
    solves = 0
    for _ in range(3):
        residual = np.linalg.norm(S @ vec - lam * vec) / np.linalg.norm(vec)
        if residual <= target:
            break
        try:
            w = spla.splu((herm - lam * identity).tocsc()).solve(vec)
        except RuntimeError:
            break
        solves += 1
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0:
            break
        vec = w / norm
        lam = float((vec.conj() @ (herm @ vec)).real)
    return lam, vec, solves


def eigen_extremes(trunc: TruncatedOperator, *, seed=0) -> EigenExtremes:
    """Extreme eigenvalues of the truncation with a residual certificate.

    Windows of up to ``DENSE_CUTOFF`` vertices are solved densely, larger
    ones by shift-invert Lanczos from just outside the Gershgorin interval.
    Both run in real arithmetic when the symmetrized matrix has no imaginary
    part.  A non-finite entry, a solver failure, or a pair whose residual is
    not within ``RESIDUAL_CONTRACT`` (NaN included) raises
    :class:`EigensolveError`.
    """
    S = trunc.symmetrized()
    n = trunc.size
    if not np.all(np.isfinite(S.data)):
        raise EigensolveError(f"truncation has non-finite entries (n={n})")
    herm = ((S + S.conjugate().transpose()) / 2).tocsr()
    if not np.any(herm.data.imag):
        herm = herm.real
    shifts, polish_solves = None, 0
    try:
        if n <= DENSE_CUTOFF:
            vals, vecs = np.linalg.eigh(herm.toarray())
            pairs = [(vals[0], vecs[:, 0]), (vals[-1], vecs[:, -1])]
            method = "dense"
        else:
            rng = np.random.default_rng(seed)
            v0 = rng.standard_normal(n)
            # the Gershgorin interval holds the spectrum, so a shift just outside
            # it keeps the factored operator definite and makes the extreme
            # eigenvalue the one nearest the shift; a margin on the scale of the
            # bound, not of the spread, stays above the bound's rounding error
            # and keeps the shift close to that eigenvalue
            diag = herm.diagonal().real
            offdiag = np.asarray(np.abs(herm).sum(axis=1)).ravel() - np.abs(diag)
            g_lo = float(np.min(diag - offdiag))
            g_hi = float(np.max(diag + offdiag))
            margin = 1e-8 * max(abs(g_lo), abs(g_hi), 1.0)
            shifts = (g_lo - margin, g_hi + margin)
            pairs = []
            for sigma in shifts:
                val, vec = spla.eigsh(herm, k=1, sigma=sigma, which="LM", v0=v0)
                lam, vec, solves = _polish_pair(herm, S, val[0], vec[:, 0],
                                                RESIDUAL_CONTRACT / 2)
                pairs.append((lam, vec))
                polish_solves += solves
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
    return EigenExtremes(float(pairs[0][0]), float(pairs[1][0]), residual, method,
                         shifts, polish_solves)


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
