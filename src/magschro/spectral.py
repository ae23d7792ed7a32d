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

:func:`eigen_extremes` tries three paths in turn and returns the first whose
pairs meet ``RESIDUAL_CONTRACT``: a dense solve of a window of up to
``DENSE_CUTOFF`` vertices; Sturm count bisection and inverse iteration at
both ends, after a diagonal gauge makes the couplings real, of a window of
any size whose Hermitian part couples only neighbouring rows, as every
window of a ray or a path does (on the ray the operator is a Jacobi
operator); and shift-invert Lanczos from just outside a Gershgorin bound, in
real arithmetic when all phases are real, of every larger window.  Bisection
takes 3.3-4.2 ms against 6.1-7.3 ms for Lanczos at K = 2000 on the quadratic
well and the free ray, 14-16 against 22-25 ms at K = 10,000 (2-core box,
medians of 15).  :func:`eigen_extremes` polishes the tridiagonal and Lanczos
pairs, not the dense ones, by inverse iteration where a pair is above half
the contract; one Rayleigh correction, :func:`_rayleigh`, gives both the
bisection eigenvalue and each polished one.  A miss is the float64 floor.
A dense pair can miss it from about |lambda| = 1.3e7 (on the ray w = n^-2.5,
a = n^0.5 at K = 154, on the ray a = n^3 at K = 169), where bisection's pair
still meets it.  Past |lambda| = 1.3e8 half an ulp of lambda exceeds the
contract, which a pair then meets only where the rounding of its residual
falls its way (on the quadratic well up to K = 100,000 at least, on the ray
w = 1, a = n^3 not from K = 500 on, where Lanczos misses it too).  Each bound
is the tighter of two that hold the same spectrum: the Gershgorin interval
of the symmetrized S and that of the assembled M, which is similar to it.
M's rows sum a(e) / w(x), so where w varies its lower bound is often the
tighter: -3.96 against -11.71 on the 8000-vertex window of perfbench's
seed-1 flux lattice, where the shift's Lanczos run then takes 71 solves
against 121.  With w = 1, M and S are one matrix.  Each
shift is factored once, by a sparse LU in SuperLU's symmetric mode: one
minimum degree ordering of A + A^T applied to rows and columns alike, and
the diagonal taken as pivot with no row exchange (``_shift_factor``).
That is safe because the shift lies beyond every Gershgorin disc of M or
of S, so beyond the spectrum of the Hermitian H: H - sigma I is definite
(it need not be diagonally dominant), every symmetric reordering of it is
too, and elimination without row exchange keeps each pivot's sign.  The
factor has less fill than the partially pivoted,
COLAMD-ordered one that ARPACK's driver would build: L + U entries
482k -> 281k and 30.5k -> 21.3k on 8000- and 1000-vertex flux-lattice
windows.  ARPACK gets at most ``LANCZOS_MAXITER`` restarts per shift, over
20 times what any window of the tests or benchmark needs (at most 11), so
a spectrum it cannot resolve, such as that of a limit-circle ray, ends in
:class:`EigensolveError` within a second rather than minutes.

The cut-off sits one step above the measured crossover of the two paths
(2-core OpenBLAS box, medians of 15, windows in steps of 20).  With this
factor, Lanczos overtakes the dense solve between 160 and 180 vertices,
the same step as with the pivoted factor.  On the quadratic well Lanczos
takes 1.63 ms against 1.51 ms dense at 160 and 1.64 against 1.81 ms at 180;
on a complex flux lattice, 4.03 against 3.95 ms and 4.17 against 5.57 ms.
Quartiles lie within 0.05 ms of these medians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .errors import EigensolveError, InputError
from .functions import VertexFunction
from .graphs import sorted_ids
from .operators import python_product

DENSE_CUTOFF = 200
RESIDUAL_CONTRACT = 1e-8
LANCZOS_MAXITER = 300  # ARPACK restarts per shift


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
    """Assemble the operator restricted to functions supported in ``window``.

    One array pass over the rows of the window's vertices in their closure
    (:meth:`~magschro.graphs.WeightedGraph.closure_window`), whose rows list
    every neighbor.  Row x holds the couplings -(a(e) / w(x)) conj(sigma(e))
    of its neighbors in the window and the diagonal a(x) / w(x) + W(x), where
    a(x) sums a(e) over all of its edges in neighbor order.  The numbers are
    those of Python's scalar arithmetic, signed zeros included: a float
    times or over a complex number acts as a complex one with imaginary part
    +0.0, and exact data are converted to floats.
    """
    members = set(window)
    if not members:
        raise InputError("window must be nonempty")
    ordered = sorted_ids(members)
    win = g.closure_window(ordered)
    rows = np.flatnonzero(win.holds(members))  # the k-th row is ordered[k]
    size = len(ordered)
    position = np.full(len(win.ids), -1)
    position[rows] = np.arange(size)
    src = position[win.rows()]
    entries = np.flatnonzero(src >= 0)
    src, dst = src[entries], position[win.indices[entries]]
    a = win.a[entries].astype(float)
    w = win.w[rows].astype(float)
    degree = np.zeros(size)
    np.add.at(degree, src, a)  # in neighbor order, from 0.0
    # (-a + 0j) * conj(sigma), then over (w + 0j), as complex_mul and _Py_c_quot do
    inside = dst >= 0
    src, dst, entries = src[inside], dst[inside], entries[inside]
    p = python_product((-a[inside]).astype(complex), win.sigma[entries].astype(complex).conj())
    coupling = np.empty(len(src), dtype=complex)
    coupling.real = (p.real + p.imag * 0.0) / w[src]
    coupling.imag = (p.imag - p.real * 0.0) / w[src]
    diagonal = (degree / w + win.W[rows].astype(float)).astype(complex)
    span = np.arange(size)
    matrix = sp.csr_matrix((np.concatenate([coupling, diagonal]),
                            (np.concatenate([src, span]), np.concatenate([dst, span]))),
                           shape=(size, size))
    return TruncatedOperator(tuple(ordered), {x: i for i, x in enumerate(ordered)}, matrix, w)


class EigenExtremes(NamedTuple):
    lambda_min: float
    lambda_max: float
    residual: float  # max over both pairs of |S v - lambda v| / |v|
    method: str  # "dense", "tridiagonal" or "lanczos" (tried in that order): the one returned
    shifts: tuple | None = None  # shift-invert points (below, above); None unless "lanczos"
    polish_solves: int = 0  # inverse-iteration solves _polish_pair spent on the returned pairs
    solves: tuple | None = None  # Lanczos solves per shift (below, above); None unless "lanczos"


def _shift_factor(herm, sigma):
    """Sparse LU factor of ``herm - sigma I`` for a shift outside the spectrum.

    The shift lies outside a Gershgorin interval that holds the spectrum, so
    the Hermitian matrix is definite, and so is every Schur complement of
    it: the factor takes its pivots on the diagonal, with no row exchange,
    after one symmetric fill-reducing ordering of the columns and rows
    (minimum degree on A + A^T).  The pivots then all carry the sign of the
    matrix, positive below the spectrum and negative above it.
    """
    identity = sp.identity(herm.shape[0], format="csc", dtype=herm.dtype)
    return spla.splu((herm - sigma * identity).tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0, options={"SymmetricMode": True})


def _gershgorin(matrix):
    """The ends of the union of the Gershgorin discs of ``matrix``."""
    diag = matrix.diagonal().real
    offdiag = np.asarray(np.abs(matrix).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - offdiag)), float(np.max(diag + offdiag))


def _lanczos_pair(herm, sigma, v0):
    """The eigenpair of ``herm`` nearest the shift, by shift-invert Lanczos
    on the shift's factor.  Returns the pair and the number of solves.  The
    factor is freed on return, before the next shift's is built."""
    lu = _shift_factor(herm, sigma)
    solves = 0

    def solve(rhs):
        nonlocal solves
        solves += 1
        return lu.solve(rhs)

    inverse = spla.LinearOperator(herm.shape, matvec=solve, dtype=herm.dtype)
    val, vec = spla.eigsh(herm, k=1, sigma=sigma, which="LM", v0=v0, OPinv=inverse,
                          maxiter=LANCZOS_MAXITER)
    return val[0], vec[:, 0], solves


def _rayleigh(herm, mu, vec):
    """mu + v^H (H v - mu v) / v^H v: the Rayleigh quotient of ``vec`` as a
    correction to the estimate mu.  H v - mu v cancels entry by entry, so the
    correction carries rounding of its own size, where v^H H v / v^H v carries
    that of lambda: on the quadratic well's tridiagonal pairs the residual is
    1.1e-13 against 9.3e-10 at K = 2000, 2.8e-17 against 6.0e-8 at 20,000."""
    return float(mu + (vec.conj() @ (herm @ vec - mu * vec)).real / (vec.conj() @ vec).real)


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
        lam = _rayleigh(herm, lam, vec)
    return lam, vec, solves


def _tridiagonal(herm):
    """The diagonal and superdiagonal of ``herm`` when it couples rows next to
    each other only, as the truncation of a ray or a path does; else None.
    One pass over the stored entries, |column - row| <= 1, after a count:
    a tridiagonal matrix stores at most 3n - 2 of them."""
    n = herm.shape[0]
    if herm.nnz > 3 * n - 2:
        return None
    rows = np.repeat(np.arange(n), np.diff(herm.indptr))
    if not np.all(np.abs(herm.indices - rows) <= 1):
        return None
    return herm.diagonal().real, herm.diagonal(1)


def _tridiagonal_pairs(herm, diag, h):
    """Both extreme eigenpairs of the tridiagonal ``herm`` by Sturm count
    bisection and inverse iteration (LAPACK's stebz and stein), each
    eigenvalue taken as the :func:`_rayleigh` correction of the bisection
    value to its vector.  LAPACK's ``LinAlgError`` is raised to the caller.

    The diagonal unitary with d_0 = 1 and d_(i+1) = d_i conj(h_i) / |h_i|, and
    d_(i+1) = d_i where h_i = 0, turns the superdiagonal h into |h|, so the
    real solver applies and each of its vectors y maps back to d y; a zero
    h_i splits the matrix into blocks.
    """
    unit = np.ones_like(h)
    coupled = h != 0
    unit[coupled] = h[coupled].conj() / np.abs(h[coupled])
    gauge = np.concatenate([np.ones(1, h.dtype), np.cumprod(unit)])
    pairs = []
    for i in (0, len(diag) - 1):
        (mu,), y = eigh_tridiagonal(diag, np.abs(h), select="i", select_range=(i, i))
        vec = gauge * y[:, 0]
        pairs.append((_rayleigh(herm, mu, vec), vec))
    return pairs


def _lanczos_pairs(trunc, herm, seed):
    """Both extreme eigenpairs by shift-invert Lanczos from just outside the
    tighter Gershgorin interval.  Returns the pairs, the shifts and the
    solves per shift.
    """
    v0 = np.random.default_rng(seed).standard_normal(herm.shape[0])
    # the Gershgorin intervals of S and of M, which is similar to S, both hold
    # the spectrum, so a shift just outside the tighter end keeps the factored
    # operator definite and makes the extreme eigenvalue the one nearest the
    # shift; a margin on the scale of the bound, not of the spread, stays above
    # the bound's rounding error and keeps the shift close to that eigenvalue
    (s_lo, s_hi), (m_lo, m_hi) = _gershgorin(herm), _gershgorin(trunc.matrix)
    g_lo, g_hi = max(s_lo, m_lo), min(s_hi, m_hi)
    margin = 1e-8 * max(abs(g_lo), abs(g_hi), 1.0)
    shifts = (g_lo - margin, g_hi + margin)
    solved = [_lanczos_pair(herm, sigma, v0) for sigma in shifts]
    return [(lam, vec) for lam, vec, _ in solved], shifts, tuple(n for *_, n in solved)


def _worst_residual(S, pairs):
    """The largest residual |S v - lambda v| / |v| over ``pairs``, or the first
    one that is not within ``RESIDUAL_CONTRACT`` (NaN included)."""
    worst = 0.0
    for lam, vec in pairs:
        r = float(np.linalg.norm(S @ vec - lam * vec) / np.linalg.norm(vec))
        if not r <= RESIDUAL_CONTRACT:
            return r
        worst = max(worst, r)
    return worst


def eigen_extremes(trunc: TruncatedOperator, *, seed=0) -> EigenExtremes:
    """Extreme eigenvalues of the truncation with a residual certificate.

    The paths are tried in this order, each where it applies: dense for a
    window of up to ``DENSE_CUTOFF`` vertices, :func:`_tridiagonal_pairs`
    for a window of any size whose Hermitian part is tridiagonal in row
    order (every ray window, every window of a finite path), and
    :func:`_lanczos_pairs` for a window above the cut-off.  The pairs of the
    last two are polished here, by :func:`_polish_pair`, and the first path
    whose pairs are then within ``RESIDUAL_CONTRACT`` is returned.  A path fails
    when its solver raises (LAPACK, a singular shift-invert factor, a shift
    that ARPACK does not resolve within ``LANCZOS_MAXITER`` restarts) or a
    pair's residual is not within the contract (NaN included); when every
    path fails, the :class:`EigensolveError` of the last one is raised, so a
    limit-circle ray's large window still ends at the restart cap.  A
    non-finite entry of S or of its Hermitian part raises it before any
    path.  The dense and Lanczos solves run in real arithmetic when the
    symmetrized matrix has no imaginary part.
    """
    S = trunc.symmetrized()
    n = trunc.size
    with np.errstate(over="ignore", invalid="ignore"):  # S + S^H can overflow where S does not
        herm = ((S + S.conjugate().transpose()) / 2).tocsr()
    if not (np.all(np.isfinite(S.data)) and np.all(np.isfinite(herm.data))):
        raise EigensolveError(f"truncation has non-finite entries (n={n})")
    if not np.any(herm.data.imag):
        herm = herm.real
    parts = _tridiagonal(herm)
    paths = [method for method, on in (("dense", n <= DENSE_CUTOFF),
                                       ("tridiagonal", parts is not None),
                                       ("lanczos", n > DENSE_CUTOFF)) if on]
    for method in paths:
        shifts, polish_solves, solves = None, 0, None
        try:
            if method == "dense":
                vals, vecs = np.linalg.eigh(herm.toarray())
                pairs = [(vals[0], vecs[:, 0]), (vals[-1], vecs[:, -1])]
            elif method == "tridiagonal":
                pairs = _tridiagonal_pairs(herm, *parts)
            else:
                pairs, shifts, solves = _lanczos_pairs(trunc, herm, seed)
            if method != "dense":
                polished = [_polish_pair(herm, S, *pair, RESIDUAL_CONTRACT / 2) for pair in pairs]
                pairs = [(lam, vec) for lam, vec, _ in polished]
                polish_solves = sum(count for *_, count in polished)
        except spla.ArpackNoConvergence as exc:
            cause, message = exc, (f"Lanczos did not converge within LANCZOS_MAXITER="
                                   f"{LANCZOS_MAXITER} restarts (n={n}): {exc}")
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            # RuntimeError covers ARPACK errors and a singular shift-invert factor
            cause, message = exc, f"eigensolver failed (n={n}): {exc}"
        else:
            residual = _worst_residual(S, pairs)
            if residual <= RESIDUAL_CONTRACT:
                return EigenExtremes(float(pairs[0][0]), float(pairs[1][0]), residual, method,
                                     shifts, polish_solves, solves)
            cause, message = None, (f"eigenpair residual {residual:.3e} exceeds the contract "
                                    f"{RESIDUAL_CONTRACT:.0e} ({method}, n={n})")
    raise EigensolveError(message) from cause


class TrendRow(NamedTuple):
    size: int
    lambda_min: float
    lambda_max: float
    residual: float


def _window_extremes(g, windows, seed=0):
    """Each window's truncation and its :class:`EigenExtremes`, in order."""
    for window in windows:
        trunc = assemble_truncation(g, window)
        yield trunc, eigen_extremes(trunc, seed=seed)


def spectral_trend(g, windows, *, seed=0) -> list:
    """Extreme eigenvalues across a sequence of (typically nested) windows."""
    return [TrendRow(trunc.size, ext.lambda_min, ext.lambda_max, ext.residual)
            for trunc, ext in _window_extremes(g, windows, seed)]
