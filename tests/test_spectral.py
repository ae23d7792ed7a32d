import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from lattices import flux_lattice
from loop_oracles import loop_truncation
from magschro import spectral
from magschro.errors import EigensolveError, InputError
from magschro.families import make_family, quadratic_well_ray
from magschro.functions import VertexFunction
from magschro.operators import schrodinger_apply
from magschro.randomgraphs import (
    gauge_transformed,
    random_connected_graph,
    random_gauge,
    random_vertex_function,
)
from magschro.spectral import assemble_truncation, eigen_extremes, spectral_trend


def test_reference_window_matrix():
    g = quadratic_well_ray()
    trunc = assemble_truncation(g, [1, 2, 3])
    expected = np.array([[0.0, -1.0, 0.0], [-1.0, -2.0, -1.0], [0.0, -1.0, -7.0]])
    assert np.array_equal(trunc.dense(), expected.astype(complex))


def test_single_vertex_window():
    g = quadratic_well_ray()
    trunc = assemble_truncation(g, [5])
    assert trunc.dense() == np.array([[-23.0 + 0.0j]])
    ext = eigen_extremes(trunc)
    assert ext.lambda_min == ext.lambda_max == -23.0
    assert (ext.method, ext.shifts, ext.polish_solves) == ("dense", None, 0)


def test_window_validation():
    g = quadratic_well_ray()
    with pytest.raises(InputError):
        assemble_truncation(g, [])


def test_matrix_vector_matches_operator(rng):
    g = quadratic_well_ray()
    trunc = assemble_truncation(g, range(1, 31))
    for _ in range(20):
        ids = rng.choice(30, size=6, replace=False) + 1
        u = VertexFunction({int(i): complex(rng.normal(), rng.normal()) for i in ids})
        vec = trunc.vector_of(u)
        out = trunc.apply(vec)
        Hu = schrodinger_apply(g, u)
        expected = np.array([complex(Hu(x)) for x in trunc.window])
        scale = max(np.max(np.abs(expected)), 1e-30)
        assert np.max(np.abs(out - expected)) <= 1e-12 * scale


def test_matrix_vector_matches_operator_random_graphs(rng):
    for _ in range(8):
        g = random_connected_graph(rng, max_vertices=25)
        trunc = assemble_truncation(g, g.vertices())
        u = random_vertex_function(rng, g)
        out = trunc.apply(trunc.vector_of(u))
        Hu = schrodinger_apply(g, u)
        expected = np.array([complex(Hu(x)) for x in trunc.window])
        scale = max(np.max(np.abs(expected)), 1e-30)
        assert np.max(np.abs(out - expected)) <= 1e-12 * scale
        assert trunc.hermitian_defect() <= 1e-12


def test_vector_of_rejects_outside_support():
    g = quadratic_well_ray()
    trunc = assemble_truncation(g, [1, 2, 3])
    with pytest.raises(InputError):
        trunc.vector_of(VertexFunction.delta(7))


def test_lambda_min_rayleigh_bound():
    g = quadratic_well_ray()
    for k in (10, 20, 40):
        ext = eigen_extremes(assemble_truncation(g, range(1, k + 1)))
        assert ext.lambda_min <= 2 - k * k
        assert ext.residual <= 1e-8


def test_nonnegative_for_zero_potential(rng):
    g = random_connected_graph(rng, max_vertices=20)
    flat = gauge_transformed(g, {x: 1.0 + 0.0j for x in g.vertices()})
    # rebuild with zero potential, keeping weights and phases
    from magschro.graphs import ExplicitGraph

    zero = ExplicitGraph(
        {x: (g.vertex(x).weight, 0.0, g.vertex(x).minorant) for x in g.vertices()},
        {tuple(e): g.edge_data(e) for e in g.edges()},
    )
    ext = eigen_extremes(assemble_truncation(zero, zero.vertices()))
    assert ext.lambda_min >= -1e-10


def test_constant_shift_moves_spectrum():
    base = make_family({"family": "path", "size": 25})
    shifted = make_family({"family": "path", "size": 25, "W": "3"})
    rows_base = spectral_trend(base, [range(1, 26)])
    rows_shift = spectral_trend(shifted, [range(1, 26)])
    assert rows_shift[0].lambda_min == pytest.approx(rows_base[0].lambda_min + 3.0, abs=1e-10)
    assert rows_shift[0].lambda_max == pytest.approx(rows_base[0].lambda_max + 3.0, abs=1e-10)


def test_trend_reference_ray():
    g = quadratic_well_ray()
    rows = spectral_trend(g, [range(1, k + 1) for k in (10, 20, 40)])
    mins = [r.lambda_min for r in rows]
    assert mins[0] > mins[1] > mins[2]
    assert all(r.residual <= 1e-8 for r in rows)


def test_lambda_min_monotone_in_window(rng):
    g = random_connected_graph(rng, max_vertices=24)
    ids = g.vertices()
    rows = spectral_trend(g, [ids[:8], ids[:16], ids])
    mins = [r.lambda_min for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(mins, mins[1:]))


def test_gauge_invariance_of_spectrum(rng):
    g = random_connected_graph(rng, max_vertices=18)
    tau = random_gauge(rng, g)
    gg = gauge_transformed(g, tau)
    a = np.linalg.eigvalsh(assemble_truncation(g, g.vertices()).symmetrized().toarray())
    b = np.linalg.eigvalsh(assemble_truncation(gg, gg.vertices()).symmetrized().toarray())
    scale = max(np.max(np.abs(a)), 1.0)
    assert np.max(np.abs(a - b)) <= 1e-9 * scale


def test_hermitian_defect_random(rng):
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=30)
        trunc = assemble_truncation(g, g.vertices())
        assert trunc.hermitian_defect() <= 1e-12


def test_lanczos_path_agrees_with_dense(rng, monkeypatch):
    g = random_connected_graph(rng, min_vertices=12, max_vertices=16)
    trunc = assemble_truncation(g, g.vertices())
    dense = eigen_extremes(trunc)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 4)
    lanczos = eigen_extremes(trunc)
    assert lanczos.method == "lanczos"
    scale = max(abs(dense.lambda_min), abs(dense.lambda_max), 1.0)
    assert lanczos.lambda_min == pytest.approx(dense.lambda_min, abs=1e-7 * scale)
    assert lanczos.lambda_max == pytest.approx(dense.lambda_max, abs=1e-7 * scale)


def test_lanczos_large_window_reference_ray():
    g = quadratic_well_ray()
    k = 2500
    ext = eigen_extremes(assemble_truncation(g, range(1, k + 1)))
    assert ext.method == "lanczos"
    assert ext.lambda_min <= 2 - k * k
    assert ext.residual <= 1e-8


def _ray_tridiagonal(c, k):
    """Diagonal and off-diagonal of the ray truncation 1..K with W(n) = c n^2."""
    n = np.arange(1, k + 1, dtype=float)
    diag = 2.0 + c * n * n
    diag[0] -= 1.0
    return diag, -np.ones(k - 1)


def _ray_reference_extremes(c, k):
    """Both ends of the ray truncation 1..K, from LAPACK bisection."""
    diag, off = _ray_tridiagonal(c, k)
    lo = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))
    hi = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(k - 1, k - 1))
    return float(lo[0]), float(hi[0])


@pytest.mark.parametrize("size, cutoff", [(30, 30), (5, 30), (30, 4)],
                         ids=["dense-30", "dense-5", "lanczos-30"])
def test_nan_potential_raises_eigensolve_error(monkeypatch, size, cutoff):
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", cutoff)
    # graphs reject non-finite data, so the NaN goes into the assembled matrix
    trunc = assemble_truncation(make_family({"family": "path", "size": size}),
                                range(1, size + 1))
    trunc.matrix[1, 1] = math.nan
    with pytest.raises(EigensolveError, match="non-finite"):
        eigen_extremes(trunc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_hermitian_part_is_a_non_finite_entry():
    # S is finite, but (S + S^H) / 2 overflows on the diagonal W = 1e308
    trunc = assemble_truncation(make_family({"family": "path", "size": 300, "W": "1e308"}),
                                range(1, 101))
    assert np.isfinite(trunc.symmetrized().data).all()
    with pytest.raises(EigensolveError, match=r"truncation has non-finite entries \(n=100\)"):
        eigen_extremes(trunc)


@pytest.mark.parametrize("k", [5000, 10000])
def test_lanczos_well_matches_tridiagonal_reference(k):
    # at K=10000 a shift 1e-3 x the Gershgorin spread out leaves the top pair
    # above the contract until _polish_pair refines it
    ext = eigen_extremes(assemble_truncation(quadratic_well_ray(), range(1, k + 1)))
    assert ext.method == "lanczos"
    assert ext.residual <= spectral.RESIDUAL_CONTRACT
    assert ext.lambda_min <= 2 - k * k
    lo, hi = _ray_reference_extremes(-1.0, k)
    scale = max(abs(lo), abs(hi))
    assert abs(ext.lambda_min - lo) <= 1e-12 * scale
    assert abs(ext.lambda_max - hi) <= 1e-12 * scale
    # each shift lies outside the spectrum and within a few units of its end;
    # a margin of 1e-3 x the Gershgorin spread would put it 2.5e4 away at K=5000
    assert 0 < ext.lambda_min - ext.shifts[0] <= 1e-6 * scale
    assert 0 < ext.shifts[1] - ext.lambda_max <= 1e-6 * scale
    if k == 5000:
        assert ext.polish_solves == 0


def test_polish_pair_restores_the_contract_on_reference_ray(monkeypatch):
    # the K=5000 top eigenvector, perturbed to a residual of about 1e-8, comes
    # back within the polish target after exactly one inverse-iteration solve
    solves = []
    splu = spectral.spla.splu

    def counting_splu(matrix):
        factor = splu(matrix)

        class Counting:
            def solve(self, rhs):
                solves.append(rhs.shape)
                return factor.solve(rhs)

        return Counting()

    monkeypatch.setattr(spectral.spla, "splu", counting_splu)
    k = 5000
    S = assemble_truncation(quadratic_well_ray(), range(1, k + 1)).symmetrized()
    herm = S.real.tocsr()
    diag, off = _ray_tridiagonal(-1.0, k)
    lam, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(k - 1, k - 1))
    lam, vec = float(lam[0]), vecs[:, 0]
    direction = np.random.default_rng(5).standard_normal(k)
    direction *= 1e-8 / np.linalg.norm(S @ direction - lam * direction)
    vec = vec + direction

    def residual(lam, vec):
        return np.linalg.norm(S @ vec - lam * vec) / np.linalg.norm(vec)

    assert 0.9e-8 <= residual(lam, vec) <= 1.1e-8
    target = spectral.RESIDUAL_CONTRACT / 2
    lam, vec, count = spectral._polish_pair(herm, S, lam, vec, target)
    assert solves == [(k,)] and count == 1
    assert residual(lam, vec) <= target


def test_clustered_free_ray_matches_tridiagonal_reference():
    # on the free ray at K=10000 the eigenvalue gaps near both ends are ~1e-7
    k = 10000
    ext = eigen_extremes(assemble_truncation(make_family({"family": "path-nat"}),
                                             range(1, k + 1)))
    lo, hi = _ray_reference_extremes(0.0, k)
    assert ext.method == "lanczos"
    assert ext.residual <= spectral.RESIDUAL_CONTRACT
    tol = 1e-12 * max(abs(lo), abs(hi))
    assert abs(ext.lambda_min - lo) <= tol
    assert abs(ext.lambda_max - hi) <= tol


def test_gauge_transformed_path_matches_real_path(rng, monkeypatch):
    dtypes = []
    eigsh = spectral.spla.eigsh

    def recording_eigsh(matrix, **kwargs):
        dtypes.append(matrix.dtype)
        return eigsh(matrix, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", recording_eigsh)
    k = 3000
    path = make_family({"family": "path", "size": k})
    twisted = gauge_transformed(path, random_gauge(rng, path))
    real = eigen_extremes(assemble_truncation(path, range(1, k + 1)))
    ext = eigen_extremes(assemble_truncation(twisted, range(1, k + 1)))
    assert dtypes == [np.float64] * 2 + [np.complex128] * 2
    assert ext.method == real.method == "lanczos"
    assert ext.residual <= spectral.RESIDUAL_CONTRACT
    scale = max(abs(real.lambda_min), abs(real.lambda_max), 1.0)
    assert ext.lambda_min == pytest.approx(real.lambda_min, abs=1e-8 * scale)
    assert ext.lambda_max == pytest.approx(real.lambda_max, abs=1e-8 * scale)


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1))
def test_lanczos_agrees_with_dense_on_random_graphs(seed):
    g = random_connected_graph(np.random.default_rng(seed), min_vertices=5, max_vertices=40)
    trunc = assemble_truncation(g, g.vertices())
    dense = eigen_extremes(trunc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "DENSE_CUTOFF", 4)
        lanczos = eigen_extremes(trunc)
    assert (dense.method, lanczos.method) == ("dense", "lanczos")
    # a residual certificate puts a Hermitian eigenvalue within the residual
    scale = max(abs(dense.lambda_min), abs(dense.lambda_max), 1.0)
    tol = spectral.RESIDUAL_CONTRACT * scale
    assert abs(lanczos.lambda_min - dense.lambda_min) <= tol
    assert abs(lanczos.lambda_max - dense.lambda_max) <= tol


@pytest.mark.parametrize("spec, window", [
    ({"family": "path-nat", "W": "-(n^2)", "q": "n^2"}, range(1, 2002)),
    ({"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3 + 1/3", "W": "sqrt(n) - 7"}, range(1, 11)),
    ({"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3 + 1/3", "W": "sqrt(n) - 7"},
     range(40, 3000)),
    ({"family": "path-nat", "w": "n", "a": "3"}, [7]),
])
def test_ray_runs_assemble_like_the_loop(spec, window):
    g = make_family(spec)
    fast = assemble_truncation(g, window)
    slow = loop_truncation(make_family(spec), window)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(fast.matrix, name), getattr(slow.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert fast.weights.tobytes() == slow.weights.tobytes()
    assert fast.window == slow.window and fast.index == slow.index
    assert all(type(x) is int for x in fast.window)


def test_scattered_ray_windows_are_cut_from_the_records():
    g = quadratic_well_ray()
    g.neighbors = g.vertex = lambda x: pytest.fail("a scattered window reads the oracle")
    trunc = assemble_truncation(g, [1, 2, 4, 1500])
    assert trunc.size == 4
    assert trunc.matrix.toarray().real.tolist() == [[0.0, -1.0, 0.0, 0.0], [-1.0, -2.0, 0.0, 0.0],
                                                    [0.0, 0.0, -14.0, 0.0],
                                                    [0.0, 0.0, 0.0, 2.0 - 1500.0 ** 2]]


def _hermitian_part(trunc):
    S = trunc.symmetrized()
    herm = ((S + S.conjugate().transpose()) / 2).tocsr()
    return herm if np.any(herm.data.imag) else herm.real


@pytest.mark.parametrize("case", ["well-5000", "flux-lattice-400"])
def test_shift_factor_keeps_the_diagonal_pivots_of_a_definite_matrix(case):
    # the factor behind each Lanczos shift: no row exchange, and every pivot
    # carries the sign of H - sigma I (positive below the spectrum, negative
    # above), so it counts inertia as well as solving
    if case == "well-5000":
        trunc = assemble_truncation(quadratic_well_ray(), range(1, 5001))
    else:
        g = flux_lattice(20, 1)
        trunc = assemble_truncation(g, g.vertices())
    assert trunc.size > spectral.DENSE_CUTOFF
    herm = _hermitian_part(trunc)
    assert herm.dtype == (np.float64 if case == "well-5000" else np.complex128)
    shifts = eigen_extremes(trunc).shifts
    for sign, sigma in zip((1, -1), shifts):
        lu = spectral._shift_factor(herm, sigma)
        assert np.array_equal(lu.perm_r, lu.perm_c)
        pivots = lu.U.diagonal()
        assert np.all(sign * pivots.real > 0)
        assert np.all(np.abs(pivots.imag) <= 1e-12 * np.abs(pivots.real))


def test_flux_lattice_lanczos_agrees_with_dense_and_counts_its_solves(monkeypatch):
    solves = []
    factor = spectral._shift_factor

    def counting_factor(herm, sigma):
        lu = factor(herm, sigma)
        solves.append(0)

        class Counting:
            def solve(self, rhs):
                solves[-1] += 1
                return lu.solve(rhs)

        return Counting()

    monkeypatch.setattr(spectral, "_shift_factor", counting_factor)
    g = flux_lattice(20, 1)
    trunc = assemble_truncation(g, g.vertices())
    ext = eigen_extremes(trunc)
    assert ext.method == "lanczos" and ext.residual <= spectral.RESIDUAL_CONTRACT
    assert ext.solves == tuple(solves) and min(solves) > 0
    vals = np.linalg.eigvalsh(trunc.symmetrized().toarray())
    scale = max(abs(vals[0]), abs(vals[-1]), 1.0)
    assert abs(ext.lambda_min - vals[0]) <= spectral.RESIDUAL_CONTRACT * scale
    assert abs(ext.lambda_max - vals[-1]) <= spectral.RESIDUAL_CONTRACT * scale


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lower_shift_comes_from_the_tighter_gershgorin_bound(seed):
    # w varies on the lattice, so the discs of the assembled M, which is
    # similar to S, end above those of S: the shift below them is still
    # below the spectrum, factors with positive pivots and no row exchange,
    # and finds the dense solver's smallest eigenvalue
    g = flux_lattice(24, seed)
    trunc = assemble_truncation(g, g.vertices())
    herm = _hermitian_part(trunc)
    dense = herm.toarray()
    radii = np.abs(dense).sum(axis=1) - np.abs(dense.diagonal())
    s_bound = float(np.min(dense.diagonal().real - radii))
    ext = eigen_extremes(trunc)
    vals = np.linalg.eigvalsh(trunc.symmetrized().toarray())
    assert s_bound < ext.shifts[0] < vals[0]
    lu = spectral._shift_factor(herm, ext.shifts[0])
    assert np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal().real > 0)
    scale = max(abs(vals[0]), abs(vals[-1]), 1.0)
    assert abs(ext.lambda_min - vals[0]) <= spectral.RESIDUAL_CONTRACT * scale
    assert abs(ext.lambda_max - vals[-1]) <= spectral.RESIDUAL_CONTRACT * scale
