import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from lattices import flux_lattice
from loop_oracles import loop_truncation
from magschro import spectral
from magschro.cli import main
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
    assert (ext.method, ext.shifts, ext.polish_solves) == ("tridiagonal", None, 0)


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


@pytest.fixture
def lanczos_only(monkeypatch):
    """Send every window to Lanczos, tridiagonal or not."""
    monkeypatch.setattr(spectral, "_tridiagonal", lambda herm: None)


def _dense_extremes(trunc):
    vals = np.linalg.eigvalsh(trunc.symmetrized().toarray())
    return vals[0], vals[-1]


def test_lanczos_path_agrees_with_dense(rng, lanczos_only):
    g = random_connected_graph(rng, min_vertices=12, max_vertices=16)
    trunc = assemble_truncation(g, g.vertices())
    lo, hi = _dense_extremes(trunc)
    lanczos = eigen_extremes(trunc)
    assert lanczos.method == "lanczos"
    scale = max(abs(lo), abs(hi), 1.0)
    assert lanczos.lambda_min == pytest.approx(lo, abs=1e-7 * scale)
    assert lanczos.lambda_max == pytest.approx(hi, abs=1e-7 * scale)


def test_lanczos_large_window_reference_ray(lanczos_only):
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


@pytest.mark.parametrize("family, size", [("path", 30), ("path", 5), ("cycle", 30)],
                         ids=["tridiagonal-30", "tridiagonal-5", "lanczos-30"])
def test_nan_potential_raises_eigensolve_error(family, size):
    # graphs reject non-finite data, so the NaN goes into the assembled matrix
    trunc = assemble_truncation(make_family({"family": family, "size": size}),
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
def test_lanczos_well_matches_tridiagonal_reference(k, lanczos_only):
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


def test_clustered_free_ray_matches_tridiagonal_reference(lanczos_only):
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


def test_gauge_transformed_path_matches_real_path(rng, monkeypatch, lanczos_only):
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
    lo, hi = _dense_extremes(trunc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_tridiagonal", lambda herm: None)
        lanczos = eigen_extremes(trunc)
    assert lanczos.method == "lanczos"
    # a residual certificate puts a Hermitian eigenvalue within the residual
    tol = spectral.RESIDUAL_CONTRACT * max(abs(lo), abs(hi), 1.0)
    assert abs(lanczos.lambda_min - lo) <= tol
    assert abs(lanczos.lambda_max - hi) <= tol


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
def test_shift_factor_keeps_the_diagonal_pivots_of_a_definite_matrix(case, lanczos_only):
    # the factor behind each Lanczos shift: no row exchange, and every pivot
    # carries the sign of H - sigma I (positive below the spectrum, negative
    # above), so it counts inertia as well as solving
    if case == "well-5000":
        trunc = assemble_truncation(quadratic_well_ray(), range(1, 5001))
    else:
        g = flux_lattice(20, 1)
        trunc = assemble_truncation(g, g.vertices())
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


def _assert_tridiagonal_matches_dense(trunc):
    ext = eigen_extremes(trunc)
    assert (ext.method, ext.shifts, ext.solves) == ("tridiagonal", None, None)
    assert ext.residual <= spectral.RESIDUAL_CONTRACT
    lo, hi = _dense_extremes(trunc)
    tol = 1e-12 * max(abs(lo), abs(hi))
    assert abs(ext.lambda_min - lo) <= tol
    assert abs(ext.lambda_max - hi) <= tol


@pytest.mark.parametrize("spec", [
    {"family": "path-nat", "W": "-(n^2)", "q": "n^2"},
    {"family": "path-nat"},
    {"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3 + 1/3", "W": "sqrt(n) - 7"},
], ids=["well", "free", "weighted"])
def test_tridiagonal_path_matches_dense_on_rays(spec):
    _assert_tridiagonal_matches_dense(assemble_truncation(make_family(spec), range(1, 151)))


def test_tridiagonal_path_matches_dense_on_a_path_with_random_phases(rng):
    path = make_family({"family": "path", "size": 150, "w": "1 + 1/n", "W": "sqrt(n) - 7"})
    twisted = gauge_transformed(path, random_gauge(rng, path))
    trunc = assemble_truncation(twisted, range(1, 151))
    assert np.count_nonzero(trunc.matrix.data.imag) == 2 * 149  # every coupling has a phase
    _assert_tridiagonal_matches_dense(trunc)


@pytest.mark.parametrize("k", [2000, 10000, 50000])
def test_free_ray_matches_its_closed_form(k):
    # the truncation 1..K of the free ray has eigenvalues 2 - 2cos((2j - 1)pi / (2K + 1)),
    # j = 1..K; Lanczos leaves lambda_min 2e-7 off, relatively, at K = 50000
    mpmath = pytest.importorskip("mpmath")
    ext = eigen_extremes(assemble_truncation(make_family({"family": "path-nat"}),
                                             range(1, k + 1)))
    assert ext.method == "tridiagonal" and ext.residual <= spectral.RESIDUAL_CONTRACT
    with mpmath.workdps(40):
        angle = mpmath.pi / (2 * k + 1)
        lo, hi = 2 - 2 * mpmath.cos(angle), 2 + 2 * mpmath.cos(2 * angle)
        assert abs((ext.lambda_min - lo) / lo) <= 1e-14
        assert abs((ext.lambda_max - hi) / hi) <= 1e-14


@pytest.mark.parametrize("k", [2000, 20000])
def test_well_pairs_meet_the_contract_past_an_ulp_of_lambda(k):
    # |lambda_min| = 4e8 at K = 20000, where an ulp of lambda is 6e-8; the
    # quotient summed as a correction to the bisection value still meets the
    # contract, where v^H H v / v^H v left 9.3e-10 at K = 2000 and 6.0e-8 here
    ext = eigen_extremes(assemble_truncation(quadratic_well_ray(), range(1, k + 1)))
    assert ext.method == "tridiagonal" and ext.residual <= 1e-12
    lo, hi = _ray_reference_extremes(-1.0, k)
    tol = 1e-12 * max(abs(lo), abs(hi))
    assert abs(ext.lambda_min - lo) <= tol and abs(ext.lambda_max - hi) <= tol


@pytest.mark.parametrize("case", ["well", "free-twin-blocks", "twisted-path"])
def test_a_scattered_window_splits_into_blocks(case, rng):
    if case == "well":
        g, window = quadratic_well_ray(), [*range(1, 80), *range(120, 200), 260, *range(300, 360)]
    elif case == "free-twin-blocks":
        # two interior runs of the free ray: the same block twice, so both ends are double
        g, window = make_family({"family": "path-nat"}), [*range(300, 401), *range(600, 701)]
    else:
        path = make_family({"family": "path", "size": 400, "W": "sqrt(n)"})
        g = gauge_transformed(path, random_gauge(rng, path))
        window = [*range(1, 100), *range(150, 250), *range(300, 340)]
    trunc = assemble_truncation(g, window)
    _, h = spectral._tridiagonal(_hermitian_part(trunc))
    gaps = {"well": 3, "free-twin-blocks": 1, "twisted-path": 2}[case]
    assert np.count_nonzero(h == 0) == gaps
    _assert_tridiagonal_matches_dense(trunc)


def test_a_cycle_window_stays_on_lanczos():
    g = make_family({"family": "cycle", "size": 300, "W": "sqrt(n)"})
    trunc = assemble_truncation(g, g.vertices())
    assert spectral._tridiagonal(_hermitian_part(trunc)) is None
    ext = eigen_extremes(trunc)
    assert ext.method == "lanczos" and ext.shifts is not None and ext.solves is not None
    lo, hi = _dense_extremes(trunc)
    tol = spectral.RESIDUAL_CONTRACT * max(abs(lo), abs(hi), 1.0)
    assert abs(ext.lambda_min - lo) <= tol and abs(ext.lambda_max - hi) <= tol


@pytest.mark.parametrize("fault", ["bad-pair", "lapack-error"])
def test_a_failed_tridiagonal_solve_falls_back_to_lanczos(fault, monkeypatch):
    trunc = assemble_truncation(quadratic_well_ray(), range(1, 1001))
    lanczos = spectral._lanczos_pairs
    calls = []

    def counting(*args):
        calls.append(args)
        return lanczos(*args)

    solve = spectral.eigh_tridiagonal

    def faulty(diag, off, **kwargs):
        if fault == "lapack-error":
            raise np.linalg.LinAlgError("stein did not converge")
        # the top vector comes back as NaN, which no polish solve can rescue
        vals, vecs = solve(diag, off, **kwargs)
        return vals, (np.full_like(vecs, math.nan) if kwargs["select_range"][0] else vecs)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", faulty)
    monkeypatch.setattr(spectral, "_lanczos_pairs", counting)
    ext = eigen_extremes(trunc)
    assert len(calls) == 1
    assert ext.method == "lanczos" and ext.shifts is not None
    assert ext.residual <= spectral.RESIDUAL_CONTRACT
    lo, hi = _ray_reference_extremes(-1.0, 1000)
    tol = 1e-12 * max(abs(lo), abs(hi))
    assert abs(ext.lambda_min - lo) <= tol and abs(ext.lambda_max - hi) <= tol


_RESCUED = [({"a": "n^3"}, 169), ({"a": "n^3"}, 199), ({"a": "n^3"}, 200),
            ({"w": "n^-2.5", "a": "n^0.5"}, 154), ({"w": "n^-2.5", "a": "n^0.5"}, 200)]
_RESCUED_IDS = [f"{'-'.join(spec.values())}-{k}" for spec, k in _RESCUED]


def _ray_truncation(spec, k):
    return assemble_truncation(make_family({"family": "path-nat", **spec}), range(1, k + 1))


@pytest.mark.parametrize("spec, k", _RESCUED, ids=_RESCUED_IDS)
def test_a_dense_miss_on_a_ray_window_is_solved_by_bisection(spec, k):
    # the dense pair misses the contract by a few ulps of lambda_max
    # (1.0e-8 to 1.6e-8 at 1.3e7 to 3e7), the tridiagonal pair meets it
    _assert_tridiagonal_matches_dense(_ray_truncation(spec, k))


@pytest.mark.parametrize("graph", ["ray"])
def test_a_dense_failure_goes_on_to_the_next_path(graph, monkeypatch):
    def failing(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eigh", failing)
    ext = eigen_extremes(assemble_truncation(quadratic_well_ray(), range(1, 151)))
    assert ext.method == "tridiagonal" and ext.residual <= spectral.RESIDUAL_CONTRACT
    lo, hi = _ray_reference_extremes(-1.0, 150)
    tol = 1e-12 * max(abs(lo), abs(hi))
    assert abs(ext.lambda_min - lo) <= tol and abs(ext.lambda_max - hi) <= tol


def test_eigen_extremes_never_calls_a_dense_eigensolver(rng, monkeypatch):
    g = random_connected_graph(rng, min_vertices=20, max_vertices=40)
    lattice = flux_lattice(10, 3)
    truncs = [assemble_truncation(quadratic_well_ray(), [5]),
              assemble_truncation(quadratic_well_ray(), range(1, 151)),
              assemble_truncation(make_family({"family": "cycle", "size": 3}), [1, 2, 3]),
              assemble_truncation(g, g.vertices()),
              assemble_truncation(lattice, lattice.vertices())]
    expected = [_dense_extremes(trunc) for trunc in truncs]
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *args, **kwargs: pytest.fail("dense solve"))
    for trunc, (lo, hi) in zip(truncs, expected):
        ext = eigen_extremes(trunc)
        tol = spectral.RESIDUAL_CONTRACT * max(abs(lo), abs(hi), 1.0)
        assert abs(ext.lambda_min - lo) <= tol and abs(ext.lambda_max - hi) <= tol


def test_a_failed_single_vertex_window_ends_in_the_tridiagonal_error(monkeypatch):
    # Lanczos needs 2 or more vertices, so bisection is the only path here
    def failing(diag, off, **kwargs):
        raise np.linalg.LinAlgError("stein did not converge")

    monkeypatch.setattr(spectral, "eigh_tridiagonal", failing)
    monkeypatch.setattr(spectral, "_lanczos_pairs", lambda *args: pytest.fail("Lanczos on n=1"))
    with pytest.raises(EigensolveError, match=r"^eigensolver failed \(n=1\): stein"):
        eigen_extremes(assemble_truncation(quadratic_well_ray(), [5]))


@pytest.mark.parametrize("spec, k", [
    ({"family": "star", "size": 200, "W": "1e6*sqrt(n)"}, 200),
    ({"family": "cycle", "size": 200, "a": "n^3"}, 200),
    ({"family": "cycle", "size": 200, "w": "n^-2.5", "a": "n^0.5"}, 200),
    ({"family": "binary-tree", "size": 60, "w": "n^-2", "a": "n^3", "W": "-(n^2)",
      "q": "1 + n^2"}, 60),
], ids=["star", "cycle-a", "cycle-w-a", "binary-tree"])
def test_a_small_window_that_dense_missed_meets_the_contract(spec, k, capsys):
    # a dense eigh pair misses the contract on each, at 1.04e-8 to 2.44e-8
    args = [f"--{key}={value}" for key, value in spec.items()]
    assert main(["spectrum", *args, "--windows", str(k)]) == 0
    size, lam_min, lam_max, residual = capsys.readouterr().out.splitlines()[1].split(",")
    assert int(size) == k and float(residual) <= spectral.RESIDUAL_CONTRACT
    g = make_family(spec)
    lo, hi = _dense_extremes(assemble_truncation(g, g.vertices()[:k]))
    tol = spectral.RESIDUAL_CONTRACT * max(abs(lo), abs(hi), 1.0)
    assert abs(float(lam_min) - lo) <= tol and abs(float(lam_max) - hi) <= tol


def test_a_limit_circle_window_ends_in_the_last_paths_error():
    trunc = _ray_truncation({"w": "n^-2", "a": "n^3"}, 150)
    with pytest.raises(EigensolveError, match=r"exceeds the contract 1e-08 \(lanczos, n=150\)$"):
        eigen_extremes(trunc)


def _sturm_count(trunc, sigma):
    """The eigenvalues of the tridiagonal truncation below ``sigma``: the
    negative pivots of the LDL^T recurrence d_i = (m_ii - sigma) -
    m_(i,i-1) m_(i-1,i) / d_(i-1) on the assembled M, in Python floats; a
    zero pivot is taken as a tiny negative one."""
    m = trunc.matrix
    diag, lower, upper = (m.diagonal(k).tolist() for k in (0, -1, 1))
    count, d = 0, 1.0
    for i, mii in enumerate(diag):
        d = (mii.real - sigma) - ((lower[i - 1] * upper[i - 1]).real / d if i else 0.0)
        if d == 0.0:
            d = -2.2250738585072014e-308
        count += d < 0
    return count


@pytest.mark.parametrize("spec, k", [
    *[({"W": "-(n^2)", "q": "n^2"}, k) for k in (2000, 2001, 10000)],
    *[({}, k) for k in (2000, 2001, 10000)],
    *_RESCUED,
], ids=[*(f"well-{k}" for k in (2000, 2001, 10000)), *(f"free-{k}" for k in (2000, 2001, 10000)),
        *_RESCUED_IDS])
def test_sturm_counts_place_each_end_at_its_rank(spec, k):
    # the pairs are the extremes, not merely eigenpairs: no eigenvalue lies
    # more than delta beyond either, counted without LAPACK
    trunc = _ray_truncation(spec, k)
    ext = eigen_extremes(trunc)
    assert ext.method == "tridiagonal"
    for lam, below in ((ext.lambda_min, 0), (ext.lambda_max, k - 1)):
        delta = 1e-9 * max(abs(lam), 1.0)
        assert _sturm_count(trunc, lam - delta) == below
        assert _sturm_count(trunc, lam + delta) == below + 1


def _assert_rayleigh_min_bounds_lambda_min(trunc, ext):
    assert ext.rayleigh_min == float(np.min(trunc.dense().diagonal().real))
    # min-max: lambda_min is at most the Rayleigh quotient of every delta,
    # and the returned value lies within its residual of lambda_min
    assert ext.lambda_min <= ext.rayleigh_min + ext.residual


def _trend_window(case):
    if case == "tree-300-a-n3":
        g = make_family({"family": "binary-tree", "size": 300, "a": "n^3"})
        return g, g.vertices()
    if case == "flux-lattice":
        g = flux_lattice(20, 1)
        return g, g.vertices()[40:360]
    family, k = case.split("-")
    g = quadratic_well_ray() if family == "well" else make_family({"family": "path-nat"})
    return g, range(1, int(k) + 1)


@pytest.mark.parametrize("case", ["well-10", "well-2000", "free-2001", "tree-300-a-n3",
                                  "flux-lattice"])
def test_each_trend_row_is_the_eigen_extremes_of_its_window(case):
    g, window = _trend_window(case)
    trunc = assemble_truncation(g, window)
    for seed in (3, 0):  # the Lanczos start vector's seed reaches the solve
        (row,) = spectral_trend(g, [window], seed=seed)
        assert row == eigen_extremes(trunc, seed=seed)
    assert row.size == trunc.size == len(window)
    lanczos = case in ("tree-300-a-n3", "flux-lattice")
    assert row.method == ("lanczos" if lanczos else "tridiagonal")
    if case == "tree-300-a-n3":
        assert row.polish_solves == 1  # at seed 0
    if case == "flux-lattice":
        assert np.any(trunc.matrix.data.imag)
    _assert_rayleigh_min_bounds_lambda_min(trunc, row)


def test_rayleigh_min_bounds_lambda_min_on_random_graphs():
    for seed in range(20):
        g = random_connected_graph(np.random.default_rng(seed), min_vertices=5, max_vertices=40)
        trunc = assemble_truncation(g, g.vertices())
        _assert_rayleigh_min_bounds_lambda_min(trunc, eigen_extremes(trunc))


def test_a_zero_inverse_iteration_vector_ends_the_polish_and_the_solve(monkeypatch):
    # on the ray w = 1, a = n^3 at K = 300 the top pair takes 3 polish solves;
    # each solve of the polish factor here returns zeros, so no pair is refined
    splu = spectral.spla.splu
    zeros = []

    class Zero:
        def solve(self, rhs):
            zeros.append(rhs.shape)
            return np.zeros_like(rhs)

    # the Lanczos shift factor passes options; the polish factor does not
    monkeypatch.setattr(spectral.spla, "splu",
                        lambda matrix, **kwargs: splu(matrix, **kwargs) if kwargs else Zero())
    trunc = _ray_truncation({"a": "n^3"}, 300)
    with pytest.raises(EigensolveError, match=r"exceeds the contract 1e-08 \(lanczos, n=300\)$"):
        eigen_extremes(trunc)
    assert zeros == [(300,), (300,)]  # one per path, each ending its polish
