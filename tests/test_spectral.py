import math

import numpy as np
import pytest

from magschro import spectral
from magschro.errors import EigensolveError, InputError
from magschro.families import make_family, quadratic_well_ray
from magschro.functions import VertexFunction
from magschro.graphs import ExplicitGraph
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


def _path_with_nan_potential(size):
    vertices = {n: (1.0, math.nan if n == 2 else 0.0, 1.0) for n in range(1, size + 1)}
    return ExplicitGraph(vertices, {(n, n + 1): (1.0, 1.0 + 0j) for n in range(1, size)})


@pytest.mark.parametrize("size, cutoff", [(30, spectral.DENSE_CUTOFF), (5, spectral.DENSE_CUTOFF),
                                          (30, 4)], ids=["dense-30", "dense-5", "lanczos-30"])
def test_nan_potential_raises_eigensolve_error(monkeypatch, size, cutoff):
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", cutoff)
    trunc = assemble_truncation(_path_with_nan_potential(size), range(1, size + 1))
    with pytest.raises(EigensolveError):
        eigen_extremes(trunc)


def test_polish_pair_restores_the_contract_on_reference_ray(monkeypatch):
    # at K=5000 the Lanczos top pair comes back with residual ~6e-9, above the
    # polish target RESIDUAL_CONTRACT / 2, so exactly one inverse-iteration solve runs
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
    ext = eigen_extremes(assemble_truncation(quadratic_well_ray(), range(1, k + 1)))
    assert ext.method == "lanczos"
    assert solves == [(k,)]
    assert ext.residual <= spectral.RESIDUAL_CONTRACT
    assert ext.lambda_min <= 2 - k * k
