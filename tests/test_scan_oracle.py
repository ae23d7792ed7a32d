"""The criteria scan, the truncation assembler and the ray's run cut against
the vertex loops in ``loop_oracles`` and the neighbor oracle's read.

The scan must give the walk's checks with the same witnesses and scalar
types, the assembler the loop's matrix byte for byte, and the ray's cut of
a closure the fields and dtypes that the base class reads.
"""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_oracles import loop_truncation, window_walk
from magschro import criteria, metric
from magschro.errors import InputError, UnknownVertexError
from magschro.exact import FOURTH_ROOTS, pythagorean_phase
from magschro.families import make_family, quadratic_well_ray
from magschro.functions import VertexFunction
from magschro.graphs import ExplicitGraph, OrientedEdge, WeightedGraph
from magschro.operators import schrodinger_apply
from magschro.spectral import assemble_truncation

# few distinct values, so that maxima tie and the witness tie-break shows
FLOAT_DATA = {"w": [0.5, 1.0, 2.0, 3.7], "W": [-12.0, -4.0, -1.0, 0.0, 2.5],
              "q": [1.0, 2.0, 4.0, 9.0], "a": [0.3, 1.0, 2.0]}
FLOAT_PHASES = [1.0, -1.0, 1j, -1j, 1.0 + 0j, cmath.exp(0.3j), cmath.exp(-2.1j)]
EXACT_PHASES = FOURTH_ROOTS + tuple(pythagorean_phase(p, q) for p, q in ((2, 1), (3, -2)))


def _name(x, ids):
    if ids == "str":
        return f"v{x}"
    return f"v{x}" if ids == "mixed" and x % 2 else x


def _fractions(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 4))


@st.composite
def _cases(draw, exact=False):
    """A connected explicit graph, a sub-window of it (maybe empty) and a budget."""
    n = draw(st.integers(1, 12))
    ids = draw(st.sampled_from(["int", "str", "mixed"]))
    names = [_name(x, ids) for x in range(1, n + 1)]
    if exact:
        value = {"w": _fractions(1, 9), "W": _fractions(-30, 9), "q": _fractions(4, 16),
                 "a": _fractions(1, 9)}
        phase = st.sampled_from(EXACT_PHASES)
    else:
        value = {key: st.sampled_from(values) for key, values in FLOAT_DATA.items()}
        phase = st.sampled_from(FLOAT_PHASES)
    vertices = {x: (draw(value["w"]), draw(value["W"]), draw(value["q"])) for x in names}
    pairs = {(names[draw(st.integers(0, k - 1))], names[k]) for k in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if i != j and (names[j], names[i]) not in pairs:
            pairs.add((names[i], names[j]))
    g = ExplicitGraph(vertices, {pair: (draw(value["a"]), draw(phase))
                                 for pair in sorted(pairs, key=str)})
    window = draw(st.lists(st.sampled_from(names), unique=True))
    return g, window, draw(st.integers(1, n))


def _assert_same_checks(new, old):
    """Equal checks whose witnesses and numbers have the same Python types."""
    assert new == old
    for a, b in zip(new, old):
        for name in vars(a):
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y), name
            if isinstance(x, tuple):
                assert [type(v) for v in x] == [type(v) for v in y], name


def _check_views(g, window, budget):
    walk = window_walk(g, window)
    views = (criteria.degree_bound_check(g, window), criteria.minorant_check(g, window),
             criteria.lipschitz_best_constant(g, window))
    _assert_same_checks(views, walk)
    x0 = g.vertices()[0]
    report = criteria.selfadjointness_criteria(g, x0, budget=budget)
    explored = metric.shortest_paths(g, x0, q_mode=metric.WITH_Q, budget=budget)
    _assert_same_checks((report.degree, report.minorant, report.lipschitz),
                        window_walk(g, explored.distances))
    assert report.window_size == len(explored.distances)


def _assert_same_truncation(new, old):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(new.matrix, name), getattr(old.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert new.weights.dtype == old.weights.dtype
    assert new.weights.tobytes() == old.weights.tobytes()
    assert new.window == old.window and new.index == old.index
    assert [type(x) for x in new.window] == [type(x) for x in old.window]


def _check_truncation(g, window):
    if not window:
        for assemble in (assemble_truncation, loop_truncation):
            with pytest.raises(InputError, match="window must be nonempty"):
                assemble(g, window)
        return
    _assert_same_truncation(assemble_truncation(g, window), loop_truncation(g, window))


@settings(max_examples=150)
@given(case=_cases())
def test_scan_matches_the_walk_on_random_graphs(case):
    _check_views(*case)


@settings(max_examples=150)
@given(case=_cases())
def test_assembler_matches_the_loop_on_random_graphs(case):
    g, window, _ = case
    _check_truncation(g, window)


@settings(max_examples=60)
@given(case=_cases(exact=True))
def test_exact_data_match_the_loops(case):
    g, window, budget = case
    _check_views(g, window, budget)
    _check_truncation(g, window)


def test_unknown_vertices_raise_as_the_loops_do():
    g = make_family({"family": "path", "size": 6})
    for window in ([2, 0, 9], ["a", 3]):
        first = sorted(window, key=lambda x: (isinstance(x, str), x))
        unknown = next(x for x in first if not g.has_vertex(x))
        for check in (criteria.minorant_check, criteria.lipschitz_best_constant,
                      criteria.degree_bound_check, assemble_truncation):
            with pytest.raises(UnknownVertexError) as info:
                check(g, window)
            assert info.value.args == UnknownVertexError(unknown).args
    ray = quadratic_well_ray()
    with pytest.raises(UnknownVertexError):
        criteria.minorant_check(ray, range(0, 5))
    with pytest.raises(UnknownVertexError):
        assemble_truncation(ray, [0, 1])


def test_empty_windows_pass_as_the_walk_does():
    g = make_family({"family": "path", "size": 6})
    _assert_same_checks((criteria.degree_bound_check(g, []), criteria.minorant_check(g, []),
                         criteria.lipschitz_best_constant(g, [])), window_walk(g, []))


def test_edges_to_rows_outside_the_members_are_scanned_at_their_member_end():
    # the members 3..5 reach 2 and 6, touched rows that are not members; the
    # largest ratio is on 5 ~ 6, the largest gaps -q - W at 2 and 7 do not count,
    # and 1, 7 and 8 are rows of the whole window that no edge touches
    q = {1: 1.0, 2: 100.0, 3: 4.0, 4: 4.0, 5: 1.0, 6: 400.0, 7: 1.0, 8: 9.0}
    g = ExplicitGraph({x: (1.0, -q[x] - 50.0 * (x in (2, 7)), q[x]) for x in q},
                      {(x, x + 1): (1.0, 1.0) for x in range(1, 8)})
    win = g.whole_window()
    checks = criteria._scan(g, win, win.holds({3, 4, 5}))
    _assert_same_checks(checks, window_walk(g, [3, 4, 5]))
    assert checks[1].passed and checks[2] == criteria.LipschitzCheck(0.95, OrientedEdge(5, 6))
    _check_views(g, [3, 4, 5], 3)


RAY_SPECS = [
    {"family": "path-nat", "W": "-(n^2)", "q": "n^2"},
    {"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3 + 1/3", "W": "sqrt(n) - 7", "q": "1 + n/7"},
    {"family": "path-nat"},
]


def _assert_same_window(new, old):
    for name in old.__dataclass_fields__:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=60)
@given(spec=st.sampled_from(RAY_SPECS), lo=st.one_of(st.just(1), st.integers(1, 2500)),
       length=st.integers(1, 1200), before=st.sampled_from([None, 1, 900, 5000]),
       extra=st.lists(st.floats(0, 1), max_size=2))
def test_ray_run_cut_equals_the_oracle_read(spec, lo, length, before, extra):
    g = make_family(spec)
    if before is not None:  # search elsewhere first
        metric.shortest_paths(g, before, budget=600)
    g.neighbors = lambda x: pytest.fail("the cut reads the oracle")
    run = range(lo, lo + length)
    first = max(1, lo - 1)
    extra = [first + round(f * (lo + length - first)) for f in extra]  # within the closure
    cut = g.closure_window(run, extra)
    _assert_same_window(cut, WeightedGraph.closure_window(make_family(spec), run, extra))
    assert cut.ids[0] == max(1, lo - 1) and cut.ids[-1] == lo + length


def test_ray_cut_stays_on_the_run():
    g = quadratic_well_ray()
    g._cut = lambda lo, hi: pytest.fail("not a run")
    assert g.closure_window([1, 3]).ids.tolist() == [1, 2, 3, 4]
    assert g.closure_window([5, 6], [9]).ids.tolist() == [4, 5, 6, 7, 9]
    for vertices, extra in (([2.0], ()), ([5, 6], [True])):
        with pytest.raises(UnknownVertexError):
            g.closure_window(vertices, extra)


def test_delta_at_the_ray_origin_keeps_float_arithmetic():
    assert schrodinger_apply(quadratic_well_ray(), VertexFunction.delta(1)).items() == [(2, -1.0)]
