"""The criteria scan, the truncation assembler and the ray's run cut against
the vertex loops in ``loop_oracles`` and the neighbor oracle's read.

The scan must give the walk's checks with the same witnesses and scalar
types, the assembler the loop's matrix byte for byte, and the ray's cut of
a closure the fields and dtypes that the base class reads.
"""

import cmath
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loop_oracles import loop_truncation, window_walk
from magschro import criteria, exprlang, metric
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


# invalid records at 3000 (an expression error and w = 0), at 2000 (a = 0)
# and at 700, inside the prefix 1..1024 that a ray evaluates first
FAULTY_RAY_SPECS = [
    {"family": "path-nat", "W": "1/(n-3000)"},
    {"family": "path-nat", "w": "abs(n - 3000)", "q": "n"},
    {"family": "path-nat", "a": "abs(n - 2000)"},
    {"family": "path-nat", "w": "abs(n - 700)"},
]
FAULTS = (700, 2000, 3000)


def _read(closure, *args):
    """The window that ``closure`` reads, or the type and message of its error."""
    try:
        return closure(*args)
    except Exception as error:
        return f"raises {type(error).__name__}: {error}"


@settings(max_examples=150)
@given(spec=st.sampled_from(RAY_SPECS + FAULTY_RAY_SPECS),
       support=st.lists(st.one_of(st.integers(1, 3200), st.sampled_from(FAULTS),
                                  st.integers(1020, 1030)).flatmap(
           lambda x: st.integers(max(1, x - 3), x + 3)), min_size=1, max_size=12),
       extra=st.lists(st.integers(1, 3200), max_size=3),
       before=st.sampled_from([None, 1, 2600]))
@example(spec=FAULTY_RAY_SPECS[2], support=[2002], extra=[], before=None)  # reads a(2000) = 0
def test_ray_closures_of_scattered_supports_equal_the_oracle_read(spec, support, extra,
                                                                  before):
    g = make_family(spec)
    if before is not None:  # search elsewhere first
        _read(lambda: metric.shortest_paths(g, before, budget=600))
    cut = _read(g.closure_window, support, extra)
    read = _read(WeightedGraph.closure_window, make_family(spec), support, extra)
    if isinstance(read, str):
        assert cut == read
        return
    _assert_same_window(cut, read)
    if spec in RAY_SPECS:  # valid records are cut, never read from the oracle
        g.neighbors = g.vertex = lambda x: pytest.fail("the cut reads the oracle")
        _assert_same_window(g.closure_window(support, extra), read)


def test_ray_closure_is_read_from_the_oracle_past_int64_ids():
    g = quadratic_well_ray()
    top = 2 ** 62
    read = WeightedGraph.closure_window(quadratic_well_ray(), [top, top + 5])
    _assert_same_window(g.closure_window([top, top + 5]), read)
    assert read.ids.tolist() == [top - 1, top, top + 1, top + 4, top + 5, top + 6]
    _assert_same_window(g.closure_window([top - 2]), WeightedGraph.closure_window(g, [top - 2]))
    assert g.closure_window([]).ids.tolist() == [] and g.closure_window([], [4]).ids.tolist() == [4]


# -- the Lipschitz scan's float filter: bounded with numpy, decided with math.pow

@st.composite
def _rounding_cases(draw):
    """A connected graph whose minorants are adjacent floats, so that every
    Lipschitz ratio is rounding, with extreme vertex and edge weights."""
    n = draw(st.integers(2, 12))
    ids = draw(st.sampled_from(["int", "str", "mixed"]))
    names = [_name(x, ids) for x in range(1, n + 1)]
    base = draw(st.sampled_from([1.0, 2.0, 3.3, 1e6, 2.0 ** 52, 1e300]))
    steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    weight = st.sampled_from([1e-150, 0.5, 1.0, 3.7, 1e150])
    q = dict.fromkeys(names, base)
    for x, k in zip(names, steps):  # k floats above the base
        for _ in range(k):
            q[x] = float(np.nextafter(q[x], np.inf))
    vertices = {x: (draw(weight), -q[x], q[x]) for x in names}
    pairs = {(names[draw(st.integers(0, k - 1))], names[k]) for k in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if i != j and (names[j], names[i]) not in pairs:
            pairs.add((names[i], names[j]))
    a = st.sampled_from([1e-150, 0.3, 1.0, 1e150])
    g = ExplicitGraph(vertices, {pair: (draw(a), 1.0) for pair in sorted(pairs, key=str)})
    window = draw(st.lists(st.sampled_from(names), unique=True))
    return g, window, draw(st.integers(1, n))


@settings(max_examples=200)
@given(case=_rounding_cases())
def test_adjacent_float_minorants_match_the_walk(case):
    _check_views(*case)


def test_a_constant_minorant_gives_zero_and_no_witness():
    g = make_family({"family": "path-nat"})
    for window in (range(1, 3000), [5, 9, 10, 2000]):
        checks = (criteria.lipschitz_best_constant(g, window),)
        _assert_same_checks(checks, window_walk(g, window)[2:])
        assert checks[0] == criteria.LipschitzCheck(0.0, None)
    report = criteria.selfadjointness_criteria(g, 1)
    assert report.lipschitz == criteria.LipschitzCheck(0.0, None)


def test_tied_maxima_go_to_the_first_edge_in_walk_order():
    # every edge has ratio |1 - 1/2| = 0.5, and member ends come before larger ids
    q = {x: 4.0 if x % 2 else 1.0 for x in range(1, 9)}
    g = ExplicitGraph({x: (1.0, -q[x], q[x]) for x in q},
                      {**{(x, x + 1): (1.0, 1.0) for x in range(1, 8)}, (2, 7): (1.0, 1.0)})
    for window, first in (([1, 2, 3], (1, 2)), ([4, 5], (3, 4)), ([7, 3], (2, 3)),
                          ([6, 7], (5, 6)), ([7], (2, 7))):
        checks = criteria.lipschitz_best_constant(g, window)
        assert checks == criteria.LipschitzCheck(0.5, OrientedEdge(*first))
        _check_views(g, window, 4)


def test_scale_underflow_raises_at_the_first_edge_in_walk_order():
    # min(w) / a underflows on 2 ~ 3 (equal q at both ends, ratio 0) and on 5 ~ 6;
    # the walk over 3..6 meets 2 ~ 3 first, at its member end 3
    tiny = {2, 3, 5}
    for data in ("float", "fraction"):
        small, big = (1e-200, 1e200) if data == "float" else (Fraction(1, 10 ** 200), 10 ** 200)
        q = {x: 9.0 if x in (2, 3) else float(x * x) for x in range(1, 8)}
        g = ExplicitGraph({x: (small if x in tiny else 1.0, 0.0, q[x]) for x in q},
                          {(x, x + 1): (big if x in (2, 5) else 1.0, 1.0) for x in range(1, 7)})
        for window in ([3, 4, 5, 6], range(1, 8), [2]):
            with pytest.raises(InputError, match=r"edge \(2, 3\): the Lipschitz scale"):
                criteria.lipschitz_best_constant(g, window)
            with pytest.raises(ZeroDivisionError):
                window_walk(g, window)
        with pytest.raises(InputError, match=r"edge \(5, 6\)"):
            criteria.lipschitz_best_constant(g, [5, 6, 7])
        assert criteria.lipschitz_best_constant(g, [7]).witness == OrientedEdge(6, 7)


def test_fraction_minorants_a_rounding_apart_match_the_walk():
    eps = Fraction(1, 10 ** 17)
    q = {1: Fraction(1), 2: 1 + eps, 3: 1 + 2 * eps, 4: Fraction(1), 5: 1 + eps}
    g = ExplicitGraph({x: (Fraction(1), -q[x], q[x]) for x in q},
                      {(x, x + 1): (Fraction(1, 3), 1) for x in range(1, 5)})
    for window in ([1, 2, 3, 4, 5], [2, 3], [4]):
        _check_views(g, window, 3)


def test_a_default_budget_check_of_the_well_makes_few_pow_calls(monkeypatch):
    """Only the edges whose bounded ratio can hold the maximum reach math.pow
    (the unfiltered scan made 500,143 calls here)."""
    calls = []
    monkeypatch.setattr(exprlang, "math", SimpleNamespace(
        **{**vars(math), "pow": lambda b, k: calls.append(b) or math.pow(b, k)}))
    report = criteria.selfadjointness_criteria(quadratic_well_ray(), 1)
    assert report.window_size == 250_000 and len(calls) < 1000
    assert report.lipschitz == criteria.LipschitzCheck(0.5, OrientedEdge(1, 2))


def test_delta_at_the_ray_origin_keeps_float_arithmetic():
    assert schrodinger_apply(quadratic_well_ray(), VertexFunction.delta(1)).items() == [(2, -1.0)]
