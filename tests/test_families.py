import dataclasses
import sys
import threading

import numpy as np
import pytest

from magschro import metric
from magschro.errors import ExprEvalError, InputError
from magschro.exprlang import compile_text, eval_expr, parse_expr
from magschro.families import PathRayGraph, make_family, quadratic_well_ray
from magschro.graphs import EdgeData, OrientedEdge, VertexData, WeightedGraph
from magschro.metric import shortest_paths
from search_probes import count_records


def _run_window(g, lo, hi):
    """The window over lo..hi cut from the ray's records, as a closure window
    is, or None when an n in it is invalid or hi reaches 2**63 - 1."""
    if hi >= np.iinfo(np.int64).max:
        return None
    records = g._records(lo, hi)
    if len(records[0]) <= hi - lo:
        return None
    return PathRayGraph._closure(np.arange(lo, hi + 1), *records)


def _hop_window(g, x0, hops):
    """The vertices within ``hops`` of ``x0``, cut from the ray's records."""
    return _run_window(g, max(1, x0 - hops), x0 + hops)


def test_prefix_records_match_single_evaluation():
    spec = {"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3", "W": "-(n^2) + sqrt(n)",
            "q": "n^2 + 0.1"}
    g = make_family(spec)
    for x0, xs in ((1, (1, 2, 3, 777, 4096, 5000)), (10**6, (10**6 - 5000, 10**6, 10**6 + 4999))):
        win = _hop_window(g, x0, 5000)
        for x in xs:
            row = x - win.ids[0]
            expected = tuple(eval_expr(parse_expr(spec[k]), x) for k in ("w", "W", "q"))
            assert (win.w[row], win.W[row], win.q[row]) == tuple(g.vertex(x)) == expected
            weight = eval_expr(parse_expr(spec["a"]), x)
            assert win.a[2 * row] == g.edge_data((x + 1, x)).weight == weight


def test_windows_inside_the_prefix_evaluate_nothing(monkeypatch):
    g = quadratic_well_ray()
    evaluated = count_records(monkeypatch, g)
    held = dict(vars(g))
    win = _run_window(g, 176, 1024)  # ends inside the prefix 1..1024
    assert win.ids.tolist() == list(range(176, 1025))
    assert win.q.tolist() == [float(n) ** 2 for n in range(176, 1025)]
    assert not (win.w.flags.writeable or win.W.flags.writeable or win.q.flags.writeable)
    assert g.closure_window(range(10, 20)).ids.tolist() == list(range(9, 21))
    # a search whose sums end inside the prefix reads them there
    res = shortest_paths(g, 300, budget=700)
    assert res.method == "window" and res._span[1] == 300 + 2 * metric.WINDOW_MIN
    # the records of 1..1024 are read as kept tuples
    assert g.vertex(7) == VertexData(1.0, -49.0, 49.0)
    assert evaluated == [] and vars(g) == held


def test_windows_past_the_prefix_evaluate_their_range_once(monkeypatch):
    g = quadratic_well_ray()
    evaluated = count_records(monkeypatch, g)
    held = dict(vars(g))
    for _ in range(2):  # nothing is kept, so a second cut evaluates again
        evaluated.clear()  # the prefix 1..1024 is sliced, 1025..2001 evaluated
        win = _run_window(g, 1, 2001)
        assert evaluated == list(range(1025, 2002))
        assert win.q.tolist() == [float(n) ** 2 for n in range(1, 2002)]
    evaluated.clear()
    win = _run_window(g, 1600, 3400)
    assert evaluated == list(range(1600, 3401))
    assert win.ids.tolist() == list(range(1600, 3401)) and win.q.tolist() == [
        float(n) ** 2 for n in range(1600, 3401)]
    assert win.interior.tolist() == [False] + [True] * 1799 + [False]
    for _ in range(2):  # a search evaluates each block past the prefix once: 1..513
        evaluated.clear()  # and 514..1024 are sliced, 1025 and 1026..2049 evaluated
        res = shortest_paths(g, 1, budget=2000)
        assert res._span == (1, 2049)
        assert evaluated == list(range(1025, 2050))
    assert vars(g) == held


def test_threads_cutting_windows_on_one_ray_get_their_own_records():
    g = quadratic_well_ray()
    wrong = []

    def cut(base):
        for k in range(300):
            win = _hop_window(g, base + 3000 * k, 2000)
            if not np.array_equal(win.q, win.ids.astype(float) ** 2):
                wrong.append(base + 3000 * k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=cut, args=(base,))
                   for base in (5000, 10**6, 10**7, 3 * 10**7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_hop_window_slices_the_prefix():
    g = quadratic_well_ray()
    win = _hop_window(g, 3, 4)
    assert win.ids.tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert win.indptr.tolist() == [0, 1, 3, 5, 7, 9, 11, 12]
    assert win.indices.tolist() == [1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5]
    assert win.q.tolist() == [1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0]
    assert win.W.tolist() == [-1.0, -4.0, -9.0, -16.0, -25.0, -36.0, -49.0]
    assert win.a.tolist() == [1.0] * 12 and win.sigma.tolist() == [1.0] * 12
    assert win.interior.tolist() == [True] * 6 + [False]
    assert _hop_window(g, 10, 4).interior.tolist() == [False] + [True] * 7 + [False]
    for x in win.ids.tolist():
        row = slice(win.indptr[x - 1], win.indptr[x])
        assert [win.ids[j] for j in win.indices[row]] == [e.terminus for e, _ in g.neighbors(x)
                                                          if e.terminus <= 7]


def test_hop_window_stays_within_int64():
    g = quadratic_well_ray()
    top = np.iinfo(np.int64).max
    assert _hop_window(g, 2**63 - 10, 512) is None  # x0 + hops passes 2**63
    assert _hop_window(g, top - 512, 512) is None
    win = _hop_window(g, top - 513, 512)
    assert win.ids[-1] == top - 1 and win.ids.dtype == np.int64
    assert win.q[-1] == float(top - 1) ** 2


def test_prefix_stops_before_an_expression_error(monkeypatch):
    g = make_family({"family": "path-nat", "W": "1/(n-3000)"})
    assert _hop_window(g, 1, 2500) is not None
    assert _hop_window(g, 1, 5000) is None and _hop_window(g, 2990, 100) is None
    assert _hop_window(g, 2990, 9).W[-1] == -1.0 and _hop_window(g, 2990, 10) is None
    assert _hop_window(g, 10**6, 5000).W[5000] == 1 / (10**6 - 3000)
    assert g.vertex(2999).potential == -1.0
    for _ in range(2):  # an error is raised on every read, never kept
        with pytest.raises(ExprEvalError) as exc:
            g.vertex(3000)
        assert str(exc.value) == "division by zero in '1/(n-3000)' (at n=3000)"
    assert g.vertex(3001).potential == 1.0
    # a search that reaches 3000 raises the frontier's error
    with pytest.raises(ExprEvalError, match=r"\(at n=3000\)") as windowed:
        shortest_paths(g, 2000, budget=5000)
    monkeypatch.setattr(metric, "WINDOW_MIN", 10**9)
    with pytest.raises(ExprEvalError) as frontier:
        shortest_paths(make_family({"family": "path-nat", "W": "1/(n-3000)"}), 2000, budget=5000)
    assert str(windowed.value) == str(frontier.value)


def test_prefix_stops_before_an_invalid_record():
    g = make_family({"family": "path-nat", "w": "abs(n - 3000)"})
    assert _hop_window(g, 1, 4000) is None and _hop_window(g, 2000, 1000) is None
    assert _hop_window(g, 2000, 999).w[-1] == 1.0 and _hop_window(g, 500, 500) is not None
    assert _hop_window(g, 10**6, 100) is not None
    assert g.neighbors(2999)[1] == (OrientedEdge(2999, 3000), EdgeData(1.0, 1.0))
    with pytest.raises(InputError, match=r"family 'path-nat': w\(3000\) = 0.0 is not positive"):
        g.vertex(3000)


def test_far_vertices_are_evaluated_singly(monkeypatch):
    g = quadratic_well_ray()
    evaluated = count_records(monkeypatch, g)
    held = dict(vars(g))
    assert g.vertex(5) == VertexData(1.0, -25.0, 25.0) and evaluated == []
    far = 1 << 45
    assert g.vertex(far) == VertexData(1.0, -float(far) ** 2, float(far) ** 2)
    assert g.vertex(2000).minorant == 2000.0 ** 2
    assert g.edge_data((far, far + 1)).weight == 1.0
    assert evaluated == [far, 2000] and vars(g) == held


_SAMPLES = [*range(1, 33), *(1 << k for k in range(6, 21))]


def _first_sample_error(spec):
    """The error of the first sample n where an expression raises or w(n) > 0,
    q(n) >= 1 or a(n) > 0 fails, as (type, message); None if there is none."""
    w, q, a = (compile_text(spec.get(k, "1")) for k in "wqa")
    for n in _SAMPLES:
        try:
            wn, qn, an = w(n), q(n), a(n)
        except ExprEvalError as exc:
            return ExprEvalError, str(exc)
        for failed, text in ((not wn > 0, f"w({n}) = {wn} is not positive"),
                             (qn < 1, f"q({n}) = {qn} is below 1"),
                             (not an > 0, f"a({n}) = {an} is not positive")):
            if failed:
                return InputError, f"family 'path-nat': {text}"
    return None


@pytest.mark.parametrize("spec", [
    {}, {"W": "-(n^2)", "q": "n^2"}, {"w": "abs(n - 40)"}, {"w": "abs(n - 64)"},
    {"q": "n / 32"}, {"q": "2 - min(n, 2^19) / 2^18"}, {"a": "1 / abs(n - 2^20)"}, {"w": "2^n"},
    {"a": "n^0.5 - 5"}, {"q": "1 + sqrt(n - 3)"}, {"W": "1 / (n - 5)"},
    {"w": "n^-1.5", "a": "n^2.5", "q": "1 + n^0.1"}, {"w": "1e-300 / n^20"}])
def test_the_ray_checks_its_samples_one_by_one(spec):
    """A ray refuses the first failing sample's error; where every sample
    passes when evaluated as one array, each passes on its own, bit for bit."""
    spec = {"family": "path-nat", **spec}
    try:
        make_family(spec)
    except InputError as exc:
        got = type(exc), str(exc)
    else:
        got = None
    assert got == _first_sample_error(spec)
    try:
        w, q, a = (compile_text(spec.get(k, "1"))(np.array(_SAMPLES)) for k in "wqa")
    except ExprEvalError:
        return
    if np.all(w > 0) and np.all(q >= 1) and np.all(a > 0):
        assert got is None
        for k, values in zip("wqa", (w, q, a)):
            assert list(map(compile_text(spec.get(k, "1")), _SAMPLES)) == values.tolist()


@pytest.mark.parametrize("spec, error, message", [
    ({"family": "path-nat", "q": "n - 10"}, InputError, "family 'path-nat': q(1) = -9.0 is below 1"),
    ({"family": "path-nat", "w": "1/abs(n-64)"}, ExprEvalError,
     "division by zero in '1/abs(n-64)' (at n=64)"),
    ({"family": "path-nat", "a": "n - 20"}, InputError,
     "family 'path-nat': a(1) = -19.0 is not positive"),
    ({"family": "path", "size": 10, "w": "5 - n"}, InputError,
     "family 'path': w(5) = 0.0 is not positive"),
    ({"family": "path", "size": 10, "W": "1/(n-3)", "a": "n - 9"}, ExprEvalError,
     "division by zero in '1/(n-3)' (at n=3)"),
    ({"family": "star", "size": 10, "a": "n - 4"}, InputError,
     "family 'star': a(1) = -3.0 is not positive"),
])
def test_build_errors_are_those_of_the_first_failing_vertex(spec, error, message):
    with pytest.raises(error) as exc:
        make_family(spec)
    assert str(exc.value) == message


def test_finite_family_records():
    g = make_family({"family": "binary-tree", "size": 7, "w": "n", "a": "1/n", "W": "n^0.5",
                     "q": "1 + n"})
    assert g.vertex(6) == VertexData(6.0, 6 ** 0.5, 7.0)
    assert g.edge_data((3, 6)).weight == 1 / 3
    assert type(g.vertex(6).weight) is float and np.ndim(g.vertex(6).weight) == 0


def test_an_edge_that_skips_a_vertex_is_no_edge():
    with pytest.raises(InputError, match="^no edge 1 -> 3$"):
        quadratic_well_ray().edge_data((1, 3))


def test_an_id_past_int64_reads_its_closure_from_the_oracle():
    g = quadratic_well_ray()
    window = g.closure_window([2**63])
    assert window.ids.dtype == object
    assert window.ids.tolist() == [2**63 - 1, 2**63, 2**63 + 1]
    assert window.interior.tolist() == [False, True, False]
    oracle = WeightedGraph.closure_window(g, [2**63])
    for field in dataclasses.fields(window):
        mine, theirs = getattr(window, field.name), getattr(oracle, field.name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), field.name
