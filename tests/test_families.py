import numpy as np
import pytest

from magschro import metric
from magschro.errors import ExprEvalError, GraphStructureError, InputError
from magschro.exprlang import eval_expr, parse_expr
from magschro.families import make_family, quadratic_well_ray
from magschro.graphs import EdgeData, OrientedEdge, VertexData
from magschro.metric import shortest_paths


def block_span(g):
    return g._lo, g._lo + len(g._block[0]) - 1


def test_prefix_records_match_single_evaluation():
    spec = {"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3", "W": "-(n^2) + sqrt(n)",
            "q": "n^2 + 0.1"}
    g = make_family(spec)
    for x0, xs in ((1, (1, 2, 3, 777, 4096, 5000)), (10**6, (10**6 - 5000, 10**6, 10**6 + 4999))):
        win = g.hop_window(x0, 5000)
        for x in xs:
            row = x - win.ids[0]
            expected = tuple(eval_expr(parse_expr(spec[k]), x) for k in ("w", "W", "q"))
            assert (win.w[row], win.W[row], win.q[row]) == tuple(g.vertex(x)) == expected
            weight = eval_expr(parse_expr(spec["a"]), x)
            assert win.a[2 * row] == g.edge_data((x + 1, x)).weight == weight


def test_windows_extend_or_replace_the_block(monkeypatch):
    g = quadratic_well_ray()
    evaluated = []
    w = g._w
    monkeypatch.setattr(g, "_w", lambda ns: evaluated.extend(np.atleast_1d(ns).tolist()) or w(ns))
    assert block_span(g) == (1, 1024)
    g.hop_window(1, 2000)  # overlaps: only the right flank is new
    assert block_span(g) == (1, 2001) and evaluated == list(range(1025, 2002))
    evaluated.clear()
    g.hop_window(3000, 500)  # disjoint: replaces the block
    assert block_span(g) == (2500, 3500) and evaluated == list(range(2500, 3501))
    evaluated.clear()
    g.hop_window(2000, 500)  # touches it on the left
    assert block_span(g) == (1500, 3500) and evaluated == list(range(1500, 2500))
    evaluated.clear()
    win = g.hop_window(2500, 900)  # inside: evaluates nothing
    assert block_span(g) == (1500, 3500) and evaluated == []
    assert win.ids.tolist() == list(range(1600, 3401)) and win.q.tolist() == [
        float(n) ** 2 for n in range(1600, 3401)]
    assert win.interior.tolist() == [False] + [True] * 1799 + [False]
    # the records of 1..1024 are read as kept tuples whatever the block holds
    assert g.vertex(7) == VertexData(1.0, -49.0, 49.0) and evaluated == []


def test_hop_window_slices_the_prefix():
    g = quadratic_well_ray()
    win = g.hop_window(3, 4)
    assert win.ids.tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert win.indptr.tolist() == [0, 1, 3, 5, 7, 9, 11, 12]
    assert win.indices.tolist() == [1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5]
    assert win.q.tolist() == [1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0]
    assert win.W.tolist() == [-1.0, -4.0, -9.0, -16.0, -25.0, -36.0, -49.0]
    assert win.a.tolist() == [1.0] * 12 and win.sigma.tolist() == [1.0] * 12
    assert win.interior.tolist() == [True] * 6 + [False]
    assert g.hop_window(10, 4).interior.tolist() == [False] + [True] * 7 + [False]
    for x in win.ids.tolist():
        row = slice(win.indptr[x - 1], win.indptr[x])
        assert [win.ids[j] for j in win.indices[row]] == [e.terminus for e, _ in g.neighbors(x)
                                                          if e.terminus <= 7]


def test_hop_window_stays_within_int64():
    g = quadratic_well_ray()
    top = np.iinfo(np.int64).max
    assert g.hop_window(2**63 - 10, 512) is None  # x0 + hops passes 2**63
    assert g.hop_window(top - 512, 512) is None
    win = g.hop_window(top - 513, 512)
    assert win.ids[-1] == top - 1 and win.ids.dtype == np.int64
    assert win.q[-1] == float(top - 1) ** 2


def test_prefix_stops_before_an_expression_error(monkeypatch):
    g = make_family({"family": "path-nat", "W": "1/(n-3000)"})
    assert g.hop_window(1, 2500) is not None
    assert g.hop_window(1, 5000) is None and g.hop_window(2990, 100) is None
    assert block_span(g) == (1, 2501)
    assert g.hop_window(10**6, 5000).W[5000] == 1 / (10**6 - 3000)
    assert g.vertex(2999).potential == -1.0
    for _ in range(2):  # an error is raised on every read, never kept
        with pytest.raises(ExprEvalError) as exc:
            g.vertex(3000)
        assert str(exc.value) == "division by zero in '1/(n-3000)' (at n=3000)"
    assert g.vertex(3001).potential == 1.0
    # a search whose window would hold 3000 raises the frontier's error
    with pytest.raises(ExprEvalError, match=r"\(at n=3000\)") as windowed:
        shortest_paths(g, 2000, budget=5000)
    monkeypatch.setattr(metric, "WINDOW_MIN", 10**9)
    with pytest.raises(ExprEvalError) as frontier:
        shortest_paths(make_family({"family": "path-nat", "W": "1/(n-3000)"}), 2000, budget=5000)
    assert str(windowed.value) == str(frontier.value)


def test_prefix_stops_before_an_invalid_record():
    g = make_family({"family": "path-nat", "w": "abs(n - 3000)"})
    assert g.hop_window(1, 4000) is None and block_span(g) == (1, 1024)
    assert g.hop_window(10**6, 100) is not None
    assert g.neighbors(2999)[1] == (OrientedEdge(2999, 3000), EdgeData(1.0, 1.0))
    with pytest.raises(GraphStructureError, match=r"w\(3000\) = 0.0 is not positive"):
        g.vertex(3000)


def test_far_vertices_are_evaluated_singly():
    g = quadratic_well_ray()
    assert g.vertex(5) == VertexData(1.0, -25.0, 25.0)
    span = block_span(g)
    far = 1 << 45
    assert g.vertex(far) == VertexData(1.0, -float(far) ** 2, float(far) ** 2)
    assert g.vertex(2000).minorant == 2000.0 ** 2
    assert g.edge_data((far, far + 1)).weight == 1.0
    assert block_span(g) == span


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
