import numpy as np
import pytest

from magschro import families
from magschro.errors import ExprEvalError, GraphStructureError, InputError
from magschro.exprlang import eval_expr, parse_expr
from magschro.families import make_family, quadratic_well_ray
from magschro.graphs import EdgeData, OrientedEdge, VertexData


def prefix_size(g):
    return len(g._prefix[0])


def test_prefix_records_match_single_evaluation():
    spec = {"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3", "W": "-(n^2) + sqrt(n)",
            "q": "n^2 + 0.1"}
    g = make_family(spec)
    assert g.hop_window(1, 5000) is not None and prefix_size(g) >= 5001
    for x in (1, 2, 3, 777, 4096, 5001):
        expected = [eval_expr(parse_expr(spec[k]), x) for k in ("w", "W", "q")]
        assert tuple(g.vertex(x)) == tuple(expected)
        assert g.edge_data((x + 1, x)).weight == eval_expr(parse_expr(spec["a"]), x)


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


def test_prefix_stops_before_an_expression_error():
    g = make_family({"family": "path-nat", "W": "1/(n-3000)"})
    assert g.hop_window(1, 2500) is not None
    assert g.hop_window(1, 5000) is None
    assert prefix_size(g) == 2999
    assert g.vertex(2999).potential == -1.0
    with pytest.raises(ExprEvalError) as exc:
        g.vertex(3000)
    assert str(exc.value) == "division by zero in '1/(n-3000)' (at n=3000)"
    assert g.vertex(3001).potential == 1.0


def test_prefix_stops_before_an_invalid_record():
    g = make_family({"family": "path-nat", "w": "abs(n - 3000)"})
    assert g.hop_window(1, 4000) is None and prefix_size(g) == 2999
    assert g.neighbors(2999)[1] == (OrientedEdge(2999, 3000), EdgeData(1.0, 1.0))
    with pytest.raises(GraphStructureError, match=r"w\(3000\) = 0.0 is not positive"):
        g.vertex(3000)


def test_far_vertices_are_evaluated_singly():
    g = quadratic_well_ray()
    assert g.vertex(5) == VertexData(1.0, -25.0, 25.0)
    size = prefix_size(g)
    far = 1 << 45
    assert g.vertex(far) == VertexData(1.0, -float(far) ** 2, float(far) ** 2)
    assert g.vertex(size + 1).minorant == float(size + 1) ** 2
    assert prefix_size(g) == size


def test_far_records_are_kept_and_bounded(monkeypatch):
    monkeypatch.setattr(families, "_FAR_RECORDS", 64)
    spec = {"family": "path-nat", "w": "1 + 1/n", "a": "n^0.3", "W": "1/(n-3000)", "q": "n^2"}
    g = make_family(spec)
    for x in range(10**7, 10**7 + 3 * families._FAR_RECORDS):
        record = g.vertex(x)
        assert g.vertex(x) is record  # the second read is the kept record
        assert tuple(record) == tuple(eval_expr(parse_expr(spec[k]), x) for k in ("w", "W", "q"))
        assert g.edge_data((x, x + 1)).weight == eval_expr(parse_expr(spec["a"]), x)
        assert len(g._far) <= families._FAR_RECORDS
        assert len(g._far_edges) <= families._FAR_RECORDS
    for _ in range(2):  # an error is raised on every read, never kept
        with pytest.raises(ExprEvalError, match=r"\(at n=3000\)"):
            g.vertex(3000)


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
