"""The stacked property suites against the per-graph loops in ``suite_oracle``.

The identity suite must give maxima equal to the oracle's, not only close:
each graph is a block of a stacked patch, and every block is reduced in the
loop's order.  The stacked graph must refuse what each graph alone refuses,
with the same message.  The array draws must give graphs and supports in
range, and a lone graph must equal each suite's first.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import suite_oracle as oracle
from magschro import randomgraphs, suites
from magschro.errors import GraphStructureError
from magschro.graphs import ExplicitGraph
from magschro.randomgraphs import random_columns, random_connected_graph, random_entries


def _first_stack(seed, max_vertices, limit):
    """How many graphs the suite's first stack holds under ``limit`` CSR
    entries, from the oracle's draws of the same seed."""
    rng = np.random.default_rng(seed)
    held = entries = 0
    while True:
        g = oracle.random_connected_graph(rng, max_vertices=max_vertices)
        entries += 2 * len(g.edges())
        if held and entries > limit:
            return held
        held += 1
        oracle.random_vertex_function(rng, g)
        oracle.random_vertex_function(rng, g)
        oracle.random_edge_function(rng, g)


def _check_identities(seed, graphs, max_vertices, chunks):
    result = suites.identity_suite(seed=seed, graphs=graphs, max_vertices=max_vertices)
    assert result.residuals == oracle.identity_residuals(seed=seed, graphs=graphs,
                                                        max_vertices=max_vertices)
    assert result.chunks == chunks
    assert result.graphs == graphs and result.passed


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), max_vertices=st.integers(4, 40),
       limit=st.sampled_from([250, 1500]),
       where=st.sampled_from(["one", "below", "at", "past", "several"]))
def test_identity_suite_matches_the_per_graph_loop(seed, max_vertices, limit, where):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "CHUNK_ENTRIES", limit)
        held = _first_stack(seed, max_vertices, limit)
        graphs, chunks = {"one": (1, 1), "below": (max(held - 1, 1), 1), "at": (held, 1),
                          "past": (held + 1, 2), "several": (3 * held + 1, None)}[where]
        if chunks is None:
            chunks = suites.identity_suite(seed=seed, graphs=graphs,
                                           max_vertices=max_vertices).chunks
            assert chunks >= 3
        _check_identities(seed, graphs, max_vertices, chunks)


def test_identity_suite_at_its_own_stack_size():
    held = _first_stack(42, 40, suites.CHUNK_ENTRIES)
    for graphs, chunks in ((held, 1), (held + 1, 2)):
        _check_identities(42, graphs, 40, chunks)
    result = suites.identity_suite(seed=42, graphs=1000)
    assert result.chunks == 4 and result.edges < 4 * suites.CHUNK_ENTRIES / 2
    assert result.draw_s + result.residual_s == pytest.approx(result.elapsed)


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 3000))
def test_square_average_suite_matches_the_per_sample_loop(seed, samples):
    (done, violations, _), margins, equal = oracle.square_average(seed=seed, samples=samples)
    result = suites.square_average_suite(seed=seed, samples=samples)
    lhs, rhs, degenerate = suites._square_sides(np.random.default_rng(seed), samples)
    assert (rhs - lhs).tolist() == margins
    assert degenerate.tolist() == equal
    rest = [m for m, same in zip(margins, equal) if not same]
    assert (result.samples, result.violations) == (done, violations)
    assert result.worst_margin == min(rest, default=math.inf)
    assert result.degenerate == sum(equal)


def test_square_average_worst_margin_leaves_out_equal_ends():
    result = suites.square_average_suite(seed=7, samples=10_000)
    assert result.passed and result.degenerate == 2563
    assert result.worst_margin == pytest.approx(1.0978722042327005e-08)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), low=st.integers(1, 30), span=st.integers(0, 30),
       ensure_minorant=st.booleans(), cap=st.sampled_from([None, 1, 3, 50]))
def test_the_draws_give_graphs_and_supports_in_range(seed, low, span, ensure_minorant, cap):
    rng = np.random.default_rng(seed)
    c = random_columns(rng, min_vertices=low, max_vertices=low + span,
                       ensure_minorant=ensure_minorant)
    assert low <= c.n <= low + span
    pairs = list(zip(c.origins.tolist(), c.termini.tolist()))
    assert pairs == sorted(set(pairs)) and all(1 <= o < t <= c.n for o, t in pairs)
    assert len(pairs) >= c.n - 1
    assert c.graph().edges() == pairs  # refused unless connected, with every other check
    if ensure_minorant:
        assert (c.W >= -c.q).all()
    for count in (c.n, len(pairs)):
        if count:
            chosen, values = random_entries(rng, count, max_support=cap)
            assert len(set(chosen.tolist())) == len(chosen) == len(values)
            assert 1 <= len(chosen) <= (count if cap is None else min(cap, count))
            assert ((0 <= chosen) & (chosen < count)).all()


class _EdgeDrawRecorder:
    """A generator that records its state before each ``random`` call."""

    def __init__(self, rng):
        self.rng, self.states = rng, []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size):
        self.states.append(self.rng.bit_generator.state)
        return self.rng.random(size)


@pytest.mark.parametrize("max_vertices", [4, 12, 40, 80])
def test_edge_draws_are_rng_uniform_with_the_bounds_as_tuples(max_vertices):
    """``random_columns`` maps one ``rng.random`` array onto the bounds of an
    edge's log weight and angle; ``rng.uniform`` with those bounds as tuples
    draws the same numbers and leaves the stream where it does."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        recorder = _EdgeDrawRecorder(rng)
        c = random_columns(recorder, max_vertices=max_vertices)
        (state,) = recorder.states
        reference = np.random.default_rng()
        reference.bit_generator.state = state
        log_a, angle = reference.uniform((math.log(0.1), 0.0), (math.log(10.0), 2.0 * math.pi),
                                         size=(len(c.origins), 2)).T
        assert c.a.tobytes() == np.exp(log_a).tobytes()
        assert c.sigma.tobytes() == np.exp(1j * angle).tobytes()
        assert reference.bit_generator.state == rng.bit_generator.state


_WINDOW_FIELDS = ("ids", "indptr", "indices", "w", "W", "q", "a", "sigma")


@pytest.mark.parametrize("suite, max_vertices", [
    (lambda seed: suites.identity_suite(seed=seed, graphs=3, max_vertices=25), 25),
    (lambda seed: suites.square_average_suite(seed=seed, samples=100), 12),
], ids=["identity", "square-average"])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_a_lone_graph_is_the_suites_first_graph(suite, max_vertices, seed):
    stacks = []

    def stack(drawn):
        stacks.append(randomgraphs.stacked_graph(drawn))
        return stacks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "stacked_graph", stack)
        suite(seed)
    lone = random_connected_graph(np.random.default_rng(seed), max_vertices=max_vertices)
    ids = lone.vertices()
    first, alone = stacks[0][0].closure_window(ids), lone.closure_window(ids)
    for name in _WINDOW_FIELDS:
        assert np.array_equal(getattr(first, name), getattr(alone, name)), name


def _faulty(mp, faults):
    """Draw the suite's columns with ``faults[k](columns)`` for the k-th graph."""
    drawn = []

    def draw(rng, **kwargs):
        columns = random_columns(rng, **kwargs)
        drawn.append(columns)
        return faults.get(len(drawn) - 1, lambda c: c)(columns)

    mp.setattr(suites, "random_columns", draw)
    return drawn


def _message(columns):
    """The refusal of ``random_connected_graph`` for a draw of ``columns``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomgraphs, "random_columns", lambda rng, **kwargs: columns)
        with pytest.raises(GraphStructureError) as refused:
            random_connected_graph(np.random.default_rng(0))
    return str(refused.value)


def _set(column, i, value):
    def fault(c):
        changed = getattr(c, column).copy()
        changed[i] = value
        return c._replace(**{column: changed})
    return fault


def _isolated(c):
    """One vertex more, joined to nothing."""
    return c._replace(n=c.n + 1, w=np.append(c.w, 1.0), W=np.append(c.W, 0.0),
                      q=np.append(c.q, 1.0))


def _stray(c):
    """The first edge led to the vertex after the last."""
    return _set("termini", 0, c.n + 1)(c)


@pytest.mark.parametrize("faults, bad", [
    ({2: _set("w", 1, -0.5)}, 2),  # a weight that is not positive
    ({1: _set("W", 0, math.inf)}, 1),  # a potential that is not finite
    ({300: _set("a", 3, math.nan)}, 300),  # an edge weight that is not finite, second stack
    ({5: _isolated}, 5),  # a graph that is not connected
    ({6: _stray}, 6),  # an edge to a vertex of the next graph
    ({4: _isolated, 7: _set("w", 0, 0.0)}, 4),  # the first fault wins
])
def test_stacked_graphs_refuse_as_each_graph_alone(faults, bad):
    assert _first_stack(3, 40, suites.CHUNK_ENTRIES) < 300
    with pytest.MonkeyPatch.context() as mp:
        drawn = _faulty(mp, faults)
        with pytest.raises(GraphStructureError) as refused:
            suites.identity_suite(seed=3, graphs=400)
    assert str(refused.value) == _message(faults[bad](drawn[bad]))


def test_a_union_refuses_an_edge_between_parts_and_a_split_part():
    ids, ones = range(1, 7), [1.0] * 6
    with pytest.raises(GraphStructureError, match="joins two parts"):
        ExplicitGraph.from_columns(ids, ones, ones, ones, [1, 2, 3, 4, 5], [2, 3, 4, 5, 6],
                                   [1.0] * 5, [1.0] * 5, blocks=[3, 3])
    with pytest.raises(GraphStructureError, match="not connected"):
        ExplicitGraph.from_columns(ids, ones, ones, ones, [1, 2, 4], [2, 3, 5], [1.0] * 3,
                                   [1.0] * 3, blocks=[3, 3])
    g = ExplicitGraph.from_columns(ids, ones, ones, ones, [1, 2, 4, 5], [2, 3, 5, 6], [1.0] * 4,
                                   [1.0] * 4, blocks=[3, 3])
    assert g.edges() == [(1, 2), (2, 3), (4, 5), (5, 6)]
