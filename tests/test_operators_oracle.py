"""The array operators against the dict-loop oracle in ``dict_calculus``.

Float data must agree to 1e-12 relative with the same scalar types; exact
data (Fraction weights, exact unit phases, ComplexRational values) must
agree exactly, with every identity residual exactly 0.0.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_calculus as oracle
from magschro import operators
from magschro.exact import FOURTH_ROOTS, ComplexRational, pythagorean_phase
from magschro.families import quadratic_well_ray
from magschro.functions import EdgeFunction, VertexFunction
from magschro.graphs import ExplicitGraph
from magschro.randomgraphs import (
    random_connected_graph,
    random_edge_function,
    random_function,
    random_vertex_function,
)

RESIDUALS = ("leibniz_residual", "product_rule_residual", "adjointness_residual",
             "composition_residual", "symmetry_residual")
EXACT_PHASES = FOURTH_ROOTS + tuple(pythagorean_phase(p, q)
                                    for p, q in ((2, 1), (3, -2), (1, 4), (-5, 2)))


def _name(x, ids):
    if ids == "str":
        return f"v{x}"
    return f"v{x}" if ids == "mixed" and x % 2 else x


def _relabelled(g, ids):
    """``g`` with its vertex ids renamed by :func:`_name`."""
    if ids == "int":
        return g
    return ExplicitGraph({_name(x, ids): g.vertex(x) for x in g.vertices()},
                         {(_name(e.origin, ids), _name(e.terminus, ids)): g.edge_data(e)
                          for e in g.edges()})


def _outputs(module, g, u, v, Y):
    return {
        "differential": module.differential(g, u),
        "differential*": module.differential(g, u, conjugate_phase=True),
        "codifferential": module.codifferential(g, Y),
        "codifferential-plain": module.codifferential(g, Y, plain=True),
        "laplacian": module.laplacian(g, u),
        "schrodinger": module.schrodinger_apply(g, v),
    }


def _residuals(module, g, u, v, Y, relative, **patch):
    args = {"leibniz_residual": (u, v), "product_rule_residual": (u, Y),
            "adjointness_residual": (u, Y), "composition_residual": (u,),
            "symmetry_residual": (u, v)}
    return {name: getattr(module, name)(g, *args[name], relative=relative, **patch)
            for name in RESIDUALS}


def _shared(g, u, v, Y, relative):
    """The five residuals on the one patch that ``identity_suite`` shares among them."""
    patch = operators.Patch.closure(g, [*u._values, *v._values], Y._values)
    return _residuals(operators, g, u, v, Y, relative, patch=patch)


def _assert_close(new, old):
    """Same values to 1e-12 of the largest, and the same types where both are nonzero."""
    assert type(new) is type(old)
    if isinstance(new, EdgeFunction):
        assert new.twist == old.twist
    tol = 1e-12 * max(1.0, old.sup_norm())
    for k in set(new.support) | set(old.support):
        assert abs(new(k) - old(k)) <= tol, k
    for k in set(new.support) & set(old.support):
        assert type(new(k)) is type(old(k)), k


def _check_float(g, u, v, Y):
    new, old = _outputs(operators, g, u, v, Y), _outputs(oracle, g, u, v, Y)
    for name in new:
        _assert_close(new[name], old[name])
    old, lone = _residuals(oracle, g, u, v, Y, True), _residuals(operators, g, u, v, Y, True)
    # the shared patch only adds zero terms to each sum and maximum
    assert _shared(g, u, v, Y, True) == lone
    for new in (lone, _shared(g, u, v, Y, True)):
        for name in RESIDUALS:
            assert type(new[name]) is type(old[name]) is float
            assert abs(new[name] - old[name]) <= 1e-12, name
            assert new[name] <= 1e-12, name


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), ids=st.sampled_from(["int", "str", "mixed"]),
       flips=st.integers(0, 6), twist=st.sampled_from([-1, 0, 1]), real=st.booleans())
def test_random_graphs_match_dict_oracle(seed, ids, flips, twist, real):
    rng = np.random.default_rng(seed)
    g = _relabelled(random_connected_graph(rng, max_vertices=16), ids)
    n = len(g.vertices())
    u = random_vertex_function(rng, g, max_support=int(rng.integers(1, n + 1)), real=real)
    v = random_vertex_function(rng, g, max_support=int(rng.integers(1, n + 1)))
    Y = random_edge_function(rng, g, max_support=int(rng.integers(1, n + 1)), twist=twist)
    edges = g.edges()
    picks = rng.choice(len(edges), size=min(flips, len(edges)), replace=False)
    g = g.with_flipped_orientation([edges[int(i)] for i in picks])
    _check_float(g, u, v, Y)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), real=st.booleans())
def test_quadratic_well_matches_dict_oracle(seed, real):
    rng = np.random.default_rng(seed)
    g = quadratic_well_ray()
    span = list(range(1, 201))
    u = random_function(rng, span, max_support=12, real=real)
    v = random_function(rng, span, max_support=12, real=real)
    starts = rng.choice(199, size=int(rng.integers(1, 13)), replace=False) + 1
    Y = EdgeFunction(g, {(int(n), int(n) + 1): complex(rng.normal(), rng.normal())
                         for n in starts})
    _check_float(g, u, v, Y)


def _fractions(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 9))


def _exact_values(keys, draw, full=False):
    """Nonzero ComplexRational values on all of ``keys`` or on a drawn subset."""
    chosen = keys if full else draw(st.lists(st.sampled_from(keys), unique=True,
                                             max_size=len(keys)))
    values = {}
    for k in chosen:
        re, im = draw(_fractions(-9, 9)), draw(_fractions(-9, 9))
        values[k] = ComplexRational(re, im) if re or im else ComplexRational(1, im)
    return values


@st.composite
def _exact_cases(draw):
    n = draw(st.integers(2, 7))
    ids = draw(st.sampled_from(["int", "str", "mixed"]))
    names = [_name(x, ids) for x in range(1, n + 1)]
    vertices = {x: (draw(_fractions(1, 9)), draw(_fractions(-9, 9)), 1 + draw(_fractions(0, 9)))
                for x in names}
    pairs = {(names[draw(st.integers(0, k - 1))], names[k]) for k in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if i != j and (names[j], names[i]) not in pairs:
            pairs.add((names[i], names[j]))
    g = ExplicitGraph(vertices, {pair: (draw(_fractions(1, 9)), draw(st.sampled_from(EXACT_PHASES)))
                                 for pair in sorted(pairs, key=str)})
    edges = g.edges()
    full = draw(st.booleans())
    u = VertexFunction(_exact_values(names, draw, full))
    v = VertexFunction(_exact_values(names, draw, full))
    Y = EdgeFunction(g, _exact_values(edges, draw), twist=draw(st.sampled_from([-1, 0, 1])))
    flips = draw(st.lists(st.sampled_from(edges), unique=True, max_size=len(edges)))
    return g.with_flipped_orientation(flips), u, v, Y, full


@settings(max_examples=60)
@given(case=_exact_cases())
def test_exact_data_match_dict_oracle_exactly(case):
    g, u, v, Y, full = case
    new, old = _outputs(operators, g, u, v, Y), _outputs(oracle, g, u, v, Y)
    for name in new:
        assert new[name].items() == old[name].items(), name
        assert [type(x) for _, x in new[name].items()] == [type(x) for _, x in old[name].items()]
    for relative in (False, True):
        for name, value in _residuals(operators, g, u, v, Y, relative).items():
            assert value == 0.0, name
        for name, value in _shared(g, u, v, Y, relative).items():
            assert value == 0.0, name
        # the dict loops take the mean of two missing values, (0 + 0) / 2, as
        # the float 0.0, which ComplexRational refuses; full supports avoid it
        if full:
            for name, value in _residuals(oracle, g, u, v, Y, relative).items():
                assert value == 0.0, name


def test_exact_residuals_where_a_function_vanishes_on_an_edge():
    g = ExplicitGraph({1: (Fraction(2), Fraction(1), Fraction(1)),
                       2: (Fraction(1, 3), Fraction(0), Fraction(1)),
                       3: (Fraction(1), Fraction(-1), Fraction(2))},
                      {(1, 2): (Fraction(3), FOURTH_ROOTS[1]),
                       (2, 3): (Fraction(1, 2), pythagorean_phase(2, 1))})
    u = VertexFunction({1: ComplexRational(1, 2)})  # zero at both ends of (2, 3)
    v = VertexFunction({3: ComplexRational(-1, 1)})  # zero at both ends of (1, 2)
    Y = EdgeFunction(g, {(2, 3): ComplexRational(2, -1)})
    for name, value in _residuals(operators, g, u, v, Y, False).items():
        assert value == 0.0, name
