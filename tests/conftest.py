import numpy as np
import pytest
from hypothesis import settings

from magschro.graphs import EdgeData, ExplicitGraph, VertexData

# property tests replay the same examples on every run and have no deadline
settings.register_profile("magschro", derandomize=True, deadline=None)
settings.load_profile("magschro")


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def two_vertex_graph(*, w1=1.0, w2=1.0, a=1.0, sigma=1.0 + 0.0j, W1=0.0, W2=0.0,
                     q1=1.0, q2=1.0) -> ExplicitGraph:
    return ExplicitGraph(
        {"x": VertexData(w1, W1, q1), "y": VertexData(w2, W2, q2)},
        {("x", "y"): EdgeData(a, sigma)},
    )
