"""A seeded square lattice with a magnetic flux, for tests that need a
complex, non-tree graph of a chosen size."""

import math

import numpy as np

from magschro.graphs import ExplicitGraph


def flux_lattice(side, seed):
    """A seeded side x side lattice with a Landau-gauge flux on its vertical
    edges and log-uniform w, a and q (q in [1, 4])."""
    rng = np.random.default_rng(seed)
    cells = [(r, c) for r in range(side) for c in range(side)]
    ids = [r * side + c for r, c in cells]
    w = np.exp(rng.uniform(math.log(0.5), math.log(2.0), len(ids)))
    q = np.exp(rng.uniform(0.0, math.log(4.0), len(ids)))
    pairs = [(x, x + 1) for x, (r, c) in zip(ids, cells) if c + 1 < side]
    pairs += [(x, x + side) for x, (r, c) in zip(ids, cells) if r + 1 < side]
    a = np.exp(rng.uniform(math.log(2.0), math.log(8.0), len(pairs)))
    sigma = [1.0 if y == x + 1 else complex(math.cos(0.2 * math.pi * (x % side)),
                                            math.sin(0.2 * math.pi * (x % side)))
             for x, y in pairs]
    return ExplicitGraph.from_columns(ids, w, -q + rng.exponential(1.0, len(ids)), q,
                                      [x for x, _ in pairs], [y for _, y in pairs], a, sigma)
