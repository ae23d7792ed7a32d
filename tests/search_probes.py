"""How a search ran: a view of a graph whose searches stay on the frontier,
and a count of the records a lazy ray evaluates."""

import copy

import numpy as np


def frontier_only(g):
    """A view of ``g`` whose searches stay on the frontier: it hands over no
    whole window and is not searched as running sums.  Its completeness
    probe does not classify a ray's series, so compare searches with it."""
    view = copy.copy(g)
    view.whole_window = lambda: None
    view.is_metric_ray = False
    return view


def count_records(monkeypatch, g):
    """The n at which the ray ``g`` evaluates w from now on, one entry per
    element: the records that a window or a search evaluates as arrays,
    and each single read past the prefix."""
    evaluated = []
    w = g._w
    monkeypatch.setattr(g, "_w", lambda ns: evaluated.extend(np.atleast_1d(ns).tolist()) or w(ns))
    return evaluated
