"""Gauss-Legendre panel quadrature and the panel edges it runs on.

Composite Gauss-Legendre panels are the one rule for every grid backend.
Nodes are always strictly interior to their panel, so integrands only
defined on open intervals are safe to evaluate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UsageError


@lru_cache(maxsize=None)
def gauss_legendre_rule(npts: int):
    """Nodes and weights of the npts-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


def panel_nodes_weights(edges, npts):
    """Composite Gauss-Legendre rule over the panels defined by ``edges``.

    Parameters
    ----------
    edges : array_like
        Strictly increasing panel boundaries, length P+1.
    npts : int
        Gauss-Legendre points per panel.

    Returns
    -------
    nodes, weights : ndarray
        Flattened, strictly increasing nodes and positive weights.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise UsageError("edges must be a 1-d array with at least two entries")
    if not np.all(np.diff(edges) > 0):
        raise UsageError("edges must be strictly increasing")
    xg, wg = gauss_legendre_rule(npts)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def uniform_edges(lo, hi, panels):
    return np.linspace(float(lo), float(hi), int(panels) + 1)


def geometric_edges(lo, hi, panels):
    """Panel edges on [0, hi] clustering geometrically toward 0.

    Used for densities with detail concentrated near one endpoint (the
    support-shrinking bump family). ``lo`` is the smallest positive edge;
    a leading panel [0, lo] is prepended.
    """
    off = np.geomspace(float(lo), float(hi), int(panels))
    return np.concatenate([[0.0], off])
