"""Betweenness centrality (Brandes' algorithm) and the smarter attack.

Degree is a cheap hub proxy; betweenness — the share of shortest paths
through a node — measures actual traffic mediation, which is what both
the §5.1 virus and the §4.5 load cascades exploit.  Brandes' algorithm
computes exact betweenness in O(nm) with a BFS + dependency
accumulation per source; :class:`BetweennessAttack` removes the highest
mediators first, typically shattering networks even faster than degree
targeting.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike
from .arraygraph import ArrayGraph, row_blocks, sorted_distinct
from .attacks import AttackStrategy
from .graph import Graph

__all__ = ["betweenness_centrality", "BetweennessAttack"]


def _betweenness_array(ag: ArrayGraph, normalized: bool) -> np.ndarray:
    """Brandes over CSR: level-synchronous BFS + per-level accumulation,
    in the object path's summation order (see there)."""
    n = ag.n_nodes
    indptr, indices = ag.indptr, ag.indices
    bc = np.zeros(n)
    for source in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[source] = 0
        sigma[source] = 1.0
        levels = [np.asarray([source], dtype=np.int64)]
        frontier = levels[0]
        d = 0
        while frontier.size:
            [(_, _, flat, counts)] = row_blocks(indptr, indices, frontier)
            flat = flat.astype(np.int64)
            new = sorted_distinct(flat[dist[flat] == -1])
            dist[new] = d + 1
            at_next = dist[flat] == d + 1
            np.add.at(
                sigma, flat[at_next],
                np.repeat(sigma[frontier], counts)[at_next],
            )
            levels.append(new)
            frontier = new
            d += 1
        # dependency accumulation, farthest level first
        delta = np.zeros(n)
        for d in range(len(levels) - 1, 0, -1):
            lev = levels[d]
            if lev.size == 0:
                continue
            [(_, _, flat, counts)] = row_blocks(indptr, indices, lev)
            flat = flat.astype(np.int64)
            coef = (1.0 + delta[lev]) / sigma[lev]
            preds = dist[flat] == d - 1
            contrib = sigma[flat] * np.repeat(coef, counts)
            np.add.at(delta, flat[preds], contrib[preds])
            bc[lev] += delta[lev]
    bc /= 2.0
    if normalized and n > 2:
        bc *= 2.0 / ((n - 1) * (n - 2))
    return bc


def betweenness_centrality(g: "Graph | ArrayGraph", normalized: bool = True
                           ) -> Dict[object, float]:
    """Exact shortest-path betweenness of every node (Brandes 2001).

    ``normalized`` divides by (n−1)(n−2)/2, the count of possible
    mediated pairs in an undirected graph.  An :class:`ArrayGraph`
    argument runs the vectorized CSR variant.
    """
    if isinstance(g, ArrayGraph):
        scores = _betweenness_array(g, normalized)
        return {label: float(s) for label, s in zip(g.labels, scores)}
    # one summation order, the CSR's: each level ascending by node
    # index, each row in the set order ArrayGraph.from_graph reads;
    # sigma, then delta, accumulated over that flat order
    rows = g._adj  # sibling access, as ArrayGraph.from_graph
    nodes = list(rows)
    pos = dict(zip(nodes, range(len(nodes))))
    betweenness: Dict[object, float] = dict.fromkeys(nodes, 0.0)
    for source in nodes:
        # single-source shortest paths (unweighted: BFS), level by level
        distance: Dict[object, int] = {source: 0}
        sigma: Dict[object, float] = {source: 1.0}
        levels = [[source]]
        while levels[-1]:
            d = len(levels)
            new = []
            for v in levels[-1]:
                for w in rows[v]:
                    if w not in distance:
                        distance[w] = d
                        new.append(w)
                    if distance[w] == d:
                        sigma[w] = sigma.get(w, 0.0) + sigma[v]
            levels.append(sorted(new, key=pos.__getitem__))
        # dependency accumulation, farthest level first
        delta: Dict[object, float] = {}
        for d in range(len(levels) - 2, 0, -1):
            for w in levels[d]:
                dw = delta.get(w, 0.0)
                coef = (1.0 + dw) / sigma[w]
                for v in rows[w]:
                    if distance[v] == d - 1:
                        delta[v] = delta.get(v, 0.0) + sigma[v] * coef
                betweenness[w] += dw
        # undirected: every pair is visited from both endpoints
    for v in betweenness:
        betweenness[v] /= 2.0
    if normalized:
        n = len(nodes)
        if n > 2:
            scale = 2.0 / ((n - 1) * (n - 2))
            for v in betweenness:
                betweenness[v] *= scale
    return betweenness


class BetweennessAttack(AttackStrategy):
    """Remove nodes by descending betweenness on the intact graph.

    A static ranking (like :class:`TargetedDegreeAttack`); recomputing
    after every removal is exact but O(n²m) — prohibitive beyond small
    graphs, so the static variant is the practical attacker model.
    """

    def removal_order(self, g: Graph, seed: SeedLike = None) -> list[object]:
        scores = betweenness_centrality(g)
        return sorted(scores, key=lambda node: (-scores[node], repr(node)))
