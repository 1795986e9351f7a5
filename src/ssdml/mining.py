"""Triplet mining from sorted neighborhoods of the propagated affinities."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graph import NeighborGraph
from .propagation import EdgeAffinity


def _rank_neighbors(W: np.ndarray | EdgeAffinity, graph: NeighborGraph,
                    anchors: np.ndarray) -> np.ndarray:
    """(A, k) neighbor lists of the anchors, by descending propagated affinity;
    affinity ties break toward the smaller node index.

    W is an EdgeAffinity, read in place, or a dense (n, n) matrix, gathered
    at the anchors' neighbor entries.
    """
    nbrs = graph.neighbors[anchors]
    if isinstance(W, EdgeAffinity):
        affinities = W.edges[anchors]
    else:
        affinities = np.asarray(W)[anchors[:, None], nbrs]
    # lexsort keys are least significant first: index ascending, then
    # affinity descending; each row sorts on its own.
    return np.take_along_axis(nbrs, np.lexsort((nbrs, -affinities), axis=-1), axis=-1)


def sorted_neighborhood(W: np.ndarray | EdgeAffinity, graph: NeighborGraph,
                        anchor: int) -> np.ndarray:
    """The anchor's k graph neighbors, by descending propagated affinity.

    W is a dense (n, n) affinity matrix or the EdgeAffinity propagate()
    returns.  Affinity ties break toward the smaller node index.
    """
    return _rank_neighbors(W, graph, np.array([anchor], dtype=np.int64))[0]


def require_even_k(k: int) -> None:
    """Mining splits each neighborhood into halves, so k must be even."""
    if k % 2 != 0:
        raise ConfigError(f"triplet mining needs an even k (got {k})")


def mine_triplets(W: np.ndarray | EdgeAffinity, graph: NeighborGraph) -> np.ndarray:
    """Pair the top half of each sorted neighborhood against the bottom half.

    Every node is an anchor.  W is a dense (n, n) affinity matrix or the
    EdgeAffinity propagate() returns; both rank each node's neighbors the
    same way.  The rank-i entry becomes the positive and the rank-(k/2+i)
    entry the negative of one triplet, giving k/2 triplets per node.
    Returns an (n k/2, 3) int64 array of (anchor, positive, negative) rows,
    anchor by anchor and rank by rank.
    """
    require_even_k(graph.k)
    anchors = np.arange(graph.n)
    ranked = _rank_neighbors(W, graph, anchors)
    half = graph.k // 2
    triplets = np.empty((graph.n, half, 3), dtype=np.int64)
    triplets[:, :, 0] = anchors[:, None]
    triplets[:, :, 1] = ranked[:, :half]
    triplets[:, :, 2] = ranked[:, half:]
    return triplets.reshape(-1, 3)


def batch_triplets(triplets, batch_size: int, seed=0, epoch: int = 0):
    """Shuffle the rows of a (T, 3) triplet array and chunk them into
    batches of `batch_size` rows.

    The shuffle seed is derived from (seed, epoch) so every epoch gets a
    fresh deterministic order; only the final batch may come up short.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    triplets = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    if len(triplets) == 0:
        raise ConfigError("no triplets mined; cannot form batches")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), epoch]))
    shuffled = triplets[rng.permutation(len(triplets))]
    return [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]
