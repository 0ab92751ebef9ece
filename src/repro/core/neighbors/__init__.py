"""Neighbour computation: the thresholded similarity graph of ROCK.

Two points are *neighbours* when their similarity is at least ``theta``
(Section 3.1 of the paper).  The neighbour relation is represented as a
:class:`NeighborGraph`, a thin wrapper over a boolean SciPy sparse
adjacency matrix that also keeps the parameters used to build it.

Construction is delegated to a pluggable **backend registry**
(:mod:`repro.core.neighbors.base`); three backends ship built in, all
producing bit-identical adjacencies on the same inputs:

* ``"bruteforce"`` — evaluate the measure for every pair.  Works with any
  :class:`~repro.similarity.base.SetSimilarity`; the reference spec.
* ``"blocked"`` — the incidence product in row blocks over the upper
  triangle, so the COO intermediate stays under ``block_size x n``
  entries; works with every
  :class:`~repro.similarity.base.VectorizedSetSimilarity` (Jaccard, Dice,
  overlap coefficient, set cosine).
* ``"inverted-index"`` — per-item posting lists generate the candidate
  pairs with their intersection counts.

Both fast backends threshold through the one exact join of
:mod:`repro.core.join`.  ``strategy="auto"`` (the default everywhere)
picks brute force for non-vectorizable measures, the blocked product
otherwise, and — at :data:`AUTO_INVERTED_MIN_POINTS` points or more, when
the posting-list statistics mark the workload as sparse and rare-item
(:func:`candidate_pair_density` at or below
:data:`AUTO_INVERTED_MAX_DENSITY`) — the inverted index; see
:func:`select_backend_name`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.neighbors.base import (
    AUTO_INVERTED_MAX_DENSITY,
    AUTO_INVERTED_MIN_POINTS,
    AUTO_STRATEGY,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_NEIGHBOR_STRATEGY,
    NeighborBackend,
    available_backends,
    candidate_pair_density,
    get_backend,
    normalize_backend_name,
    register_backend,
    select_backend_name,
    validate_block_size,
)
from repro.core.neighbors.blocked import BlockedBackend
from repro.core.neighbors.bruteforce import BruteForceBackend
from repro.core.neighbors.graph import (
    NeighborGraph,
    as_transaction_list,
    validate_theta,
)
from repro.core.neighbors.inverted import InvertedIndexBackend
from repro.errors import ConfigurationError
from repro.similarity.base import SetSimilarity
from repro.similarity.jaccard import JaccardSimilarity

register_backend(BruteForceBackend())
register_backend(BlockedBackend())
register_backend(InvertedIndexBackend())

def neighbor_strategies() -> tuple:
    """``"auto"`` plus every registered backend name, in registration order.

    The live view of the registry: call it (the CLI does, at parser-build
    time) so backends registered after import are picked up.
    """
    return (AUTO_STRATEGY, *available_backends())


#: Import-time snapshot of :func:`neighbor_strategies` covering the
#: built-in backends; prefer the function when late registrations matter.
NEIGHBOR_STRATEGIES = neighbor_strategies()


def compute_neighbors(
    transactions: Sequence[frozenset],
    theta: float,
    measure: SetSimilarity | None = None,
    strategy: str = DEFAULT_NEIGHBOR_STRATEGY,
    item_index: dict | None = None,
    block_size: int | None = None,
) -> NeighborGraph:
    """Build the neighbour graph of ``transactions`` under threshold ``theta``.

    Parameters
    ----------
    transactions:
        Item sets (one per point).
    theta:
        Similarity threshold in ``[0, 1]``; a pair with similarity >= theta
        is connected.
    measure:
        Similarity measure; defaults to the Jaccard coefficient.
    strategy:
        A registered backend name (``"bruteforce"``, ``"blocked"``,
        ``"inverted-index"``) or ``"auto"``, which picks a
        backend from the measure's capabilities and the input size
        (:func:`select_backend_name`).
    item_index:
        Optional pre-built item-to-column index covering every item of
        ``transactions`` (see :func:`repro.data.encoding.build_item_index`);
        used by the incidence-based backends to skip rebuilding the index.
    block_size:
        Row-block height of the ``"blocked"`` backend (default
        :data:`DEFAULT_BLOCK_SIZE`); the blocked intersection product
        materialises at most ``block_size * n`` count entries at once.
        Ignored by the other backends.

    Returns
    -------
    NeighborGraph

    Raises
    ------
    ConfigurationError
        For an unknown strategy, an out-of-range ``theta`` or
        ``block_size``, or a backend/measure capability mismatch (e.g. the
        blocked backend with a measure that does not implement
        :class:`~repro.similarity.base.VectorizedSetSimilarity`).
    """
    theta = validate_theta(theta)
    transactions = as_transaction_list(transactions)
    if measure is None:
        measure = JaccardSimilarity()
    validate_block_size(block_size)

    name = normalize_backend_name(strategy)
    if name == AUTO_STRATEGY:
        name = select_backend_name(
            measure, len(transactions), transactions=transactions
        )
    backend = get_backend(name)
    if not backend.supports(measure):
        hint = getattr(
            backend, "capability_hint", "does not support this measure"
        )
        raise ConfigurationError(
            "the %s neighbour backend %s (got measure %r)"
            % (backend.name, hint, getattr(measure, "name", measure))
        )

    adjacency = backend.build_adjacency(
        transactions, theta, measure, item_index=item_index, block_size=block_size
    )
    return NeighborGraph(
        adjacency=adjacency,
        theta=theta,
        measure_name=getattr(measure, "name", measure.__class__.__name__),
    )


__all__ = [
    "AUTO_INVERTED_MAX_DENSITY",
    "AUTO_INVERTED_MIN_POINTS",
    "AUTO_STRATEGY",
    "candidate_pair_density",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_NEIGHBOR_STRATEGY",
    "NEIGHBOR_STRATEGIES",
    "NeighborBackend",
    "NeighborGraph",
    "BlockedBackend",
    "BruteForceBackend",
    "InvertedIndexBackend",
    "available_backends",
    "compute_neighbors",
    "get_backend",
    "neighbor_strategies",
    "register_backend",
    "select_backend_name",
]
