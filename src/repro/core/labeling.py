"""Labelling of disk-resident points (ROCK Section 4.4).

After clustering a random sample, the remaining points are assigned to
clusters in a single pass: a fraction ``L_i`` of points from each sampled
cluster ``i`` is retained, each unlabelled point ``p`` counts its neighbours
``N_i`` within each ``L_i`` (using the same threshold ``theta``), and ``p``
joins the cluster maximising the normalised count

    ``N_i / (|L_i| + 1) ** f(theta)``

The normalisation accounts for larger clusters naturally offering more
neighbours.  Points with no neighbours in any cluster are reported as
outliers (label ``-1``) unless ``assign_outliers=False`` requests that they
join the cluster with the highest raw neighbour count (with every count at
zero that is the largest cluster).

Two counting strategies implement the neighbour pass, selected by the
``strategy`` parameter:

* ``"sparse-matmul"`` — join the unlabelled points against the retained
  sample through the exact threshold join
  (:func:`repro.core.join.threshold_counts`): a row-blocked sparse product
  over the shared item incidence (see
  :func:`repro.data.encoding.transactions_to_incidence`), thresholded block
  by block and folded straight into per-cluster counts.
  Requires a measure with the
  :class:`~repro.similarity.base.VectorizedSetSimilarity` capability
  (Jaccard, Dice, overlap coefficient, set cosine) — the same capability
  the fast neighbour backends key on.
* ``"bruteforce"`` — evaluate ``measure(point, sample)`` pair by pair; works
  with any measure and is the reference implementation.
* ``"auto"`` (default) — the sparse product for vectorizable measures,
  brute force otherwise.  Both strategies produce identical counts, labels
  and outlier sets (enforced by the test suite).

For data sets that do not fit in memory, :class:`StreamingLabeler` binds the
retained fractions (and, under the sparse strategy, their incidence matrix)
**once** and then labels arbitrarily many batches through
:meth:`StreamingLabeler.label_batch`; :func:`label_points_streaming` drives
it over an iterable of batches.  Batching never changes the labels: each
point's neighbour counts depend only on the retained fractions, so the
concatenation of the per-batch results is bit-identical to one
:func:`label_points` call on the concatenated input.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.goodness import ExponentFunction, default_expected_links_exponent
from repro.core.join import threshold_counts
from repro.data.encoding import build_item_index, transactions_to_incidence
from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.base import SetSimilarity, supports_vectorized_counts
from repro.similarity.jaccard import JaccardSimilarity

#: Strategies accepted by :func:`label_points`.
LABELING_STRATEGIES = ("auto", "bruteforce", "sparse-matmul")


@dataclass
class LabelingResult:
    """Outcome of the labelling pass.

    Attributes
    ----------
    labels:
        One label per unlabelled input point; ``-1`` marks outliers that had
        no neighbour in any cluster fraction.
    neighbor_counts:
        ``(n_points, n_clusters)`` matrix of raw neighbour counts ``N_i``.
    n_outliers:
        Number of points labelled ``-1``.
    """

    labels: np.ndarray
    neighbor_counts: np.ndarray
    n_outliers: int


@dataclass
class StreamingLabelingResult:
    """Outcome of a batched labelling pass (:func:`label_points_streaming`).

    Attributes
    ----------
    batch_results:
        One :class:`LabelingResult` per input batch, in batch order.
    merged:
        The concatenation of the per-batch results — bit-identical to the
        :class:`LabelingResult` of one :func:`label_points` call on the
        concatenated batches.
    n_batches:
        Number of batches labelled.
    n_points:
        Total number of points labelled across all batches.
    """

    batch_results: list[LabelingResult]
    merged: LabelingResult
    n_batches: int
    n_points: int


def select_labeling_fractions(
    clusters: Sequence[Sequence[int]],
    fraction: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> list[list[int]]:
    """Choose the subset ``L_i`` of each sampled cluster used for labelling.

    The paper labels against a random fraction of each cluster to reduce the
    per-point cost; ``fraction=1.0`` (the default) uses every sampled point.
    Every cluster retains at least one point (the ``max(1, ...)`` guard, so
    a tiny fraction of a tiny cluster can never round down to an empty
    ``L_i``).
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError("fraction must lie in (0, 1], got %r" % fraction)
    generator = np.random.default_rng(rng)
    fractions: list[list[int]] = []
    for members in clusters:
        members = list(members)
        if not members:
            raise DataValidationError("labelling requires non-empty clusters")
        keep = max(1, int(round(fraction * len(members))))
        if keep >= len(members):
            fractions.append(members)
        else:
            chosen = generator.choice(len(members), size=keep, replace=False)
            fractions.append([members[i] for i in sorted(chosen)])
    return fractions


def _neighbor_counts_bruteforce(
    unlabeled: list[frozenset],
    sample: list[frozenset],
    fractions: list[list[int]],
    theta: float,
    measure: SetSimilarity,
) -> np.ndarray:
    """Reference pair-by-pair neighbour counting."""
    counts = np.zeros((len(unlabeled), len(fractions)), dtype=float)
    for point_index, point in enumerate(unlabeled):
        for cluster_index, subset in enumerate(fractions):
            count = 0
            for sample_index in subset:
                if measure(point, sample[sample_index]) >= theta:
                    count += 1
            counts[point_index, cluster_index] = count
    return counts


class StreamingLabeler:
    """Labels batches of points against a fixed sampled clustering.

    All per-clustering work happens once, in the constructor: the retained
    fractions ``L_i`` are drawn, the normalisers are computed and — under the
    sparse strategy — the retained-sample incidence matrix is built.  Each
    :meth:`label_batch` call then costs one sparse product (or brute-force
    sweep) over the batch only, so a disk-resident data set can be labelled
    with peak memory bounded by the sample plus one batch.

    Items of a batch that never occur in the sample are ignored by the
    sparse encoding (they cannot intersect any retained point) while still
    counting towards the point's true set size in the measure's size terms
    (e.g. the Jaccard union), so batches may contain items unseen when the
    labeler was built.

    Parameters are those of :func:`label_points` minus ``unlabeled``; see
    there for their meaning.
    """

    def __init__(
        self,
        sample: Sequence[frozenset],
        clusters: Sequence[Sequence[int]],
        theta: float,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
        labeling_fraction: float = 1.0,
        rng: np.random.Generator | int | None = None,
        strategy: str = "auto",
        item_index: dict | None = None,
        assign_outliers: bool = True,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ConfigurationError("theta must lie in [0, 1], got %r" % theta)
        if measure is None:
            measure = JaccardSimilarity()
        if exponent_function is None:
            exponent_function = default_expected_links_exponent
        if strategy not in LABELING_STRATEGIES:
            raise ConfigurationError(
                "unknown labeling strategy %r; expected one of %s"
                % (strategy, ", ".join(LABELING_STRATEGIES))
            )
        vectorizable = supports_vectorized_counts(measure)
        if strategy == "sparse-matmul" and not vectorizable:
            raise ConfigurationError(
                "the sparse-matmul strategy requires a measure with the "
                "vectorized-counts capability (similarity_from_counts); %r "
                "does not provide it — use strategy='bruteforce' or 'auto'"
                % getattr(measure, "name", measure)
            )
        if not clusters:
            raise DataValidationError("labelling requires at least one cluster")

        self.theta = float(theta)
        self.measure = measure
        self.assign_outliers = bool(assign_outliers)
        self.sample = [frozenset(t) for t in sample]
        self.fractions = select_labeling_fractions(
            clusters, fraction=labeling_fraction, rng=rng
        )
        self._exponent = exponent_function(self.theta)
        self.n_clusters = len(self.fractions)
        # Fallback target of ``assign_outliers=False``: with every raw count
        # at zero the argmax-count rule degenerates to the largest cluster
        # (first one on ties).
        self._fallback_label = max(
            range(self.n_clusters), key=lambda i: (len(clusters[i]), -i)
        )
        self._use_sparse = strategy == "sparse-matmul" or (
            strategy == "auto" and vectorizable
        )
        self._bind_derived(item_index)
        # Running totals across batches (the merged summary).
        self.n_batches = 0
        self.n_points = 0
        self.n_outliers = 0

    # ------------------------------------------------------------------ #
    def _bind_derived(self, item_index: dict | None) -> None:
        """Build the sparse-strategy structures from the retained fractions.

        Shared by the constructor and :meth:`from_state`: everything here is
        a pure function of ``sample``, ``fractions``, ``theta``, ``measure``
        and ``item_index`` — no RNG is consumed, which is what lets a
        restored labeler reproduce the original bit-for-bit.
        """
        self.n_clusters = len(self.fractions)
        self.normalisers = np.array(
            [(len(subset) + 1.0) ** self._exponent for subset in self.fractions],
            dtype=float,
        )
        if self._use_sparse:
            retained = [self.sample[i] for subset in self.fractions for i in subset]
            if item_index is None:
                item_index = build_item_index(self.sample)
            self._item_index = item_index
            self._cluster_of_column = np.repeat(
                np.arange(self.n_clusters), [len(s) for s in self.fractions]
            )
            # Built exactly once; every batch reuses it.  CSC, so the join
            # gets its transpose row-major without a per-batch conversion.
            retained_incidence, _ = transactions_to_incidence(retained, item_index)
            self._retained_incidence = retained_incidence.tocsc()
            self._retained_sizes = np.asarray(
                [len(t) for t in retained], dtype=np.int64
            )

    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        """Everything needed to rebuild this labeler without consuming RNG.

        The retained fractions were drawn from the caller's generator in the
        constructor; persisting them (rather than redrawing on restore) is
        what keeps a restored session on the original random stream.  The
        measure and exponent function are *not* captured — they are code,
        not data — and must be re-supplied to :meth:`from_state`.
        """
        return {
            "sample": list(self.sample),
            "fractions": [list(subset) for subset in self.fractions],
            "fallback_label": int(self._fallback_label),
            "use_sparse": bool(self._use_sparse),
            "item_index": dict(self._item_index) if self._use_sparse else None,
            "n_batches": int(self.n_batches),
            "n_points": int(self.n_points),
            "n_outliers": int(self.n_outliers),
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        theta: float,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
        assign_outliers: bool = True,
    ) -> "StreamingLabeler":
        """Rebuild a labeler from :meth:`state` output.

        Derived structures (normalisers, retained incidence) are recomputed
        deterministically from the stored fractions; no random draw happens,
        so the caller's RNG stream is untouched.
        """
        if measure is None:
            measure = JaccardSimilarity()
        if exponent_function is None:
            exponent_function = default_expected_links_exponent
        if state["use_sparse"] and not supports_vectorized_counts(measure):
            raise ConfigurationError(
                "labeler state was captured under the sparse-matmul strategy "
                "but %r lacks the vectorized-counts capability"
                % getattr(measure, "name", measure)
            )
        labeler = cls.__new__(cls)
        labeler.theta = float(theta)
        labeler.measure = measure
        labeler.assign_outliers = bool(assign_outliers)
        labeler.sample = [frozenset(t) for t in state["sample"]]
        labeler.fractions = [list(subset) for subset in state["fractions"]]
        labeler._exponent = exponent_function(labeler.theta)
        labeler._fallback_label = int(state["fallback_label"])
        labeler._use_sparse = bool(state["use_sparse"])
        labeler._bind_derived(state["item_index"])
        labeler.n_batches = int(state["n_batches"])
        labeler.n_points = int(state["n_points"])
        labeler.n_outliers = int(state["n_outliers"])
        return labeler

    # ------------------------------------------------------------------ #
    def _sparse_counts(self, batch: list[frozenset]) -> np.ndarray:
        """Neighbour counts of one batch through the threshold join."""
        batch_incidence, _ = transactions_to_incidence(
            batch, self._item_index, ignore_unknown=True
        )
        # True set sizes (unknown items included): the incidence row sums
        # would under-count points holding items outside the shared index.
        batch_sizes = np.asarray([len(t) for t in batch], dtype=np.int64)
        counts = threshold_counts(
            batch_incidence,
            self._retained_incidence,
            batch_sizes,
            self._retained_sizes,
            self.theta,
            self.measure,
            groups=self._cluster_of_column,
            n_groups=self.n_clusters,
        )
        return counts.astype(float)

    # ------------------------------------------------------------------ #
    def label_batch(self, batch: Sequence[frozenset]) -> LabelingResult:
        """Label one batch of points; see :func:`label_points`."""
        batch = [frozenset(t) for t in batch]
        if self._use_sparse:
            counts = self._sparse_counts(batch)
        else:
            counts = _neighbor_counts_bruteforce(
                batch, self.sample, self.fractions, self.theta, self.measure
            )
        labels = np.full(len(batch), -1, dtype=int)
        if len(batch):
            scores = counts / self.normalisers[np.newaxis, :]
            best = np.argmax(scores, axis=1)
            has_neighbors = counts.max(axis=1) > 0
            labels[has_neighbors] = best[has_neighbors]
            if not self.assign_outliers:
                labels[~has_neighbors] = self._fallback_label
        result = LabelingResult(
            labels=labels,
            neighbor_counts=counts,
            n_outliers=int(np.sum(labels == -1)),
        )
        self.n_batches += 1
        self.n_points += len(batch)
        self.n_outliers += result.n_outliers
        return result

    # ------------------------------------------------------------------ #
    def merge(self, batch_results: Sequence[LabelingResult]) -> LabelingResult:
        """Concatenate per-batch results into one :class:`LabelingResult`."""
        if batch_results:
            labels = np.concatenate([r.labels for r in batch_results])
            counts = np.vstack([r.neighbor_counts for r in batch_results])
        else:
            labels = np.zeros(0, dtype=int)
            counts = np.zeros((0, self.n_clusters), dtype=float)
        return LabelingResult(
            labels=labels,
            neighbor_counts=counts,
            n_outliers=int(np.sum(labels == -1)),
        )


def label_points_streaming(
    batches: Iterable[Sequence[frozenset]],
    sample: Sequence[frozenset],
    clusters: Sequence[Sequence[int]],
    theta: float,
    measure: SetSimilarity | None = None,
    exponent_function: ExponentFunction | None = None,
    labeling_fraction: float = 1.0,
    rng: np.random.Generator | int | None = None,
    strategy: str = "auto",
    item_index: dict | None = None,
    assign_outliers: bool = True,
) -> StreamingLabelingResult:
    """Label an iterable of point batches against the sampled clusters.

    The chunked counterpart of :func:`label_points`: the retained fractions
    and (under the sparse strategy) their incidence matrix are built exactly
    once, then every batch is folded through the per-batch neighbour count.
    Each labelling step only touches the retained sample plus one batch,
    but the *result* keeps every batch's dense ``neighbor_counts`` matrix
    (plus the merged copy), so result memory grows
    ``O(n_points * n_clusters)``.  For a truly bounded-memory loop over an
    unbounded stream, drive a :class:`StreamingLabeler` directly and keep
    only the labels of each batch — that is what
    :meth:`repro.core.pipeline.RockPipeline.run_streaming` does.

    Parameters are those of :func:`label_points` with ``batches`` (an
    iterable of transaction batches) in place of ``unlabeled``.

    Returns
    -------
    StreamingLabelingResult
        Per-batch :class:`LabelingResult` objects plus the merged summary;
        ``merged`` is bit-identical to labelling the concatenated batches in
        one call.
    """
    labeler = StreamingLabeler(
        sample,
        clusters,
        theta=theta,
        measure=measure,
        exponent_function=exponent_function,
        labeling_fraction=labeling_fraction,
        rng=rng,
        strategy=strategy,
        item_index=item_index,
        assign_outliers=assign_outliers,
    )
    batch_results = [labeler.label_batch(batch) for batch in batches]
    return StreamingLabelingResult(
        batch_results=batch_results,
        merged=labeler.merge(batch_results),
        n_batches=labeler.n_batches,
        n_points=labeler.n_points,
    )


def label_points(
    unlabeled: Sequence[frozenset],
    sample: Sequence[frozenset],
    clusters: Sequence[Sequence[int]],
    theta: float,
    measure: SetSimilarity | None = None,
    exponent_function: ExponentFunction | None = None,
    labeling_fraction: float = 1.0,
    rng: np.random.Generator | int | None = None,
    strategy: str = "auto",
    item_index: dict | None = None,
    assign_outliers: bool = True,
) -> LabelingResult:
    """Assign each unlabelled point to the best sampled cluster.

    The one-shot entry point: a :class:`StreamingLabeler` bound to the
    clustering labels ``unlabeled`` as a single batch.

    Parameters
    ----------
    unlabeled:
        Item sets of the points that were *not* part of the clustered sample.
    sample:
        Item sets of the sampled points (indexable by the indices appearing
        in ``clusters``).
    clusters:
        Cluster membership over the sample, as sequences of sample indices.
    theta:
        Similarity threshold (the same value used for clustering).
    measure:
        Similarity measure; defaults to Jaccard.
    exponent_function:
        ``f(theta)``; defaults to the paper's.
    labeling_fraction:
        Fraction of each cluster retained for neighbour counting.
    rng:
        Random generator or seed for the fraction selection.
    strategy:
        Neighbour-counting strategy: ``"sparse-matmul"`` (measures with the
        vectorized-counts capability), ``"bruteforce"``, or ``"auto"`` (the
        sparse product for vectorizable measures, brute force otherwise).
    item_index:
        Optional pre-built item-to-column index covering every item of
        ``sample`` (see :func:`repro.data.encoding.build_item_index`); used
        by the sparse strategy to skip rebuilding the index.  Items of
        ``unlabeled`` outside the index are ignored for intersections but
        still count towards the Jaccard union.
    assign_outliers:
        When ``True`` (the paper's behaviour and the default), points with
        no neighbour in any cluster fraction keep label ``-1``; when
        ``False`` they join the cluster with the highest raw neighbour
        count, which with every count at zero is the largest cluster.

    Returns
    -------
    LabelingResult
    """
    labeler = StreamingLabeler(
        sample,
        clusters,
        theta=theta,
        measure=measure,
        exponent_function=exponent_function,
        labeling_fraction=labeling_fraction,
        rng=rng,
        strategy=strategy,
        item_index=item_index,
        assign_outliers=assign_outliers,
    )
    return labeler.label_batch(unlabeled)
