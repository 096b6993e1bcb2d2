"""Evaluation metrics accumulated from the engine's messages.

Five headline metrics per (scheme, gamma, mode) cell: high-relevance ratio
(HRR), mean per-message semantic value, low-relevance ratio (LRR), budget
usage, and semantic efficiency (SE), plus the semantic model's mean estimation
error and the per-variable transmission multiplicity.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum

from .relevance import RelevanceFunction
from .schemes import ids_of


class Aggregation(Enum):
    """A sent variable's semantic value: the best or the mean of its per-receiver values."""

    MAX = "max"
    MEAN = "mean"


@dataclass(slots=True)
class MetricsAccumulator:
    """Additive sufficient statistics for one stream of messages.

    Merging two accumulators equals accumulating the concatenated stream, so
    shards of one episode can be processed independently and combined.
    """

    messages: int = 0
    variables: int = 0
    sv_total: float = 0.0
    low_count: int = 0
    usage_sum: float = 0.0
    eps_sum: float = 0.0
    eps_count: int = 0
    hrr_sum: float = 0.0
    hrr_count: int = 0
    tx_seen_mask: int = field(default=0, repr=False)

    def record_transmission(
        self,
        sent: int,
        values: Sequence[Sequence[float]],
        known: Sequence[int],
        low: int,
        gamma: int,
        aggregation: Aggregation,
        eps: float | None = None,
    ) -> None:
        """Fold one message into the totals.

        `sent` is the mask of transmitted variables; `values` and `known` hold
        one true-value row and one known mask per intended receiver, the mask
        taken immediately before delivery.  A variable already in a receiver's
        known mask is redundant there and worth zero to it; the per-variable
        semantic value is the `aggregation` of these.  A variable counts
        as low-relevance only when its true value sits below s_min for every
        intended receiver, regardless of redundancy: `low` is the mask of
        those variables (see `RelevanceFunction.low_mask`).  `eps` is given
        only when selection used the estimation model.
        """
        self.messages += 1
        n = sent.bit_count()
        self.variables += n
        self.usage_sum += n / gamma
        if eps is not None:
            self.eps_sum += eps
            self.eps_count += 1
        self.tx_seen_mask |= sent
        self.low_count += (sent & low).bit_count()
        receivers = list(zip(values, known))
        mean = aggregation is Aggregation.MEAN
        sv_total = self.sv_total
        for k in ids_of(sent):
            total = best = 0.0
            for row, mask in receivers:
                if not mask >> k & 1:
                    w = row[k]
                    total += w
                    if w > best:
                        best = w
            sv_total += total / len(receivers) if mean else best
        self.sv_total = sv_total

    def record_awareness_snapshot(self, known_mask: int, rel: RelevanceFunction) -> None:
        """One HRR sample: fraction of the vehicle's own high-relevance objects
        currently known to it.  Vehicles with no high-relevance objects are
        skipped rather than counted as zero."""
        high = rel.high_mask.bit_count()
        if high == 0:
            return
        self.hrr_sum += (known_mask & rel.high_mask).bit_count() / high
        self.hrr_count += 1

    def merge(self, other: MetricsAccumulator) -> MetricsAccumulator:
        """Combine two shards of the same stream (associative, commutative):
        the mask of distinct ids is a union, every other total a sum.
        `harness._run_cell` also merges different episodes, where object ids
        name different objects and the `tx_seen_mask` union has no meaning; the
        row takes `tx_multiplicity` from the per-episode values instead."""
        out = MetricsAccumulator()
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            setattr(out, f.name, a | b if f.name == "tx_seen_mask" else a + b)
        return out

    def finalize(self) -> dict[str, float | None]:
        """Reduce the totals to `SweepRow`'s metric columns; absent data stays
        None (serialized as empty cells, never fabricated zeros), and a stream
        with no message has no data at all."""
        m, v, distinct = self.messages, self.variables, self.tx_seen_mask.bit_count()
        columns = {
            "hrr": self.hrr_sum / self.hrr_count if self.hrr_count else None,
            "mean_sv": self.sv_total / m if m else None,
            "lrr": self.low_count / v if v else None,
            "usage": self.usage_sum / m if m else None,
            "se": self.sv_total / v if v else None,
            "mean_eps": self.eps_sum / self.eps_count if self.eps_count else None,
            "tx_multiplicity": v / distinct if distinct else None,
        }
        return columns if m else dict.fromkeys(columns)
