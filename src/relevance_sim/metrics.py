"""Evaluation metrics accumulated from the engine's messages.

Five headline metrics per (scheme, gamma, mode) cell: high-relevance ratio
(HRR), mean per-message semantic value, low-relevance ratio (LRR), budget
usage, and semantic efficiency (SE), plus the semantic model's mean estimation
error and the per-variable transmission multiplicity.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .relevance import RelevanceFunction

SV_AGGREGATIONS = ("max", "mean")


@dataclass(frozen=True)
class MetricsRecord:
    hrr: float | None
    mean_sv: float | None
    lrr: float | None
    usage: float | None
    se: float | None
    mean_eps: float | None
    tx_multiplicity: float | None
    messages: int
    variables: int
    slots: int


@dataclass(slots=True)
class MetricsAccumulator:
    """Additive sufficient statistics for one stream of messages.

    Merging two accumulators equals accumulating the concatenated stream, so
    shards of one episode can be processed independently and combined.
    """

    s_min: float
    sv_aggregation: str = "max"
    messages: int = 0
    variables: int = 0
    sv_total: float = 0.0
    low_count: int = 0
    usage_sum: float = 0.0
    eps_sum: float = 0.0
    eps_count: int = 0
    hrr_sum: float = 0.0
    hrr_count: int = 0
    slots_counted: int = 0
    tx_seen_mask: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.sv_aggregation not in SV_AGGREGATIONS:
            raise ValueError(f"unknown sv_aggregation {self.sv_aggregation!r}")

    def record_transmission(
        self,
        ids: Sequence[int],
        values: Sequence[Sequence[float]],
        known: Sequence[int],
        gamma: int,
        eps: float | None = None,
    ) -> None:
        """Fold one message into the totals.

        `ids` are the transmitted variables; `values` and `known` hold one
        true-value row and one known mask per intended receiver, the mask
        taken immediately before delivery.  A variable already in a receiver's
        known mask is redundant there and worth zero to it; the per-variable
        semantic value aggregates these per-receiver values.  A variable counts
        as low-relevance only when its true value sits below s_min for every
        intended receiver, regardless of redundancy.  `eps` is given only when
        selection used the estimation model.
        """
        self.messages += 1
        n = len(ids)
        self.variables += n
        self.usage_sum += n / gamma
        if eps is not None:
            self.eps_sum += eps
            self.eps_count += 1
        use_mean = self.sv_aggregation == "mean"
        for k in ids:
            self.tx_seen_mask |= 1 << k
            total = 0.0
            best = 0.0
            low = True
            for row, mask in zip(values, known):
                w = row[k]
                s = 0.0 if mask >> k & 1 else w
                total += s
                if s > best:
                    best = s
                if w >= self.s_min:
                    low = False
            self.sv_total += total / len(values) if use_mean else best
            if low:
                self.low_count += 1

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
        """Combine two shards of the same stream (associative, commutative)."""
        if other.s_min != self.s_min or other.sv_aggregation != self.sv_aggregation:
            raise ValueError("cannot merge accumulators with different settings")
        out = MetricsAccumulator(s_min=self.s_min, sv_aggregation=self.sv_aggregation)
        out.messages = self.messages + other.messages
        out.variables = self.variables + other.variables
        out.sv_total = self.sv_total + other.sv_total
        out.low_count = self.low_count + other.low_count
        out.usage_sum = self.usage_sum + other.usage_sum
        out.eps_sum = self.eps_sum + other.eps_sum
        out.eps_count = self.eps_count + other.eps_count
        out.hrr_sum = self.hrr_sum + other.hrr_sum
        out.hrr_count = self.hrr_count + other.hrr_count
        out.slots_counted = self.slots_counted + other.slots_counted
        out.tx_seen_mask = self.tx_seen_mask | other.tx_seen_mask
        return out

    def finalize(self) -> MetricsRecord:
        """Reduce the totals to the reported metrics; absent data stays None
        (serialized as empty cells, never fabricated zeros)."""
        if self.messages == 0:
            return MetricsRecord(None, None, None, None, None, None, None, 0, 0, self.slots_counted)
        distinct = self.tx_seen_mask.bit_count()
        return MetricsRecord(
            hrr=self.hrr_sum / self.hrr_count if self.hrr_count else None,
            mean_sv=self.sv_total / self.messages,
            lrr=self.low_count / self.variables if self.variables else None,
            usage=self.usage_sum / self.messages,
            se=self.sv_total / self.variables if self.variables else None,
            mean_eps=self.eps_sum / self.eps_count if self.eps_count else None,
            tx_multiplicity=self.variables / distinct if distinct else None,
            messages=self.messages,
            variables=self.variables,
            slots=self.slots_counted,
        )
