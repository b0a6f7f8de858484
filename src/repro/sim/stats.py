"""Simulation counters and derived metrics.

One :class:`SimStats` instance is threaded through a whole simulated
run (all phases, all engines); the experiment harness reads the derived
metrics that correspond to the paper's figures:

* total ``cycles`` -> Fig. 7 speedups,
* :meth:`SimStats.alu_utilization` -> Fig. 8,
* :meth:`SimStats.hit_rate` -> Fig. 9,
* :meth:`SimStats.partial_peak_bytes` -> Fig. 10,
* :meth:`SimStats.dram_breakdown` -> Fig. 11.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple

#: The declared traffic-tag vocabulary.  Every DRAM/buffer counter is
#: keyed by one of these components, which is what makes the Fig. 11
#: breakdown stack to the total: ``A`` (adjacency stream), ``X`` (input
#: features), ``W`` (weights), ``XW`` (combination results), ``AXW``
#: (final outputs), ``partial`` (partial-output spill/merge traffic),
#: ``H`` (hidden activations re-read as the next layer's input -- the
#: combination kernel loads layer-``l`` outputs under this tag for
#: ``l > 0``, which is the "H" column of the Fig. 11 tables).
#: The static analyzer's ``stats-conservation`` rule rejects literal
#: tags outside this set, and :meth:`SimStats.merge` /
#: :meth:`SimStats.hit_rate_for` raise ``ValueError`` on unknowns;
#: extend it here -- deliberately -- before introducing a new component.
TRAFFIC_TAGS = ("A", "X", "W", "XW", "AXW", "partial", "H")

_TRAFFIC_TAG_SET = frozenset(TRAFFIC_TAGS)

#: The per-phase counter row, in print order: the fields of
#: :meth:`SimStats.phase_row`, which every phase-level view shares --
#: the accelerator's phase span args, ``repro.obs`` trace totals and
#: report tables, serve progress rows and the bench phase tables.
PHASE_ROW_FIELDS = (
    "cycles",
    "busy_cycles",
    "dram_read_bytes",
    "dram_write_bytes",
    "buffer_hits",
    "buffer_misses",
)


def validate_tags(tags: "Iterable[str]", where: str) -> None:
    """Raise ``ValueError`` if any tag is outside :data:`TRAFFIC_TAGS`.

    Counters index-by-default on any key, so a typo'd tag would
    otherwise split traffic into a phantom component that no figure
    stacks -- fail loudly at the aggregation boundary instead.
    """
    unknown = sorted(set(tags) - _TRAFFIC_TAG_SET)
    if unknown:
        raise ValueError(
            f"unknown traffic tag(s) {unknown} in {where}; "
            f"declared vocabulary is {list(TRAFFIC_TAGS)}"
        )


@dataclass
class SimStats:
    """Mutable counter bundle for one simulation run."""

    #: Final cycle count (set by the runner when all engines drain).
    cycles: int = 0
    #: Cycles in which the PE array issued a vector MAC (numerator of
    #: ALU utilisation).
    busy_cycles: int = 0
    #: DRAM bytes read, keyed by traffic tag ("A", "X", "W", "XW",
    #: "AXW", "partial").
    dram_read_bytes: Counter[str] = field(default_factory=Counter)
    #: DRAM bytes written, keyed the same way.
    dram_write_bytes: Counter[str] = field(default_factory=Counter)
    #: Buffer hits / misses, keyed by traffic tag.
    buffer_hits: Counter[str] = field(default_factory=Counter)
    buffer_misses: Counter[str] = field(default_factory=Counter)
    #: Loads satisfied by LSQ store-to-load forwarding.
    lsq_forwards: int = 0
    #: Peak bytes occupied by partial outputs (on-chip + spilled).
    partial_peak_bytes: int = 0
    #: Bytes of partial outputs that overflowed to DRAM.
    partial_spill_bytes: int = 0
    #: Total partial outputs produced (for footprint-reduction ratios).
    partials_produced: int = 0
    #: Frontend memory requests issued (LSQ occupancy proxy).
    requests_issued: int = 0
    #: Sampled (partials_produced, footprint_bytes) pairs -- the Fig. 10
    #: "memory usage over time" curve.  One sample per
    #: ``PARTIAL_TIMELINE_STRIDE`` partials keeps it cheap.
    partial_timeline: List[Tuple[int, int]] = field(default_factory=list)

    #: Sampling stride of :attr:`partial_timeline`.
    PARTIAL_TIMELINE_STRIDE: ClassVar[int] = 64

    def sample_partial_footprint(self, footprint_bytes: int) -> None:
        """Record one footprint sample (strided; call on every update)."""
        if self.partials_produced % self.PARTIAL_TIMELINE_STRIDE == 0:
            self.partial_timeline.append((self.partials_produced, footprint_bytes))

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def alu_utilization(self) -> float:
        """Fraction of run cycles in which the PE array did useful MACs."""
        return self.busy_cycles / self.cycles if self.cycles else 0.0

    def hit_rate(self) -> float:
        """Buffer hit fraction over all tags (LSQ forwards count as hits:
        the target data was found on-chip)."""
        hits = sum(self.buffer_hits.values()) + self.lsq_forwards
        total = hits + sum(self.buffer_misses.values())
        return hits / total if total else 0.0

    def hit_rate_for(self, tag: str) -> float:
        """Buffer hit fraction for a single traffic tag.

        Raises ``ValueError`` for tags outside :data:`TRAFFIC_TAGS`
        (an unknown tag would silently report 0.0 via Counter default
        indexing, which reads like "all misses" rather than "typo").
        """
        validate_tags((tag,), "hit_rate_for")
        hits = self.buffer_hits[tag]
        total = hits + self.buffer_misses[tag]
        return hits / total if total else 0.0

    def phase_row(self) -> Dict[str, int]:
        """:data:`PHASE_ROW_FIELDS` of these stats, per-tag counters
        summed over their tags."""
        row: Dict[str, int] = {}
        for name in PHASE_ROW_FIELDS:
            value = getattr(self, name)
            row[name] = sum(value.values()) if isinstance(value, dict) else value
        return row

    def dram_total_bytes(self) -> int:
        """All off-chip traffic, read + write."""
        return sum(self.dram_read_bytes.values()) + sum(self.dram_write_bytes.values())

    def dram_breakdown(self) -> Dict[str, int]:
        """Read+write bytes per traffic tag (Fig. 11 stacking)."""
        tags = set(self.dram_read_bytes) | set(self.dram_write_bytes)
        return {
            tag: self.dram_read_bytes[tag] + self.dram_write_bytes[tag]
            for tag in sorted(tags)
        }

    def partial_reduction(self, line_bytes: int = 64) -> float:
        """Fractional reduction of partial-output footprint vs the naive
        one-entry-per-partial baseline (Fig. 10 ratio).

        ``line_bytes`` is the buffer line size the footprint is
        normalised by -- pass the run's configured line size
        (``HyMMConfig.line_bytes``) rather than relying on the default.
        """
        naive = self.partials_produced
        if naive == 0:
            return 0.0
        # Footprint is tracked in bytes; normalise by the naive count in
        # lines of the same size.  partial_peak_bytes / line is <= naive.
        return 1.0 - (self.partial_peak_bytes / max(1, naive * line_bytes))

    def merge(self, other: "SimStats") -> None:
        """Fold another phase's counters into this one (cycles add;
        peaks take the max; timelines concatenate).

        Tags of ``other``'s per-tag counters are validated against
        :data:`TRAFFIC_TAGS` -- merging is the aggregation boundary, so
        an undeclared tag raises ``ValueError`` here instead of leaking
        a phantom traffic component into figure stacks.
        """
        validate_tags(
            set(other.dram_read_bytes)
            | set(other.dram_write_bytes)
            | set(other.buffer_hits)
            | set(other.buffer_misses),
            "merge",
        )
        self.cycles += other.cycles
        self.busy_cycles += other.busy_cycles
        self.dram_read_bytes.update(other.dram_read_bytes)
        self.dram_write_bytes.update(other.dram_write_bytes)
        self.buffer_hits.update(other.buffer_hits)
        self.buffer_misses.update(other.buffer_misses)
        self.lsq_forwards += other.lsq_forwards
        self.partial_peak_bytes = max(self.partial_peak_bytes, other.partial_peak_bytes)
        self.partial_spill_bytes += other.partial_spill_bytes
        self.partials_produced += other.partials_produced
        self.requests_issued += other.requests_issued
        self.partial_timeline.extend(other.partial_timeline)

    # ------------------------------------------------------------------
    # Phase attribution (repro.obs)
    # ------------------------------------------------------------------
    def copy(self) -> "SimStats":
        """Deep snapshot of every counter (timeline entries are
        immutable tuples, so a list copy suffices)."""
        return SimStats(
            cycles=self.cycles,
            busy_cycles=self.busy_cycles,
            dram_read_bytes=Counter(self.dram_read_bytes),
            dram_write_bytes=Counter(self.dram_write_bytes),
            buffer_hits=Counter(self.buffer_hits),
            buffer_misses=Counter(self.buffer_misses),
            lsq_forwards=self.lsq_forwards,
            partial_peak_bytes=self.partial_peak_bytes,
            partial_spill_bytes=self.partial_spill_bytes,
            partials_produced=self.partials_produced,
            requests_issued=self.requests_issued,
            partial_timeline=list(self.partial_timeline),
        )

    def delta_since(self, baseline: "SimStats") -> "SimStats":
        """The merge-inverse: a snapshot such that folding every phase's
        delta back together with :meth:`merge` reproduces the whole-run
        aggregate exactly.

        * additive fields subtract (``baseline`` must be an earlier
          snapshot of the same run, so deltas are non-negative);
        * per-tag counters keep only the keys that changed, which keeps
          ``merge`` from resurrecting zero-valued entries;
        * ``partial_peak_bytes`` carries the *running* peak at the end
          of the phase -- ``merge`` takes the max, and the running peak
          is monotone, so the fold lands on the final peak;
        * ``partial_timeline`` is the suffix of new samples --
          ``merge`` concatenates, so the fold rebuilds the full curve.
        """

        def counter_delta(cur: Counter[str], base: Counter[str]) -> Counter[str]:
            return Counter(
                {tag: cur[tag] - base[tag] for tag in cur if cur[tag] != base[tag]}
            )

        return SimStats(
            cycles=self.cycles - baseline.cycles,
            busy_cycles=self.busy_cycles - baseline.busy_cycles,
            dram_read_bytes=counter_delta(
                self.dram_read_bytes, baseline.dram_read_bytes
            ),
            dram_write_bytes=counter_delta(
                self.dram_write_bytes, baseline.dram_write_bytes
            ),
            buffer_hits=counter_delta(self.buffer_hits, baseline.buffer_hits),
            buffer_misses=counter_delta(
                self.buffer_misses, baseline.buffer_misses
            ),
            lsq_forwards=self.lsq_forwards - baseline.lsq_forwards,
            partial_peak_bytes=self.partial_peak_bytes,
            partial_spill_bytes=self.partial_spill_bytes
            - baseline.partial_spill_bytes,
            partials_produced=self.partials_produced
            - baseline.partials_produced,
            requests_issued=self.requests_issued - baseline.requests_issued,
            partial_timeline=self.partial_timeline[
                len(baseline.partial_timeline):
            ],
        )

    # ------------------------------------------------------------------
    # Lossless serialisation (runtime result cache / cross-process)
    # ------------------------------------------------------------------
    def to_dict(self, partial_timeline: Optional[List[Any]] = None) -> Dict[str, Any]:
        """Every counter, round-trippable through :meth:`from_dict`.

        ``partial_timeline``, when given, is stored as the document's
        timeline in place of :attr:`partial_timeline` as pair lists
        (the wire form's runs, :func:`repro.hymm.wire.encode_stats`).
        """
        return {
            "cycles": self.cycles,
            "busy_cycles": self.busy_cycles,
            "dram_read_bytes": dict(self.dram_read_bytes),
            "dram_write_bytes": dict(self.dram_write_bytes),
            "buffer_hits": dict(self.buffer_hits),
            "buffer_misses": dict(self.buffer_misses),
            "lsq_forwards": self.lsq_forwards,
            "partial_peak_bytes": self.partial_peak_bytes,
            "partial_spill_bytes": self.partial_spill_bytes,
            "partials_produced": self.partials_produced,
            "requests_issued": self.requests_issued,
            "partial_timeline": (
                [list(pair) for pair in self.partial_timeline]
                if partial_timeline is None else partial_timeline
            ),
        }

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        partial_timeline: Optional[List[Tuple[int, int]]] = None,
    ) -> "SimStats":
        """Inverse of :meth:`to_dict`.

        ``partial_timeline``, when given, is the timeline as a list of
        pairs, taken as it is; ``data``'s own is then not read (the
        wire form decodes its runs, :func:`repro.hymm.wire.decode_stats`).

        Raises ``KeyError`` on a missing field and ``TypeError`` on a
        counter that is not an ``int`` (a ``bool`` is not) or a per-tag
        counter that is not a dict of ``str`` -> ``int``: every reader
        of a stored result or trace checks its stats here.
        """
        return cls(
            cycles=_int(data, "cycles"),
            busy_cycles=_int(data, "busy_cycles"),
            dram_read_bytes=_tag_counter(data, "dram_read_bytes"),
            dram_write_bytes=_tag_counter(data, "dram_write_bytes"),
            buffer_hits=_tag_counter(data, "buffer_hits"),
            buffer_misses=_tag_counter(data, "buffer_misses"),
            lsq_forwards=_int(data, "lsq_forwards"),
            partial_peak_bytes=_int(data, "partial_peak_bytes"),
            partial_spill_bytes=_int(data, "partial_spill_bytes"),
            partials_produced=_int(data, "partials_produced"),
            requests_issued=_int(data, "requests_issued"),
            partial_timeline=(
                [tuple(pair) for pair in data["partial_timeline"]]
                if partial_timeline is None else partial_timeline
            ),
        )


def _int(data: Mapping[str, Any], key: str) -> int:
    """``data[key]``, which must be an ``int`` and not a ``bool``."""
    value = data[key]
    if type(value) is not int:
        raise TypeError(f"SimStats.{key} is {value!r}, not an int")
    return value


def _tag_counter(data: Mapping[str, Any], key: str) -> Counter[str]:
    """``data[key]`` as a Counter; it must be a dict of ``str`` ->
    ``int`` (no ``bool`` values)."""
    value = data[key]
    if not isinstance(value, dict) or not all(
        type(tag) is str and type(count) is int for tag, count in value.items()
    ):
        raise TypeError(f"SimStats.{key} is {value!r}, not a dict of str -> int")
    return Counter(value)
