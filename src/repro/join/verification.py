"""Candidate verification for the filter-and-verify join.

Verification computes the actual unified similarity of every surviving
candidate pair and keeps those meeting the join threshold.  The verifier is
deliberately pluggable: the unified join uses the approximate USIM of
Algorithm 1, while baselines reuse the same machinery with their own
similarity callables.

Prepared verification engine
----------------------------
:meth:`UnifiedVerifier.verify_batch` is the hot path of the join: it groups
candidates by probe record, reuses per-record cached
:class:`~repro.core.graph.GraphSide` state (segments, gram sets, overlap
sets) from :class:`~repro.join.prepared.PreparedCollection`, and runs a
tiered bound cascade before committing to the full Algorithm 1:

1. *Upper bound, per probe group* — one
   :func:`~repro.core.graph.usim_upper_bounds` call bounds the probe
   against every partner of its run of candidates: per-segment-pair msim
   upper bounds (Jaccard from one integer matmul over the group) fed to a
   matching bound.  The tiers below read these values.
2. *Lower-bound tier* — a matching of the all-singletons partitions (exact
   Hungarian for small token matrices, weight-descending greedy beyond)
   lower-bounds the exact USIM.  It is computed only for pairs whose upper
   bound reaches θ, less a rounding slack: lower ≤ exact USIM ≤ upper, so
   no other pair could clear θ here.  A pair that clears θ skips the upper-bound tier (it
   provably cannot prune this pair).
3. *Upper-bound tier* — the other pairs whose upper bound is below θ are
   rejected without building the pair graph.
4. *Full verification* — the pair graph is assembled from the two cached
   sides and Algorithm 1 runs with its value-ceiling short circuit (the
   improvement loop is skipped once no swap can gain ``1/t``).

The tiers are consulted in the order they always were (lower, then upper),
so every counter, the adaptive gates' included, is the one the
lower-bound-first cascade reported; only the work behind them moved.

The cascade is lossless: the surviving pair set and every reported
similarity are bit-identical to verifying each candidate with
:meth:`Verifier.verify` (the pre-engine path), which the randomized
equivalence tests enforce.  All counters are aggregated per worker chunk,
so pooled verification reports exact statistics (no racy
``verified_count`` increments); oversized probe groups are split past a
cap before chunking, so one hot probe record cannot serialize a pool.

Execution backends
------------------
``verify_batch`` accepts an in-process ``pool`` (thread executor) directly;
true multi-core execution goes through :mod:`repro.join.parallel`, where
each worker process rebuilds a :class:`UnifiedVerifier` from picklable
parameters and runs this same cascade on its shard.  With ``adaptive=True``
the verifier additionally *gates* each bound tier on its observed hit rate
(see :class:`UnifiedVerifier`), skipping tiers that stopped paying for
themselves — without ever changing the surviving pairs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
from itertools import groupby
from typing import Callable, ClassVar, Iterable, List, Optional, Sequence, Tuple

from ..core.approximation import approximate_usim, approximate_usim_on_graph
from ..core.graph import (
    GraphSide,
    PairGraphAssembler,
    build_conflict_graph_from_sides,
    singleton_greedy_lower_bound,
    usim_upper_bound,
    usim_upper_bounds,
)
from ..core.measures import MeasureConfig
from ..records import Record

__all__ = ["VerificationStats", "VerifiedPair", "Verifier", "UnifiedVerifier"]

#: A similarity callable over two token sequences.
SimilarityFunction = Callable[[Sequence[str], Sequence[str]], float]

#: Maximum number of ad-hoc (non-prepared) graph sides memoised per verifier.
_SIDE_CACHE_LIMIT = 100_000

#: lower ≤ exact USIM ≤ upper holds in exact arithmetic, but the two bounds
#: add up their terms in different orders, so their floats may cross by a few
#: ulps.  The lower bound is still computed when the upper bound falls short
#: of θ by no more than this, so a pair whose lower bound rounds up to θ
#: while its upper bound rounds below it clears the lower tier, as it did
#: when the lower bound ran first.
_BOUND_ROUNDING_SLACK = 1e-9


@dataclass(frozen=True)
class VerifiedPair:
    """A join result: the two record ids and their verified similarity."""

    left_id: int
    right_id: int
    similarity: float


@dataclass
class VerificationStats:
    """Counters of the tiered verification cascade (cumulative per verifier).

    ``candidates`` is the number of pairs examined; of those,
    ``upper_bound_prunes`` were rejected without building a pair graph and
    ``graphs_built`` went through Algorithm 1 (``ceiling_stops`` of them
    skipped the improvement loop via the value ceiling, ``full_runs`` ran
    it).  ``lower_bound_skips`` counts pairs whose lower bound cleared the
    threshold, so the upper-bound tier's verdict was skipped.  The upper
    bound is computed first (per probe group), and the lower bound only for
    pairs whose upper bound reaches θ, less a slack for float rounding
    (``_BOUND_ROUNDING_SLACK``) — a pair below it could not have
    cleared θ on the lower bound — so the count is the one a
    lower-bound-first cascade reports.
    ``adaptive_lower_skips`` / ``adaptive_upper_skips`` count candidates for
    which the adaptive controller (see :class:`UnifiedVerifier`) bypassed a
    bound tier because its observed hit rate had dropped below its cost;
    both stay 0 when adaptivity is off.
    """

    candidates: int = 0
    lower_bound_skips: int = 0
    upper_bound_prunes: int = 0
    graphs_built: int = 0
    ceiling_stops: int = 0
    full_runs: int = 0
    results: int = 0
    adaptive_lower_skips: int = 0
    adaptive_upper_skips: int = 0

    #: Every dataclass field is a counter; derived below (after the class
    #: body) so a newly added field can never be silently dropped by
    #: merge()/diff().
    _COUNTERS: ClassVar[Tuple[str, ...]] = ()

    def merge(self, other: "VerificationStats") -> None:
        """Add another stats block into this one (per-worker aggregation).

        Every field is a plain sum, which is what makes merging lossless:
        any partition of one candidate stream into worker chunks or process
        shards merges back to exactly the serial counters.
        """
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> "VerificationStats":
        """A copy of the current counters (for before/after deltas)."""
        return replace(self)

    def diff(self, earlier: "VerificationStats") -> "VerificationStats":
        """The counters accumulated since ``earlier`` was snapshotted."""
        return VerificationStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in self._COUNTERS
            }
        )

    @property
    def prune_rate(self) -> float:
        """Fraction of candidates rejected without building a pair graph."""
        if self.candidates == 0:
            return 0.0
        return self.upper_bound_prunes / self.candidates

    @property
    def ceiling_stop_rate(self) -> float:
        """Fraction of built graphs whose improvement loop was skipped."""
        if self.graphs_built == 0:
            return 0.0
        return self.ceiling_stops / self.graphs_built


VerificationStats._COUNTERS = tuple(
    field.name for field in fields(VerificationStats)
)


def _group_candidates(
    candidates: Sequence[Tuple[int, int]], probe_side: str
) -> List[List[Tuple[int, int]]]:
    """Split candidates into consecutive runs sharing the probe record.

    The probe-based filter emits every candidate of one probe record before
    moving to the next, so consecutive grouping recovers the per-probe
    batches without sorting; each group then reuses the probe side's cached
    state across all of its partners.
    """
    position = 0 if probe_side == "left" else 1
    return [list(group) for _, group in groupby(candidates, key=lambda pair: pair[position])]


def _chunk_groups(
    groups: Sequence[List[Tuple[int, int]]],
    target_pairs: int,
    max_chunk_pairs: Optional[int] = None,
) -> List[List[Tuple[int, int]]]:
    """Pack probe groups into worker chunks of roughly ``target_pairs`` pairs.

    Small groups are packed whole (one probe record's candidates stay on one
    worker, maximising its cache locality), but a group larger than
    ``max_chunk_pairs`` (default ``4 * target_pairs``) is *split* into
    capped slices: a single hot probe record with a huge candidate fan-out
    would otherwise serialize the entire pool behind one worker.  Splitting
    is free for correctness — chunks are mapped in order and every counter
    is merged per chunk, so results and statistics are exactly those of the
    unsplit packing.
    """
    if max_chunk_pairs is None:
        max_chunk_pairs = 4 * target_pairs
    cap = max(max_chunk_pairs, target_pairs, 1)
    chunks: List[List[Tuple[int, int]]] = []
    current: List[Tuple[int, int]] = []
    for group in groups:
        start = 0
        while len(group) - start > cap:
            # Flush what was packed so far, then emit full capped slices of
            # the oversized group (order preserved end to end).
            if current:
                chunks.append(current)
                current = []
            chunks.append(group[start : start + cap])
            start += cap
        current.extend(group[start:] if start else group)
        if len(current) >= target_pairs:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks


class Verifier:
    """Verify candidate pairs with an arbitrary similarity function."""

    def __init__(self, similarity: SimilarityFunction, threshold: float) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.similarity = similarity
        self.threshold = threshold
        self.verified_count = 0

    def _verify_one(self, left: Record, right: Record) -> Optional[VerifiedPair]:
        """Verify one pair without touching shared counters (thread-safe).

        This is the extension hook for custom pair semantics: every path —
        :meth:`verify`, :meth:`verify_all`, and :meth:`verify_batch` serial
        or pooled — routes through it, so subclasses overriding it behave
        identically regardless of worker count.
        """
        value = self.similarity(left.tokens, right.tokens)
        if value >= self.threshold:
            return VerifiedPair(left.record_id, right.record_id, value)
        return None

    def verify(self, left: Record, right: Record) -> Optional[VerifiedPair]:
        """Return a :class:`VerifiedPair` when the pair passes the threshold."""
        self.verified_count += 1
        return self._verify_one(left, right)

    def verify_all(
        self, pairs: Iterable[Tuple[Record, Record]]
    ) -> List[VerifiedPair]:
        """Verify many candidate pairs and return the survivors."""
        results: List[VerifiedPair] = []
        for left, right in pairs:
            verified = self.verify(left, right)
            if verified is not None:
                results.append(verified)
        return results

    def verify_batch(
        self,
        candidates: Iterable[Tuple[int, int]],
        left,
        right,
        *,
        pool=None,
        probe_side: str = "left",
        chunk_pairs: int = 64,
    ) -> List[VerifiedPair]:
        """Verify ``(left_id, right_id)`` candidates against two collections.

        ``left``/``right`` may be raw record collections or prepared ones
        (anything id-addressable).  The serial path goes through
        :meth:`verify`; the pooled path verifies through the counter-free
        :meth:`_verify_one` (the per-pair extension hook) and aggregates
        each worker chunk's count afterwards, so ``verified_count`` stays
        exact under concurrency.  A legacy subclass that overrides
        :meth:`verify` without overriding :meth:`_verify_one` keeps its
        semantics on every path: the pool is bypassed for it (its override
        and counting cannot safely run concurrently), so the pair set never
        depends on the worker count.  Result order matches the candidate
        order.
        """
        candidate_list = list(candidates)
        if not candidate_list:
            return []
        legacy_verify_override = (
            type(self).verify is not Verifier.verify
            and type(self)._verify_one is Verifier._verify_one
        )
        if pool is None or legacy_verify_override:
            pairs: List[VerifiedPair] = []
            for left_id, right_id in candidate_list:
                verified = self.verify(left[left_id], right[right_id])
                if verified is not None:
                    pairs.append(verified)
            return pairs

        def run_chunk(chunk: List[Tuple[int, int]]) -> Tuple[List[VerifiedPair], int]:
            found: List[VerifiedPair] = []
            for left_id, right_id in chunk:
                verified = self._verify_one(left[left_id], right[right_id])
                if verified is not None:
                    found.append(verified)
            return found, len(chunk)

        groups = _group_candidates(candidate_list, probe_side)
        chunks = _chunk_groups(groups, chunk_pairs)
        pairs = []
        for found, count in pool.map(run_chunk, chunks):
            self.verified_count += count
            pairs.extend(found)
        return pairs


class _AdaptiveTierGate:
    """Windowed hit-rate controller for one bound tier.

    The tier runs normally while ``active``; after each measurement window
    of ``window`` outcomes, the tier is disabled when its hit rate fell
    below ``min_hit_rate`` (the tier's cost expressed as the break-even
    fraction of candidates it must serve to pay for itself).  A disabled
    tier is re-probed after ``window * probe_windows`` bypassed candidates,
    so a workload whose regime shifts mid-run gets the tier back.  The
    controller is a pure function of the candidate sequence, hence
    deterministic on the serial path; a lock keeps its counters exact when
    thread-pool workers share one verifier (the *sequence* of outcomes then
    depends on chunk interleaving, but no update is ever lost).
    """

    __slots__ = (
        "min_hit_rate",
        "window",
        "probe_windows",
        "active",
        "seen",
        "hits",
        "bypassed",
        "_lock",
    )

    def __init__(self, min_hit_rate: float, window: int, probe_windows: int) -> None:
        self.min_hit_rate = min_hit_rate
        self.window = window
        self.probe_windows = probe_windows
        self.active = True
        self.seen = 0
        self.hits = 0
        self.bypassed = 0
        self._lock = threading.Lock()

    def should_run(self) -> bool:
        """Decide whether the tier runs for the next candidate."""
        with self._lock:
            if self.active:
                return True
            self.bypassed += 1
            if self.bypassed >= self.window * self.probe_windows:
                self.active = True
                self.bypassed = 0
                self.seen = 0
                self.hits = 0
                return True
            return False

    def record(self, hit: bool) -> None:
        """Record one tier outcome; close the window when it fills up."""
        with self._lock:
            self.seen += 1
            if hit:
                self.hits += 1
            if self.seen >= self.window:
                if self.hits < self.min_hit_rate * self.seen:
                    self.active = False
                    self.bypassed = 0
                self.seen = 0
                self.hits = 0


class UnifiedVerifier(Verifier):
    """Verifier backed by the approximate unified similarity (Algorithm 1).

    :meth:`verify` computes each pair from scratch (the reference path);
    :meth:`verify_batch` runs the prepared engine with per-record cached
    graph sides and the tiered bound cascade.  Both report bit-identical
    pairs and similarity values; ``prune=False`` disables the bound tiers
    (cached assembly only), which the equivalence tests and benchmarks use.

    Adaptive tier selection
    -----------------------
    With ``adaptive=True`` each bound tier is wrapped in an
    :class:`_AdaptiveTierGate`: when a tier's observed hit rate over a
    window of candidates drops below its cost (``lower_tier_cost`` /
    ``upper_tier_cost``, the break-even hit rate of computing the bound),
    the tier is skipped for subsequent candidates and periodically re-probed.
    This matters most for the lower-bound tier: at high join thresholds it
    almost never clears θ (``BENCH_verification.json`` records 0% at
    θ ≥ 0.7), so with adaptivity off every candidate whose upper bound
    reaches θ pays its matching for nothing — ``adaptive=True`` sheds that
    cost after the first window while keeping the tier available for the
    low-θ, similarity-dense workloads it exists for.
    Because both tiers are lossless, the surviving pairs and similarities
    are *identical* with adaptivity on or off — only the per-tier counters
    (and runtime) change, with bypasses reported as
    ``adaptive_lower_skips`` / ``adaptive_upper_skips``.  The gates are
    driven by the candidate stream, so the decision sequence is
    deterministic on the serial path; under pooled execution each worker's
    chunk boundaries influence it, which is why the executor-equivalence
    guarantee on *statistics* is stated for ``adaptive=False`` (the
    default), while the pair-set guarantee holds always.
    """

    def __init__(
        self,
        config: MeasureConfig,
        threshold: float,
        *,
        t: float = 4.0,
        prune: bool = True,
        adaptive: bool = False,
        adaptive_window: int = 256,
        adaptive_probe_windows: int = 4,
        lower_tier_cost: float = 0.05,
        upper_tier_cost: float = 0.05,
    ) -> None:
        self.config = config
        self.t = t
        self.prune = prune
        self.adaptive = adaptive
        self.stats = VerificationStats()
        self._side_cache: dict = {}
        self._lower_gate = (
            _AdaptiveTierGate(lower_tier_cost, adaptive_window, adaptive_probe_windows)
            if adaptive
            else None
        )
        self._upper_gate = (
            _AdaptiveTierGate(upper_tier_cost, adaptive_window, adaptive_probe_windows)
            if adaptive
            else None
        )

        def similarity(left_tokens: Sequence[str], right_tokens: Sequence[str]) -> float:
            return approximate_usim(left_tokens, right_tokens, config, t=t).value

        super().__init__(similarity, threshold)

    # ------------------------------------------------------------------ #
    # cached graph sides
    # ------------------------------------------------------------------ #
    def _side_getter(self, collection) -> Callable[[int], GraphSide]:
        """Resolve the per-record :class:`GraphSide` source for a collection.

        Prepared collections bound to a config *equal* to this verifier's
        (configs compare by content, so an equal-but-distinct config — e.g.
        one that crossed a process boundary — qualifies) serve their own
        cached sides; anything else falls back to a verifier-local memo
        keyed by token tuple (so repeated records still hit the cache).
        """
        graph_side = getattr(collection, "graph_side", None)
        if graph_side is not None:
            bound_config = getattr(collection, "config", None)
            if bound_config is self.config or bound_config == self.config:
                return graph_side

        cache = self._side_cache
        config = self.config

        def fallback(record_id: int) -> GraphSide:
            tokens = collection[record_id].tokens
            side = cache.get(tokens)
            if side is None:
                side = GraphSide(tokens, config)
                if len(cache) < _SIDE_CACHE_LIMIT:
                    cache[tokens] = side
            return side

        return fallback

    # ------------------------------------------------------------------ #
    # the tiered cascade
    # ------------------------------------------------------------------ #
    def _verify_prepared(
        self,
        left_record: Record,
        right_record: Record,
        left_side: GraphSide,
        right_side: GraphSide,
        stats: VerificationStats,
        *,
        assembler: Optional[PairGraphAssembler] = None,
        upper: Optional[float] = None,
    ) -> Optional[VerifiedPair]:
        stats.candidates += 1
        threshold = self.threshold
        config = self.config

        # Empty-token records need no special case: both bounds are 0.0 and
        # the empty pair graph realises 0.0, matching approximate_usim's
        # empty-input result, so the cascade handles them like any pair (and
        # the tier counters keep partitioning the candidates).
        if self.prune and threshold > 0.0:
            lower_gate = self._lower_gate
            upper_gate = self._upper_gate
            lower_cleared = False
            if lower_gate is None or lower_gate.should_run():
                # lower ≤ exact USIM ≤ upper: below θ (less rounding slack)
                # the upper bound proves the lower bound cannot clear θ, so
                # it is not computed.
                if upper is None:
                    upper = usim_upper_bound(
                        left_side, right_side, config, threshold=threshold
                    )
                lower_cleared = (
                    upper >= threshold - _BOUND_ROUNDING_SLACK
                    and singleton_greedy_lower_bound(left_side, right_side, config)
                    >= threshold
                )
                if lower_gate is not None:
                    lower_gate.record(lower_cleared)
            else:
                stats.adaptive_lower_skips += 1
            if lower_cleared:
                # The exact USIM is ≥ lower ≥ θ, so the upper bound (≥ exact)
                # cannot prune this pair.
                stats.lower_bound_skips += 1
            elif upper_gate is None or upper_gate.should_run():
                # threshold= is the sub-θ short circuit: the cheap maxima
                # bound replaces the matching solver whenever it alone
                # already prunes — the prune decision is provably the same.
                if upper is None:
                    upper = usim_upper_bound(
                        left_side, right_side, config, threshold=threshold
                    )
                pruned = upper < threshold
                if upper_gate is not None:
                    upper_gate.record(pruned)
                if pruned:
                    # Algorithm 1 realises ≤ exact USIM ≤ upper < θ: the
                    # unpruned path would reject this pair too.
                    stats.upper_bound_prunes += 1
                    return None
            else:
                stats.adaptive_upper_skips += 1

        stats.graphs_built += 1
        if assembler is not None:
            # The probe-side assembler (shared across one probe's candidate
            # group) builds a graph vertex-for-vertex identical to the
            # two-sided constructor, with the probe's qualification state
            # hoisted out of the pair loop.
            graph = assembler.build(
                right_side if assembler.probe_is_left else left_side
            )
        else:
            graph = build_conflict_graph_from_sides(left_side, right_side, config)
        result = approximate_usim_on_graph(graph, config, t=self.t)
        if result.ceiling_stopped:
            stats.ceiling_stops += 1
        else:
            stats.full_runs += 1
        value = result.value
        if value >= threshold:
            stats.results += 1
            return VerifiedPair(left_record.record_id, right_record.record_id, value)
        return None

    def verify_prepared_pair(
        self,
        left_record: Record,
        right_record: Record,
        left_side: GraphSide,
        right_side: GraphSide,
        stats: Optional[VerificationStats] = None,
    ) -> Optional[VerifiedPair]:
        """Run ONE pair through the tiered cascade (the single-pair unit).

        This is the public entry the online search index drives: one probe
        record against one candidate member, both with prepared
        :class:`~repro.core.graph.GraphSide` state, through exactly the
        bound / Algorithm-1 cascade that :meth:`verify_batch` runs per
        candidate (the upper bound computed for the single pair) — so a
        query's surviving pairs, similarities and counters are
        bit-identical to the batch join's.

        ``stats`` redirects the cascade counters into a caller-owned block
        (merge it into :attr:`stats` when done, as :meth:`verify_batch`
        does per chunk); without it, counters accumulate here directly and
        ``verified_count`` is bumped.
        """
        if stats is not None:
            return self._verify_prepared(
                left_record, right_record, left_side, right_side, stats
            )
        pair = self._verify_prepared(
            left_record, right_record, left_side, right_side, self.stats
        )
        self.verified_count += 1
        return pair

    # ------------------------------------------------------------------ #
    # batch verification
    # ------------------------------------------------------------------ #
    def verify_batch(
        self,
        candidates: Iterable[Tuple[int, int]],
        left,
        right,
        *,
        pool=None,
        probe_side: str = "left",
        chunk_pairs: int = 64,
    ) -> List[VerifiedPair]:
        """Verify candidates through the prepared engine (see class docs).

        Candidates are grouped by probe record (consecutive runs on the
        ``probe_side`` id, matching the filter's emission order); each run
        shares one graph assembler and one upper-bound kernel call.  Under
        a thread pool, whole groups are assigned to workers (oversized ones
        split) and each worker's statistics are merged after the fact.

        A subclass that overrides :meth:`verify` or the :meth:`_verify_one`
        extension hook without overriding :meth:`_verify_prepared` keeps
        its per-pair semantics: the batch engine would silently bypass such
        an override, so those verifiers are routed through the base class's
        per-pair path instead (which honors both hooks, pooled or serial).
        """
        per_pair_override = (
            type(self).verify is not Verifier.verify
            or type(self)._verify_one is not Verifier._verify_one
        )
        if (
            per_pair_override
            and type(self)._verify_prepared is UnifiedVerifier._verify_prepared
        ):
            return Verifier.verify_batch(
                self,
                candidates,
                left,
                right,
                pool=pool,
                probe_side=probe_side,
                chunk_pairs=chunk_pairs,
            )
        candidate_list = list(candidates)
        if not candidate_list:
            return []
        get_left = self._side_getter(left)
        get_right = self._side_getter(right)
        groups = _group_candidates(candidate_list, probe_side)
        probe_is_left = probe_side == "left"
        config = self.config
        threshold = self.threshold
        bounding = self.prune and threshold > 0.0
        # A subclass may override ``_verify_prepared`` with the historical
        # signature; only the base cascade is handed the group's assembler
        # and upper bounds.
        base_cascade = (
            type(self)._verify_prepared is UnifiedVerifier._verify_prepared
        )

        def run_group_chunk(
            chunk: List[Tuple[int, int]]
        ) -> Tuple[List[VerifiedPair], VerificationStats]:
            local = VerificationStats()
            found: List[VerifiedPair] = []
            # Chunks preserve the runs of pairs sharing a probe record (a
            # split oversized group just forms one run per slice).  Each run
            # shares one assembler, whose qualification pre-pass is computed
            # once, and one kernel call bounding the probe against all of
            # its partners.
            for run in _group_candidates(chunk, probe_side):
                left_sides = [get_left(left_id) for left_id, _ in run]
                right_sides = [get_right(right_id) for _, right_id in run]
                extras: Sequence[dict] = [{}] * len(run)
                if base_cascade:
                    probe_graph_side, partner_sides = (
                        (left_sides[0], right_sides)
                        if probe_is_left
                        else (right_sides[0], left_sides)
                    )
                    assembler = PairGraphAssembler(
                        probe_graph_side, config, probe_is_left=probe_is_left
                    )
                    uppers: Sequence[Optional[float]] = (
                        usim_upper_bounds(
                            probe_graph_side,
                            partner_sides,
                            config,
                            probe_is_left=probe_is_left,
                            threshold=threshold,
                        )
                        if bounding
                        else [None] * len(run)
                    )
                    extras = [
                        {"assembler": assembler, "upper": upper} for upper in uppers
                    ]
                for (left_id, right_id), left_graph_side, right_graph_side, extra in zip(
                    run, left_sides, right_sides, extras
                ):
                    verified = self._verify_prepared(
                        left[left_id],
                        right[right_id],
                        left_graph_side,
                        right_graph_side,
                        local,
                        **extra,
                    )
                    if verified is not None:
                        found.append(verified)
            return found, local

        pairs: List[VerifiedPair] = []
        if pool is None:
            outcomes = map(run_group_chunk, groups)
        else:
            outcomes = pool.map(run_group_chunk, _chunk_groups(groups, chunk_pairs))
        for found, local in outcomes:
            self.stats.merge(local)
            self.verified_count += local.candidates
            pairs.extend(found)
        return pairs
