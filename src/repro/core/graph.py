"""Conflict-graph construction for the unified similarity (Section 2.3).

Given two strings ``S`` and ``T``, the approximation algorithm works on a
graph whose vertices are candidate segment pairs and whose edges connect
pairs that cannot be applied simultaneously (their segments overlap
positionally on the same side).  The graph is (k+1)-claw-free where ``k`` is
the maximal token count of any applicable synonym-rule side or taxonomy
label, which is what makes the w-MIS approximation possible.

Prepared verification
---------------------
Everything the graph needs from one string — its well-defined segments,
per-segment synonym/taxonomy lookups, gram sets, positional overlaps among
segments, and its minimal partition size — depends on that string alone.
:class:`GraphSide` caches this one-sided state so that a record verified
against ``k`` candidates pays the segment enumeration and per-segment
bookkeeping once instead of ``k`` times;
:func:`build_conflict_graph_from_sides` assembles the pair graph from two
cached sides, and :func:`build_conflict_graph` is now a thin wrapper that
builds both sides ad hoc (one code path, so the cached and uncached
constructions cannot diverge).

The side state also powers the verification pruning cascade, which runs
the upper bound first and the lower bound only where the upper bound
reaches θ (less a slack for float rounding, since the two bounds may cross
by a few ulps where they are equal in exact arithmetic):

* :func:`usim_upper_bounds` bounds the unified similarity of one probe
  against a whole candidate group from above, without building any pair
  graph: per-segment-pair msim upper bounds fed to a matching bound.  The
  Jaccard terms of the group come from one integer matmul of 0/1
  gram-incidence matrices (numpy; per-entry gram-set arithmetic without
  it), the taxonomy terms from shared-ancestor counts and the synonym terms
  from the segments' closeness maps.  :func:`usim_upper_bound` is the same
  kernel with one partner; both return the per-pair values bit for bit.
* :func:`singleton_greedy_lower_bound` bounds the *exact* USIM from below
  via a matching of the all-singletons partitions.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, pairwise
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .grams import qgram_set
from .matching import matching_weight_lower_bound, matching_weight_upper_bound
from .measures import Measure, MeasureConfig
from .segments import Segment, enumerate_segments
from .vocab import Vocabulary

if os.environ.get("REPRO_NO_NUMPY"):  # pragma: no cover - exercised via scripts/check
    _np = None
else:
    try:  # pragma: no cover - exercised implicitly wherever numpy exists
        import numpy as _np
    except ImportError:  # pragma: no cover - the fallback path is tested directly
        _np = None

__all__ = [
    "PairVertex",
    "ConflictGraph",
    "GraphSide",
    "PairGraphAssembler",
    "prepare_graph_side",
    "build_conflict_graph",
    "build_conflict_graph_from_sides",
    "usim_upper_bound",
    "usim_upper_bounds",
    "singleton_greedy_lower_bound",
]

_EPSILON = 1e-12

#: Serialises interning into the configs' gram vocabularies, which the
#: thread-pool verifier's workers share.
_GRAM_LOCK = threading.Lock()


@dataclass(frozen=True)
class PairVertex:
    """A vertex of the conflict graph: one segment of S matched to one of T.

    Attributes
    ----------
    index:
        Position of the vertex in its graph's vertex list.
    left, right:
        The segments of ``S`` and ``T`` respectively.
    weight:
        ``msim(left, right)`` under the active measure configuration.
    measure:
        The measure attaining the weight (None only for zero-weight vertices,
        which the builder drops).
    """

    index: int
    left: Segment
    right: Segment
    weight: float
    measure: Optional[Measure]

    def conflicts_with(self, other: "PairVertex") -> bool:
        """True when the two vertices cannot be selected together."""
        return self.left.conflicts_with(other.left) or self.right.conflicts_with(other.right)


class ConflictGraph:
    """The conflict graph over candidate segment pairs of two strings."""

    def __init__(
        self,
        left_tokens: Sequence[str],
        right_tokens: Sequence[str],
        vertices: Sequence[PairVertex],
        adjacency: Sequence[Set[int]],
    ) -> None:
        self.left_tokens: Tuple[str, ...] = tuple(left_tokens)
        self.right_tokens: Tuple[str, ...] = tuple(right_tokens)
        self.vertices: Tuple[PairVertex, ...] = tuple(vertices)
        self._adjacency: Tuple[FrozenSet[int], ...] = tuple(frozenset(neigh) for neigh in adjacency)

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors(self, index: int) -> FrozenSet[int]:
        """Indices of vertices conflicting with vertex ``index``."""
        return self._adjacency[index]

    def are_adjacent(self, left_index: int, right_index: int) -> bool:
        """True when the two vertices conflict."""
        return right_index in self._adjacency[left_index]

    def is_independent(self, indices: Iterable[int]) -> bool:
        """True when no two of ``indices`` conflict."""
        selected = list(indices)
        for position, index in enumerate(selected):
            neighbours = self._adjacency[index]
            for other in selected[position + 1:]:
                if other in neighbours:
                    return False
        return True

    def total_weight(self, indices: Iterable[int]) -> float:
        """Sum of vertex weights over ``indices``."""
        return sum(self.vertices[index].weight for index in indices)

    def degree(self, index: int) -> int:
        """Number of conflicting vertices of vertex ``index``."""
        return len(self._adjacency[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edge_count = sum(len(neigh) for neigh in self._adjacency) // 2
        return f"ConflictGraph(vertices={len(self.vertices)}, edges={edge_count})"


class _SegmentMatchState:
    """Per-segment material for the qualification test (conditions a–c)."""

    __slots__ = ("is_single", "syn_keys", "has_tax")

    def __init__(
        self,
        is_single: bool,
        syn_keys: Optional[FrozenSet[Tuple[str, ...]]],
        has_tax: bool,
    ) -> None:
        self.is_single = is_single
        self.syn_keys = syn_keys
        self.has_tax = has_tax


class _SegmentBoundState:
    """Per-segment material for the msim upper bound (pruning cascade).

    ``self_tokens`` is the segment's own token tuple: a directional rule
    connecting two segments must have one of them as its lhs, so the
    synonym bound only consults those two keys of the closeness maps.
    """

    __slots__ = ("grams", "syn_closeness", "self_tokens", "tax_ancestors", "tax_depth")

    def __init__(
        self,
        grams: FrozenSet[str],
        syn_closeness: Optional[Dict[Tuple[str, ...], float]],
        self_tokens: Tuple[str, ...],
        tax_ancestors: Optional[Dict[int, int]],
        tax_depth: int,
    ) -> None:
        self.grams = grams
        self.syn_closeness = syn_closeness
        self.self_tokens = self_tokens
        self.tax_ancestors = tax_ancestors
        self.tax_depth = tax_depth


class GraphSide:
    """One string's cached conflict-graph material (everything pair-free).

    A side is bound to one :class:`~repro.core.measures.MeasureConfig`; all
    derived state is computed lazily so cheap uses (plain graph assembly)
    never pay for the bound-specific extras (gram sets, partition DP).
    """

    def __init__(
        self,
        tokens: Sequence[str],
        config: MeasureConfig,
        segments: Optional[Sequence[Segment]] = None,
    ) -> None:
        self.tokens: Tuple[str, ...] = tuple(tokens)
        self.config = config
        if segments is None:
            segments = enumerate_segments(
                self.tokens,
                rules=config.rules if config.uses(Measure.SYNONYM) else None,
                taxonomy=config.taxonomy if config.uses(Measure.TAXONOMY) else None,
            )
        self.segments: Tuple[Segment, ...] = tuple(segments)

    @cached_property
    def match_state(self) -> Tuple[_SegmentMatchState, ...]:
        """Qualification material per segment (syn lhs keys, taxonomy hit)."""
        config = self.config
        rules = config.rules if config.uses(Measure.SYNONYM) else None
        taxonomy = config.taxonomy if config.uses(Measure.TAXONOMY) else None
        states: List[_SegmentMatchState] = []
        for segment in self.segments:
            syn_keys: Optional[FrozenSet[Tuple[str, ...]]] = None
            if rules is not None:
                keys = frozenset(
                    lhs for lhs, _ in rules.lhs_pebbles_for(segment.tokens)
                )
                syn_keys = keys or None
            has_tax = (
                taxonomy is not None
                and segment.from_taxonomy
                and taxonomy.find(segment.tokens) is not None
            )
            states.append(
                _SegmentMatchState(segment.is_single_token, syn_keys, has_tax)
            )
        return tuple(states)

    @cached_property
    def overlap_sets(self) -> Tuple[FrozenSet[int], ...]:
        """For each segment, the indices of segments it overlaps (incl. self)."""
        spans = [segment.span for segment in self.segments]
        count = len(spans)
        overlaps: List[Set[int]] = [set() for _ in range(count)]
        for i in range(count):
            overlaps[i].add(i)
            for j in range(i + 1, count):
                if spans[i].overlaps(spans[j]):
                    overlaps[i].add(j)
                    overlaps[j].add(i)
        return tuple(frozenset(ov) for ov in overlaps)

    @cached_property
    def bound_state(self) -> Tuple[_SegmentBoundState, ...]:
        """Per-segment upper-bound material (gram sets, closeness, ancestors)."""
        config = self.config
        rules = config.rules if config.uses(Measure.SYNONYM) else None
        taxonomy = config.taxonomy if config.uses(Measure.TAXONOMY) else None
        use_grams = config.uses(Measure.JACCARD)
        states: List[_SegmentBoundState] = []
        for segment in self.segments:
            grams: FrozenSet[str] = (
                qgram_set(segment.text, config.q) if use_grams else frozenset()
            )
            syn_closeness: Optional[Dict[Tuple[str, ...], float]] = None
            if rules is not None:
                closeness: Dict[Tuple[str, ...], float] = {}
                for lhs, value in rules.lhs_pebbles_for(segment.tokens):
                    if value > closeness.get(lhs, 0.0):
                        closeness[lhs] = value
                syn_closeness = closeness or None
            tax_ancestors: Optional[Dict[int, int]] = None
            tax_depth = 0
            if taxonomy is not None:
                node = taxonomy.find(segment.tokens)
                if node is not None:
                    tax_depth = node.depth
                    tax_ancestors = {
                        ancestor.node_id: ancestor.depth
                        for ancestor in taxonomy.ancestors(node)
                    }
            states.append(
                _SegmentBoundState(
                    grams, syn_closeness, segment.tokens, tax_ancestors, tax_depth
                )
            )
        return tuple(states)

    @cached_property
    def synonym_keys(
        self,
    ) -> Tuple[
        Tuple[Tuple[int, Tuple[str, ...], float], ...],
        Dict[Tuple[str, ...], Tuple[Tuple[int, float], ...]],
    ]:
        """The closeness maps indexed for the synonym bound.

        ``own`` lists ``(segment index, tokens, closeness)`` for segments
        whose own tokens key their own map; ``by_key`` maps each key to the
        ``(segment index, closeness)`` of every segment whose map holds it.
        """
        own: List[Tuple[int, Tuple[str, ...], float]] = []
        by_key: Dict[Tuple[str, ...], List[Tuple[int, float]]] = {}
        for index, state in enumerate(self.bound_state):
            closeness = state.syn_closeness
            if closeness is None:
                continue
            value = closeness.get(state.self_tokens)
            if value is not None:
                own.append((index, state.self_tokens, value))
            for key, value in closeness.items():
                by_key.setdefault(key, []).append((index, value))
        return tuple(own), {key: tuple(found) for key, found in by_key.items()}

    @cached_property
    def taxonomy_bounds(self) -> Tuple[Tuple[int, FrozenSet[int], int], ...]:
        """``(segment index, ancestor ids, depth)`` of segments with a node."""
        return tuple(
            (index, frozenset(state.tax_ancestors), state.tax_depth)
            for index, state in enumerate(self.bound_state)
            if state.tax_ancestors is not None
        )

    @cached_property
    def min_partition_size(self) -> int:
        """Exact minimal number of segments in any well-defined partition.

        A linear DP over positions (segments are intervals, so minimum
        interval cover is polynomial); every position starts at least a
        singleton segment, so the DP always completes.  This is the true
        minimum — tighter than the Algorithm-2 set-cover estimate — and it
        lower-bounds ``max(|P_S|, |P_T|)`` for every well-defined partition,
        which is what the upper bound divides by.
        """
        n = len(self.tokens)
        if n == 0:
            return 0
        infinity = n + 1
        best = [infinity] * (n + 1)
        best[n] = 0
        ends_by_start: Dict[int, List[int]] = {}
        for segment in self.segments:
            ends_by_start.setdefault(segment.span.start, []).append(segment.span.end)
        for position in range(n - 1, -1, -1):
            current = infinity
            for end in ends_by_start.get(position, (position + 1,)):
                candidate = 1 + best[end]
                if candidate < current:
                    current = candidate
            best[position] = current
        return best[0]

    @cached_property
    def singleton_token_tuples(self) -> Tuple[Tuple[str, ...], ...]:
        """Each token as a 1-tuple (msim probes of the singleton partition)."""
        return tuple((token,) for token in self.tokens)

    def __getstate__(self) -> dict:
        # The bound kernel's gram encoding holds per-process ids (see
        # MeasureConfig.gram_vocabulary).
        state = dict(self.__dict__)
        state.pop("_gram_codes", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphSide(tokens={len(self.tokens)}, segments={len(self.segments)})"


def prepare_graph_side(
    tokens: Sequence[str],
    config: MeasureConfig,
    *,
    segments: Optional[Sequence[Segment]] = None,
) -> GraphSide:
    """Build the cached one-sided graph state of a token sequence.

    ``segments`` may be supplied when the caller already holds the record's
    well-defined segments (e.g. from pebble generation); they must have been
    enumerated under the same measure configuration.
    """
    return GraphSide(tokens, config, segments)


def build_conflict_graph_from_sides(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
    *,
    min_weight: float = _EPSILON,
) -> ConflictGraph:
    """Assemble the pair conflict graph from two cached sides.

    Produces a graph identical (vertex order, weights, adjacency) to the
    historical per-pair construction: vertices are emitted left-major over
    the positionally sorted segment lists, weights come from the shared
    memoised ``msim``, and edges connect vertices whose segments overlap on
    either side — now looked up in each side's cached overlap sets instead
    of re-testing spans per vertex pair.
    """
    _check_side_configs(left_side, right_side, config)
    return _assemble_graph(left_side, right_side, config, min_weight)


def _assemble_graph(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
    min_weight: float,
    left_indices: Optional[Sequence[int]] = None,
    right_indices: Optional[Sequence[int]] = None,
) -> ConflictGraph:
    """The shared graph-assembly core (configs already checked).

    ``left_indices`` / ``right_indices`` restrict one side to a subset of
    its segments, in ascending order; a restriction is only sound when the
    skipped segments provably form no vertex against *any* partner segment
    (see :class:`PairGraphAssembler`), in which case the restricted build
    is vertex-for-vertex identical to the full one.
    """
    rules = config.rules if config.uses(Measure.SYNONYM) else None
    use_tax = config.uses(Measure.TAXONOMY) and config.taxonomy is not None
    left_match = left_side.match_state
    right_match = right_side.match_state
    left_segments = left_side.segments
    right_segments = right_side.segments
    if left_indices is None:
        left_indices = range(len(left_segments))
    if right_indices is None:
        right_indices = range(len(right_segments))
    msim = config.msim_with_measure

    vertices: List[PairVertex] = []
    vertex_sides: List[Tuple[int, int]] = []
    for i in left_indices:
        left = left_segments[i]
        left_state = left_match[i]
        for j in right_indices:
            right = right_segments[j]
            right_state = right_match[j]
            # Conditions (a)–(c) of Section 2.3.  The synonym condition is
            # pre-filtered by shared lhs pebble keys: a connecting rule
            # deposits its lhs key on both sides, so disjoint key sets imply
            # similarity 0 without the directional rule lookup.
            if left_state.is_single and right_state.is_single:
                pass
            elif (
                rules is not None
                and left_state.syn_keys is not None
                and right_state.syn_keys is not None
                and not left_state.syn_keys.isdisjoint(right_state.syn_keys)
                and rules.similarity(left.tokens, right.tokens) > 0.0
            ):
                pass
            elif use_tax and left_state.has_tax and right_state.has_tax:
                pass
            else:
                continue
            weight, measure = msim(
                left.tokens,
                right.tokens,
                left_text=left.text,
                right_text=right.text,
            )
            if weight < min_weight:
                continue
            vertices.append(
                PairVertex(
                    index=len(vertices),
                    left=left,
                    right=right,
                    weight=weight,
                    measure=measure,
                )
            )
            vertex_sides.append((i, j))

    by_left: Dict[int, Set[int]] = {}
    by_right: Dict[int, Set[int]] = {}
    for vertex_id, (i, j) in enumerate(vertex_sides):
        by_left.setdefault(i, set()).add(vertex_id)
        by_right.setdefault(j, set()).add(vertex_id)

    left_overlap = left_side.overlap_sets
    right_overlap = right_side.overlap_sets
    union_left: Dict[int, Set[int]] = {}
    union_right: Dict[int, Set[int]] = {}

    def conflict_union(
        index: int,
        overlaps: Sequence[FrozenSet[int]],
        by_segment: Dict[int, Set[int]],
        cache: Dict[int, Set[int]],
    ) -> Set[int]:
        union = cache.get(index)
        if union is None:
            union = set()
            for other in overlaps[index]:
                members = by_segment.get(other)
                if members:
                    union |= members
            cache[index] = union
        return union

    adjacency: List[Set[int]] = []
    for vertex_id, (i, j) in enumerate(vertex_sides):
        neighbours = conflict_union(i, left_overlap, by_left, union_left) | conflict_union(
            j, right_overlap, by_right, union_right
        )
        neighbours.discard(vertex_id)
        adjacency.append(neighbours)

    return ConflictGraph(left_side.tokens, right_side.tokens, vertices, adjacency)


def build_conflict_graph(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    config: MeasureConfig,
    *,
    min_weight: float = _EPSILON,
) -> ConflictGraph:
    """Build the conflict graph of two token sequences.

    Vertices are segment pairs qualifying under conditions (a)–(c) of
    Section 2.3 whose ``msim`` weight is at least ``min_weight`` (zero-weight
    vertices can never contribute to the similarity, so they are dropped to
    keep the graph small).  Edges connect vertices whose segments overlap on
    either side.  This is a convenience wrapper that prepares both sides ad
    hoc; repeated verification should cache :class:`GraphSide` objects and
    call :func:`build_conflict_graph_from_sides`.
    """
    return build_conflict_graph_from_sides(
        GraphSide(left_tokens, config),
        GraphSide(right_tokens, config),
        config,
        min_weight=min_weight,
    )


class PairGraphAssembler:
    """Builds conflict graphs of one fixed *probe* side against many partners.

    The batch verifier checks every candidate of a probe against the same
    probe-side state, so the per-pair work that depends only on the probe
    can be hoisted out of the pair loop.  The assembler precomputes, once,
    which probe segments can qualify under conditions (a)–(c) at all: a
    segment that is not a singleton, carries no synonym lhs keys, and has
    no taxonomy node fails every branch of the qualification test against
    *any* partner segment, so the vertex loop skips its whole row (or
    column) without consulting the partner.  Because the surviving indices
    are iterated in their original ascending order, the assembled graph is
    vertex-for-vertex identical — order, weights, adjacency — to
    :func:`build_conflict_graph_from_sides` on the same pair.

    ``probe_is_left`` fixes which side of the graph the probe occupies
    (vertex order is left-major, so it is part of the bit-identity
    contract); partners supply the other side per :meth:`build` call.
    """

    __slots__ = ("probe_side", "config", "probe_is_left", "min_weight", "_active")

    def __init__(
        self,
        probe_side: GraphSide,
        config: MeasureConfig,
        *,
        probe_is_left: bool = True,
        min_weight: float = _EPSILON,
    ) -> None:
        self.probe_side = probe_side
        self.config = config
        self.probe_is_left = probe_is_left
        self.min_weight = min_weight
        match_state = probe_side.match_state
        active = tuple(
            index
            for index, state in enumerate(match_state)
            if state.is_single or state.syn_keys is not None or state.has_tax
        )
        # ``None`` keeps the plain ``range`` fast path when nothing is skipped.
        self._active: Optional[Tuple[int, ...]] = (
            None if len(active) == len(match_state) else active
        )

    def build(self, partner_side: GraphSide) -> ConflictGraph:
        """Assemble the conflict graph of the probe against ``partner_side``."""
        if self.probe_is_left:
            left_side, right_side = self.probe_side, partner_side
            left_indices, right_indices = self._active, None
        else:
            left_side, right_side = partner_side, self.probe_side
            left_indices, right_indices = None, self._active
        _check_side_configs(left_side, right_side, self.config)
        return _assemble_graph(
            left_side,
            right_side,
            self.config,
            self.min_weight,
            left_indices,
            right_indices,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        skipped = (
            0
            if self._active is None
            else len(self.probe_side.segments) - len(self._active)
        )
        return (
            f"PairGraphAssembler(segments={len(self.probe_side.segments)}, "
            f"skipped={skipped}, probe_is_left={self.probe_is_left})"
        )


def _check_side_configs(
    left_side: GraphSide, right_side: GraphSide, config: MeasureConfig
) -> None:
    """Reject sides prepared under a different measure configuration.

    A side's cached segments and bound material are derived from its own
    config; mixing them with another config's gating/weights would build a
    silently inconsistent graph.  Configs compare by content (see
    :class:`~repro.core.measures.MeasureConfig`), so equal-but-distinct
    configs — e.g. sides that crossed a process boundary via pickle — are
    accepted; the identity test is just the fast path.
    """
    if left_side.config is config and right_side.config is config:
        return
    if left_side.config != config or right_side.config != config:
        raise ValueError(
            "graph sides are bound to a different MeasureConfig; prepare them "
            "under a config equal to the one used for assembly"
        )


# --------------------------------------------------------------------- #
# verification bounds (the pruning cascade's tiers)
# --------------------------------------------------------------------- #
class _GramCodes:
    """One side's segment gram sets as ids of one gram vocabulary.

    ``ids`` lists every segment's gram ids, segment after segment, and
    ``sizes`` the gram count of each segment.  ``columns`` (the side's
    distinct ids, ascending) and ``incidence`` (a segments × columns 0/1
    int32 matrix, plus one all-zero column that absorbs the grams a partner
    does not share) serve the side's role as the probe of a kernel call.
    """

    __slots__ = ("vocabulary", "ids", "sizes", "columns", "incidence")

    def __init__(
        self, bounds: Sequence[_SegmentBoundState], vocabulary: Vocabulary
    ) -> None:
        with _GRAM_LOCK:
            encoded = [vocabulary.encode_all(state.grams) for state in bounds]
        sizes = [len(segment_ids) for segment_ids in encoded]
        self.vocabulary = vocabulary
        self.ids = _np.fromiter(
            chain.from_iterable(encoded), dtype=_np.intp, count=sum(sizes)
        )
        self.sizes = _np.array(sizes, dtype=_np.int32)
        self.columns, inverse = _np.unique(self.ids, return_inverse=True)
        self.incidence = _np.zeros(
            (len(sizes), len(self.columns) + 1), dtype=_np.int32
        )
        self.incidence[_np.repeat(_np.arange(len(sizes)), sizes), inverse] = 1


def _gram_codes(side: GraphSide, vocabulary: Vocabulary) -> _GramCodes:
    """The side's encoding under ``vocabulary``, built on first use.

    A side keeps one encoding; it is rebuilt when the side is bounded under
    another config's vocabulary (an equal config from another pickle).
    """
    codes = side.__dict__.get("_gram_codes")
    if codes is None or codes.vocabulary is not vocabulary:
        codes = _GramCodes(side.bound_state, vocabulary)
        side._gram_codes = codes
    return codes


def _jaccard_blocks(
    probe_side: GraphSide,
    partners: Sequence[GraphSide],
    probe_is_left: bool,
    vocabulary: Vocabulary,
) -> List[List[List[float]]]:
    """Per partner, the Jaccard matrix of every segment pair (rows = left).

    One int32 matmul of 0/1 gram-incidence matrices counts the shared grams
    of every probe segment against every partner segment of the group; the
    union is ``|a| + |b| - shared`` and each value an int/int division, so
    every entry equals the per-pair gram-set arithmetic bit for bit.
    Without numpy each entry is that arithmetic.  A config without Jaccard
    gives its sides empty gram sets, so its blocks are all zeros.
    """
    if _np is None:
        probe_bounds = probe_side.bound_state
        blocks = []
        for partner in partners:
            left, right = (
                (probe_bounds, partner.bound_state)
                if probe_is_left
                else (partner.bound_state, probe_bounds)
            )
            blocks.append(
                [[_jaccard(a.grams, b.grams) for b in right] for a in left]
            )
        return blocks
    probe = _gram_codes(probe_side, vocabulary)
    codes = [_gram_codes(partner, vocabulary) for partner in partners]
    sizes = _np.concatenate([code.sizes for code in codes])
    ids = _np.concatenate([code.ids for code in codes])
    width = len(probe.columns)
    lookup = _np.full(len(vocabulary), width, dtype=_np.intp)
    lookup[probe.columns] = _np.arange(width)
    incidence = _np.zeros((len(sizes), width + 1), dtype=_np.int32)
    incidence[_np.repeat(_np.arange(len(sizes)), sizes), lookup[ids]] = 1
    shared = incidence @ probe.incidence.T  # partner segments × probe segments
    union = sizes[:, None] + probe.sizes - shared
    values = _np.zeros(shared.shape)
    _np.divide(shared, union, out=values, where=shared > 0)
    starts = list(accumulate((len(code.sizes) for code in codes), initial=0))
    if probe_is_left:
        values = values.T
        return [values[:, start:end].tolist() for start, end in pairwise(starts)]
    return [values[start:end].tolist() for start, end in pairwise(starts)]


def _jaccard(left: FrozenSet[str], right: FrozenSet[str]) -> float:
    """Jaccard of two gram sets (0.0 when either is empty)."""
    if left and right:
        intersection = len(left & right)
        if intersection:
            return intersection / (len(left) + len(right) - intersection)
    return 0.0


def usim_upper_bounds(
    probe_side: GraphSide,
    partner_sides: Sequence[GraphSide],
    config: MeasureConfig,
    *,
    probe_is_left: bool,
    threshold: Optional[float] = None,
) -> List[float]:
    """:func:`usim_upper_bound` of one probe against each of its partners.

    The value at position ``k`` equals ``usim_upper_bound`` of the pair
    (probe, ``partner_sides[k]``) in the orientation ``probe_is_left``
    fixes, bit for bit; only the work is shared.  Per segment pair the
    bound is the largest of three terms:

    * **Jaccard** — exact, from the shared-gram counts of one integer
      matmul over the whole group (see :func:`_jaccard_blocks`);
    * **taxonomy** — exact: ``ancestors()`` lists a node's chain up to the
      root (depth 1) inclusive, so two chains share exactly
      ``depth(LCA)`` nodes;
    * **synonyms** — an upper bound: a rule connecting two segments has
      one of them as its lhs, so only their own tokens can key it, and
      each closeness map caps its value under that key.  Filled in only
      for segments that carry closeness maps.
    """
    return _upper_bounds(
        probe_side, partner_sides, config, probe_is_left, threshold, 16
    )


def usim_upper_bound(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
    *,
    exact_limit: int = 16,
    threshold: Optional[float] = None,
) -> float:
    """An upper bound on the unified similarity, pair graph not required.

    Every well-defined partition pair realises ``W(P) / max(|P_S|, |P_T|)``
    where the matching ``W(P)`` only pairs well-defined segments; bounding
    the numerator by a maximum matching over *all* segment pairs (with
    per-pair msim upper bounds) and the denominator from below by the exact
    minimal partition sizes therefore bounds USIM — and a fortiori the
    Algorithm-1 approximation, which realises some partition pair — from
    above.

    ``threshold`` is a pure short-circuit for callers that only compare the
    bound against a pruning threshold (the verification cascade, which is
    also the per-candidate hot path of single-record search queries): the
    row/column-maxima sums dominate any matching weight, so when that
    cheaper bound already falls below ``threshold`` it is returned directly
    and the matching solver never runs.  Every decision of the form
    ``usim_upper_bound(...) < threshold`` is identical with or without the
    short circuit — only the returned value may be the (valid but looser)
    cheap bound in the sub-threshold cases.

    This is :func:`usim_upper_bounds` with one partner.
    """
    return _upper_bounds(
        left_side, (right_side,), config, True, threshold, exact_limit
    )[0]


def _upper_bounds(
    probe_side: GraphSide,
    partner_sides: Sequence[GraphSide],
    config: MeasureConfig,
    probe_is_left: bool,
    threshold: Optional[float],
    exact_limit: int,
) -> List[float]:
    for partner in partner_sides:
        _check_side_configs(probe_side, partner, config)
    bounds = [0.0] * len(partner_sides)
    if not probe_side.tokens:
        return bounds
    active = [k for k, partner in enumerate(partner_sides) if partner.tokens]
    if not active:
        return bounds
    partners = [partner_sides[k] for k in active]
    matrices = _jaccard_blocks(
        probe_side, partners, probe_is_left, config.gram_vocabulary
    )

    probe_taxonomy = probe_side.taxonomy_bounds
    probe_own, probe_by_key = probe_side.synonym_keys
    probe_minimum = probe_side.min_partition_size
    for k, partner, matrix in zip(active, partners, matrices):
        # The sparse terms raise single entries: (probe segment, partner
        # segment, value).  A connecting synonym rule is directional, so its
        # lhs is one of the two segments: only their own tokens can key a
        # rule between them, and the smaller of the two maps' values under
        # that key caps its closeness.
        raised: List[Tuple[int, int, float]] = []
        for j, other_ancestors, other_depth in partner.taxonomy_bounds:
            for i, ancestors, depth in probe_taxonomy:
                lca_depth = len(ancestors & other_ancestors)
                if lca_depth:
                    deeper = depth if depth > other_depth else other_depth
                    raised.append((i, j, lca_depth / deeper))
        partner_own, partner_by_key = partner.synonym_keys
        for i, key, value in probe_own:
            for j, other in partner_by_key.get(key, ()):
                raised.append((i, j, value if value < other else other))
        for j, key, other in partner_own:
            for i, value in probe_by_key.get(key, ()):
                raised.append((i, j, value if value < other else other))
        for i, j, value in raised:
            row, column = (matrix[i], j) if probe_is_left else (matrix[j], i)
            if value > row[column]:
                row[column] = value

        denominator = max(probe_minimum, partner.min_partition_size, 1)
        if threshold is not None:
            # A matching selects at most one entry per row and per column,
            # so each maxima sum bounds every matching's weight from above.
            cheap = sum(map(max, matrix))
            if cheap / denominator >= threshold:
                cheap = min(cheap, sum(map(max, zip(*matrix))))
            value = cheap / denominator
            if value < threshold:
                bounds[k] = 1.0 if value > 1.0 else value
                continue
        numerator = matching_weight_upper_bound(matrix, exact_limit=exact_limit)
        value = numerator / denominator
        bounds[k] = 1.0 if value > 1.0 else value
    return bounds


def singleton_greedy_lower_bound(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
) -> float:
    """A lower bound on the *exact* USIM via the all-singletons partitions.

    Matches tokens by msim and divides by the larger token count — any
    feasible matching weight lower-bounds ``GetSim`` of the all-singletons
    partitions and hence the exact USIM.  Small token matrices get the
    exact Hungarian assignment (via
    :func:`~repro.core.matching.matching_weight_lower_bound`), which is
    the singleton-partition ``GetSim`` itself — the tightest bound this
    tier can produce — so more pairs clear the threshold here and skip
    the upper-bound tier; larger matrices keep the weight-descending
    greedy.  Note this does **not** lower-bound the Algorithm-1
    approximation (whose seed selection may realise less than the
    singleton partitions), so the cascade only uses it to skip
    upper-bound work that provably cannot prune, never to accept pairs.
    """
    left_tuples = left_side.singleton_token_tuples
    right_tuples = right_side.singleton_token_tuples
    if not left_tuples or not right_tuples:
        return 0.0
    msim = config.msim
    weights = [
        [msim(left, right) for right in right_tuples] for left in left_tuples
    ]
    total = matching_weight_lower_bound(weights)
    return total / max(len(left_tuples), len(right_tuples))
