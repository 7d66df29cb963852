"""Differential and cascade-identity tests of the group upper-bound kernel.

``usim_upper_bounds`` bounds one probe against a whole candidate group:
Jaccard from one integer matmul of gram-incidence matrices, taxonomy and
synonym terms filled in sparsely.  Its values — and those of
``usim_upper_bound``, now the same kernel with one partner — must equal,
bit for bit, the per-segment-pair bound it replaced, frozen below as
``reference_usim_upper_bound``.  ``scripts/check`` runs this module a second
time with numpy masked (``REPRO_NO_NUMPY=1``), where the Jaccard block
falls back to per-entry gram-set arithmetic.

The verifier now runs the upper bound before the lower bound and computes
the lower bound only when the upper bound reaches θ.  That rests on
``lower ≤ upper`` (property-tested here), and every ``VerificationStats``
counter must equal that of the lower-bound-first cascade, frozen below as
``reference_verify_prepared``, on every executor with the adaptive gates off
and on.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro import Taxonomy
import repro.core.graph as graph_module
from repro.core.approximation import approximate_usim_on_graph
from repro.core.graph import (
    GraphSide,
    build_conflict_graph_from_sides,
    singleton_greedy_lower_bound,
    usim_upper_bound,
    usim_upper_bounds,
)
from repro.core.matching import matching_weight_upper_bound
from repro.core.measures import Measure, MeasureConfig
from repro.datasets import MED_PROFILE, generate_dataset, generate_ground_truth
from repro.join import PebbleJoin
from repro.join.verification import (
    _BOUND_ROUNDING_SLACK,
    UnifiedVerifier,
    VerificationStats,
    VerifiedPair,
)
from repro.records import RecordCollection
from repro.synonyms.rules import SynonymRuleSet

SRC = Path(__file__).resolve().parents[1] / "src"


# --------------------------------------------------------------------------- #
# Frozen reference: the per-segment-pair upper bound, kept verbatim as an oracle.
# --------------------------------------------------------------------------- #
def reference_segment_pair_upper_bound(left, right, use_jaccard: bool) -> float:
    """An upper bound on ``msim`` of one segment pair from cached state."""
    bound = 0.0
    if use_jaccard and left.grams and right.grams:
        intersection = len(left.grams & right.grams)
        if intersection:
            union = len(left.grams) + len(right.grams) - intersection
            value = intersection / union
            if value > bound:
                bound = value
    if left.syn_closeness is not None and right.syn_closeness is not None:
        keys = (
            (left.self_tokens,)
            if left.self_tokens == right.self_tokens
            else (left.self_tokens, right.self_tokens)
        )
        for key in keys:
            closeness = left.syn_closeness.get(key)
            if closeness is None:
                continue
            other = right.syn_closeness.get(key)
            if other is None:
                continue
            value = closeness if closeness < other else other
            if value > bound:
                bound = value
    if left.tax_ancestors is not None and right.tax_ancestors is not None:
        smaller_anc, larger_anc = left.tax_ancestors, right.tax_ancestors
        if len(larger_anc) < len(smaller_anc):
            smaller_anc, larger_anc = larger_anc, smaller_anc
        lca_depth = 0
        for node_id, depth in smaller_anc.items():
            if depth > lca_depth and node_id in larger_anc:
                lca_depth = depth
        if lca_depth:
            value = lca_depth / max(left.tax_depth, right.tax_depth)
            if value > bound:
                bound = value
    return bound


def reference_usim_upper_bound(
    left_side, right_side, config, *, exact_limit: int = 16, threshold=None
) -> float:
    """``usim_upper_bound`` as it was: one Python call per segment pair."""
    if not left_side.tokens or not right_side.tokens:
        return 0.0
    use_jaccard = config.uses(Measure.JACCARD)
    matrix = [
        [
            reference_segment_pair_upper_bound(left, right, use_jaccard)
            for right in right_side.bound_state
        ]
        for left in left_side.bound_state
    ]
    denominator = max(left_side.min_partition_size, right_side.min_partition_size, 1)
    if threshold is not None and matrix and matrix[0]:
        row_sum = sum(max(row) for row in matrix)
        cheap = row_sum
        if cheap / denominator >= threshold:
            columns = len(matrix[0])
            col_sum = sum(max(row[column] for row in matrix) for column in range(columns))
            cheap = min(cheap, col_sum)
        value = cheap / denominator
        if value < threshold:
            return 1.0 if value > 1.0 else value
    numerator = matching_weight_upper_bound(matrix, exact_limit=exact_limit)
    value = numerator / denominator
    return 1.0 if value > 1.0 else value


# --------------------------------------------------------------------------- #
# Generated groups: one probe, 0..6 partners, rules and a taxonomy over them.
# --------------------------------------------------------------------------- #
#: Short words over four letters, so most segment pairs share a gram.
WORDS = st.text(alphabet="abcd", min_size=1, max_size=4)
CODES = ("TJS", "J", "S", "T", "TS")
THRESHOLDS = (None, 0.0, 0.3, 0.5, 0.7, 0.9, 1.0)


def _segment(draw, tokens) -> str:
    """A random run of 1-3 consecutive ``tokens``, as text."""
    start = draw(st.integers(0, len(tokens) - 1))
    return " ".join(tokens[start:start + draw(st.integers(1, 3))])


@st.composite
def bound_groups(draw, codes=st.sampled_from(CODES)):
    """``(probe tokens, partner token tuples, config)``.

    Records may be empty.  Rules connect segments of any two records, so
    rules chain transitively.  The taxonomy hangs labels drawn from the
    records under random earlier nodes — a forest of branches below the
    root — and may register one label at several nodes.
    """
    vocabulary = draw(st.lists(WORDS, min_size=2, max_size=8, unique=True))
    records = st.lists(st.sampled_from(vocabulary), min_size=0, max_size=7).map(tuple)
    probe = draw(records)
    partners = draw(st.lists(records, min_size=0, max_size=6))
    texts = [tokens for tokens in (probe, *partners) if tokens]
    rules = SynonymRuleSet()
    taxonomy = Taxonomy("root")
    if texts:
        pick = st.sampled_from(texts)
        for _ in range(draw(st.integers(0, 8))):
            rules.add_text_rule(
                _segment(draw, draw(pick)),
                _segment(draw, draw(pick)),
                draw(st.floats(0.05, 1.0)),
            )
        for _ in range(draw(st.integers(0, 8))):
            parent = draw(st.integers(0, len(taxonomy) - 1))
            taxonomy.add_node(_segment(draw, draw(pick)), parent)
    config = MeasureConfig.from_codes(
        draw(codes), rules=rules, taxonomy=taxonomy, q=draw(st.sampled_from((2, 3)))
    )
    return probe, partners, config


def _assert_group_matches_reference(probe, partners, config, thresholds=THRESHOLDS):
    for threshold in thresholds:
        for probe_is_left in (True, False):
            values = usim_upper_bounds(
                probe, partners, config, probe_is_left=probe_is_left, threshold=threshold
            )
            assert len(values) == len(partners)
            for partner, value in zip(partners, values):
                left, right = (probe, partner) if probe_is_left else (partner, probe)
                expected = reference_usim_upper_bound(left, right, config, threshold=threshold)
                assert type(value) is float
                assert value == expected, (threshold, probe_is_left, left.tokens, right.tokens)
                single = usim_upper_bound(left, right, config, threshold=threshold)
                assert single == expected


class TestBoundDifferential:
    @settings(max_examples=150, deadline=None)
    @given(bound_groups())
    def test_generated_groups_equal_reference(self, case):
        probe_tokens, partner_tokens, config = case
        probe = GraphSide(probe_tokens, config)
        partners = [GraphSide(tokens, config) for tokens in partner_tokens]
        _assert_group_matches_reference(probe, partners, config)

    def test_med_groups_equal_reference(self):
        """Real records: wider matrices, past the exact matching limit."""
        dataset = generate_dataset(MED_PROFILE, count=30, seed=3)
        for codes in CODES:
            config = MeasureConfig.from_codes(
                codes, rules=dataset.rules, taxonomy=dataset.taxonomy
            )
            sides = [GraphSide(record.tokens, config) for record in dataset.records]
            assert max(len(side.segments) for side in sides) > 16
            for probe in sides[::6]:
                _assert_group_matches_reference(probe, sides, config, (None, 0.5, 0.7))

    def test_exact_limit_passes_through(self):
        dataset = generate_dataset(MED_PROFILE, count=6, seed=3)
        config = MeasureConfig.from_codes("TJS", rules=dataset.rules, taxonomy=dataset.taxonomy)
        sides = [GraphSide(record.tokens, config) for record in dataset.records]
        for left in sides:
            for right in sides:
                for limit in (0, 4):
                    assert usim_upper_bound(
                        left, right, config, exact_limit=limit
                    ) == reference_usim_upper_bound(left, right, config, exact_limit=limit)

    def test_numpy_mask_is_honoured(self):
        env = dict(os.environ, REPRO_NO_NUMPY="1", PYTHONPATH=str(SRC))
        code = "import repro.core.graph as graph; assert graph._np is None\n"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestBoundOrder:
    @settings(max_examples=150, deadline=None)
    @given(bound_groups(codes=st.just("TJS")))
    def test_lower_bound_never_exceeds_upper_bound(self, case):
        """The cascade skips the lower bound more than the rounding slack
        below θ on this inequality (exact in real arithmetic; the two bounds'
        floats may cross by a few ulps)."""
        probe_tokens, partner_tokens, config = case
        probe = GraphSide(probe_tokens, config)
        for partner in (GraphSide(tokens, config) for tokens in partner_tokens):
            for left, right in ((probe, partner), (partner, probe)):
                lower = singleton_greedy_lower_bound(left, right, config)
                for threshold in THRESHOLDS:
                    upper = usim_upper_bound(left, right, config, threshold=threshold)
                    assert lower <= upper + _BOUND_ROUNDING_SLACK

    def test_bounds_crossing_by_rounding_keep_the_cascade(self):
        """Here the lower bound (7/12) rounds one ulp above the upper bound
        (7/12).  At θ equal to the lower bound the lower-bound-first cascade
        clears the lower tier and verifies the pair: the reordered one must
        do the same, not prune it on the upper bound."""
        config = MeasureConfig.from_codes(
            "TJS", rules=SynonymRuleSet(), taxonomy=Taxonomy("root"), q=2
        )
        records = RecordCollection.from_strings(["b b b aaba", "b aa b"])
        left, right = (GraphSide(record.tokens, config) for record in records)
        lower = singleton_greedy_lower_bound(left, right, config)
        assert lower > usim_upper_bound(left, right, config, threshold=lower)
        outcomes = []
        for verify in (UnifiedVerifier._verify_prepared, reference_verify_prepared):
            verifier = UnifiedVerifier(config, lower)
            stats = VerificationStats()
            pair = verify(verifier, records[0], records[1], left, right, stats)
            outcomes.append((pair, {name: getattr(stats, name) for name in stats._COUNTERS}))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1]["lower_bound_skips"] == 1


@pytest.mark.skipif(graph_module._np is None, reason="gram ids exist only with numpy")
class TestGramIdsStayInProcess:
    def test_pickles_carry_no_gram_ids(self):
        dataset = generate_dataset(MED_PROFILE, count=8, seed=5)
        config = MeasureConfig.from_codes("TJS", rules=dataset.rules, taxonomy=dataset.taxonomy)
        sides = [GraphSide(record.tokens, config) for record in dataset.records]
        usim_upper_bounds(sides[0], sides, config, probe_is_left=True)
        assert "_gram_codes" in vars(sides[0]) and len(config.gram_vocabulary) > 0
        clone = pickle.loads(pickle.dumps(sides[0]))
        assert "_gram_codes" not in vars(clone)
        assert len(clone.config.gram_vocabulary) == 0

    def test_sides_bound_identically_under_another_vocabulary(self):
        """An equal config from a pickle has its own gram ids, with unrelated
        grams interned first: sides encoded under the original re-encode."""
        dataset = generate_dataset(MED_PROFILE, count=12, seed=5)
        config = MeasureConfig.from_codes("TJS", rules=dataset.rules, taxonomy=dataset.taxonomy)
        sides = [GraphSide(record.tokens, config) for record in dataset.records]
        expected = usim_upper_bounds(sides[0], sides[1:], config, probe_is_left=False)
        stale = vars(sides[0])["_gram_codes"]
        other = pickle.loads(pickle.dumps(config))
        fresh = [GraphSide(record.tokens, other) for record in list(dataset.records)[6:]]
        usim_upper_bounds(fresh[-1], fresh, other, probe_is_left=True)
        assert usim_upper_bounds(sides[0], sides[1:], other, probe_is_left=False) == expected
        assert vars(sides[0])["_gram_codes"] is not stale
        for side in fresh:
            assert usim_upper_bounds(side, sides, other, probe_is_left=True) == [
                reference_usim_upper_bound(side, partner, config) for partner in sides
            ]

    def test_threads_intern_into_one_vocabulary(self):
        """Thread-pool workers share a config's gram ids: interning must not
        hand one id to two grams.  Each round starts from a fresh config, so
        every thread interns at once."""
        dataset = generate_dataset(MED_PROFILE, count=24, seed=7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(12):
                config = MeasureConfig.from_codes(
                    "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy
                )
                sides = [GraphSide(record.tokens, config) for record in dataset.records]
                with ThreadPoolExecutor(max_workers=8) as pool:
                    bounds = list(pool.map(
                        lambda probe: usim_upper_bounds(
                            probe, sides, config, probe_is_left=True
                        ),
                        sides,
                        timeout=120,
                    ))
                vocabulary = config.gram_vocabulary
                assert all(
                    vocabulary.id_of(gram) == gram_id
                    for gram_id, gram in enumerate(vocabulary)
                )
        finally:
            sys.setswitchinterval(interval)
        assert bounds == [
            [reference_usim_upper_bound(probe, partner, config) for partner in sides]
            for probe in sides
        ]


# --------------------------------------------------------------------------- #
# Frozen reference: the lower-bound-first cascade.
# --------------------------------------------------------------------------- #
def reference_verify_prepared(
    self,
    left_record,
    right_record,
    left_side,
    right_side,
    stats,
    *,
    assembler=None,
    upper=None,
) -> Optional[VerifiedPair]:
    """``UnifiedVerifier._verify_prepared`` before the reorder: the lower
    bound runs on every candidate, the upper bound after it (``upper``, the
    group kernel's value, is ignored)."""
    stats.candidates += 1
    threshold = self.threshold
    config = self.config
    if self.prune and threshold > 0.0:
        lower_gate = self._lower_gate
        upper_gate = self._upper_gate
        lower_cleared = False
        if lower_gate is None or lower_gate.should_run():
            lower = singleton_greedy_lower_bound(left_side, right_side, config)
            lower_cleared = lower >= threshold
            if lower_gate is not None:
                lower_gate.record(lower_cleared)
        else:
            stats.adaptive_lower_skips += 1
        if lower_cleared:
            stats.lower_bound_skips += 1
        elif upper_gate is None or upper_gate.should_run():
            upper = usim_upper_bound(left_side, right_side, config, threshold=threshold)
            pruned = upper < threshold
            if upper_gate is not None:
                upper_gate.record(pruned)
            if pruned:
                stats.upper_bound_prunes += 1
                return None
        else:
            stats.adaptive_upper_skips += 1
    stats.graphs_built += 1
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


@pytest.fixture(scope="module")
def dirty_join():
    """16 MED-profile records plus perturbed copies of 8 of them."""
    base = generate_dataset(MED_PROFILE, count=16, seed=0)
    truth = generate_ground_truth(base, positive_pairs=8, negative_pairs=0, seed=3)
    texts = base.records.texts() + [pair.right.text for pair in truth.positives()]
    config = MeasureConfig.from_codes("TJS", rules=base.rules, taxonomy=base.taxonomy)
    return RecordCollection.from_strings(texts), config


#: θ low enough that the lower bound clears it on the planted duplicates.
CASCADE_THETA = 0.6


def _join(collection, config, adaptive: bool, **execution):
    verifier = UnifiedVerifier(
        config,
        CASCADE_THETA,
        adaptive=adaptive,
        adaptive_window=8,
        adaptive_probe_windows=2,
        lower_tier_cost=0.5,
        upper_tier_cost=0.95,
    )
    result = PebbleJoin(config, CASCADE_THETA, tau=1, verifier=verifier).join(
        collection, **execution
    )
    stats = result.statistics.verification
    pairs: List = [(p.left_id, p.right_id, p.similarity) for p in result.pairs]
    return pairs, {name: getattr(stats, name) for name in stats._COUNTERS}


class TestCascadeIdentity:
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize(
        "execution",
        [{}, {"executor": "thread"}, {"executor": "process", "workers": 1}],
        ids=["serial", "thread", "process"],
    )
    def test_counters_equal_lower_bound_first_cascade(
        self, dirty_join, execution, adaptive, monkeypatch
    ):
        collection, config = dirty_join
        if execution.get("executor") == "thread":
            # One thread keeps the adaptive gates' outcome sequence fixed.
            execution = dict(execution, workers=1 if adaptive else 2)
        got = _join(collection, config, adaptive, **execution)
        # Forked process workers inherit the patched class.
        monkeypatch.setattr(UnifiedVerifier, "_verify_prepared", reference_verify_prepared)
        expected = _join(collection, config, adaptive, **execution)
        assert got == expected
        _, counters = expected
        assert counters["lower_bound_skips"] > 0
        assert counters["upper_bound_prunes"] > 0
        if adaptive:
            assert counters["adaptive_lower_skips"] > 0
            assert counters["adaptive_upper_skips"] > 0
