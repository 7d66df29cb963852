"""Tests for conflict-graph construction and w-MIS solvers.

``TestSquareImpDifferential`` is the bit-identity gate of ``squareimp_wmis``:
it compares the bitmask search against the set-based implementation it
replaced, frozen below as ``reference_squareimp_wmis``.
"""

import itertools
from typing import Iterable, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import Taxonomy
import repro.core.approximation as approximation
from repro.core.approximation import approximate_usim
from repro.core.graph import ConflictGraph, PairVertex, build_conflict_graph
from repro.core.measures import MeasureConfig
from repro.core.mis import exact_wmis, greedy_wmis, is_maximal_independent_set, squareimp_wmis
from repro.core.segments import Segment
from repro.core.tokenizer import TokenSpan
from repro.datasets import MED_PROFILE, generate_dataset, generate_ground_truth
from repro.join import UnifiedJoin
from repro.records import RecordCollection
from repro.synonyms.rules import SynonymRuleSet


# --------------------------------------------------------------------------- #
# Frozen reference: the set-based SquareImp search, kept verbatim as an oracle.
# --------------------------------------------------------------------------- #
def _independent_subsets(
    graph: ConflictGraph, candidates: Sequence[int], max_size: int
) -> Iterable[Tuple[int, ...]]:
    """Yield all independent subsets of ``candidates`` with size 1..max_size."""
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(candidates, size):
            if graph.is_independent(combo):
                yield combo


def reference_squareimp_wmis(
    graph: ConflictGraph,
    *,
    max_claw_size: int = 2,
    max_iterations: int = 200,
) -> Set[int]:
    """The SquareImp search before the bitmask rewrite: rescans every outside
    vertex per anchor and enumerates all pool subsets, keeping those that
    contain the anchor."""
    if max_claw_size < 1:
        raise ValueError("max_claw_size must be at least 1")

    selected = greedy_wmis(graph)
    weights = [vertex.weight for vertex in graph.vertices]

    def conflict_set(talons: Sequence[int]) -> Set[int]:
        removed: Set[int] = set()
        for talon in talons:
            removed |= graph.neighbors(talon) & selected
            if talon in selected:
                removed.add(talon)
        return removed

    for _ in range(max_iterations):
        improved = False
        outside = [index for index in range(len(graph)) if index not in selected]
        # Candidate talon sets are built around each outside vertex and its
        # independent outside neighbours, which keeps enumeration local.
        for anchor in outside:
            neighbourhood = [anchor] + [
                index for index in outside
                if index != anchor and graph.are_adjacent(anchor, index) is False
                and (graph.neighbors(anchor) & graph.neighbors(index))
            ]
            # Restrict to a bounded pool for tractability.
            pool = neighbourhood[: max(8, max_claw_size * 4)]
            for talons in _independent_subsets(graph, pool, max_claw_size):
                if anchor not in talons:
                    continue
                removed = conflict_set(talons)
                gain = sum(weights[t] ** 2 for t in talons)
                loss = sum(weights[r] ** 2 for r in removed)
                if gain > loss + 1e-12:
                    selected -= removed
                    selected |= set(talons)
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    # Make the solution maximal: add any non-conflicting leftover vertex.
    for index in sorted(range(len(graph)), key=lambda i: -weights[i]):
        if index in selected:
            continue
        if not (graph.neighbors(index) & selected):
            selected.add(index)
    return selected


# --------------------------------------------------------------------------- #
# Generated conflict graphs: random token pairs, synonym rules and taxonomy.
# --------------------------------------------------------------------------- #
#: Short words over four letters: most pairs share a 2-gram, so Jaccard alone
#: already makes dense conflict graphs.
WORDS = st.text(alphabet="abcd", min_size=2, max_size=4)


def _segment(draw, tokens):
    """A random run of 1-3 consecutive ``tokens``, as text."""
    start = draw(st.integers(0, len(tokens) - 1))
    return " ".join(tokens[start:start + draw(st.integers(1, 3))])


@st.composite
def token_pairs(draw):
    """A ``(left, right, config)`` triple with synonym rules and a small taxonomy
    whose phrases occur in the two token sequences."""
    vocabulary = draw(st.lists(WORDS, min_size=3, max_size=8, unique=True))
    tokens = st.lists(st.sampled_from(vocabulary), min_size=2, max_size=7).map(tuple)
    left, right = draw(tokens), draw(tokens)
    rules = SynonymRuleSet()
    for _ in range(draw(st.integers(0, 6))):
        rules.add_text_rule(_segment(draw, left), _segment(draw, right), draw(st.floats(0.05, 1.0)))
    taxonomy = Taxonomy("root")
    labels = {
        _segment(draw, draw(st.sampled_from((left, right))))
        for _ in range(draw(st.integers(0, 6)))
    }
    for position, label in enumerate(sorted(labels)):
        taxonomy.add_node(label, draw(st.integers(0, position)))
    config = MeasureConfig.from_codes("TJS", rules=rules, taxonomy=taxonomy)
    return left, right, config


SPANS = st.integers(0, 7).flatmap(
    lambda start: st.integers(start + 1, min(start + 3, 8)).map(lambda end: TokenSpan(start, end))
)


@st.composite
def weighted_graphs(draw):
    """Conflict graphs of random segment pairs with random weights.

    The structure is that of a string pair's conflict graph (vertices
    conflict when their segments overlap on either side), but the weights
    are free, so the greedy seed is beaten by claw swaps far more often than
    on the graphs of short strings.
    """
    vertices = []
    for left, right, weight in draw(
        st.lists(st.tuples(SPANS, SPANS, st.floats(0.01, 1.0)), min_size=10, max_size=40)
    ):
        vertices.append(
            PairVertex(
                index=len(vertices),
                left=Segment(left, ("x",) * len(left)),
                right=Segment(right, ("x",) * len(right)),
                weight=weight,
                measure=None,
            )
        )
    adjacency = [
        {other.index for other in vertices if other is not vertex and vertex.conflicts_with(other)}
        for vertex in vertices
    ]
    return ConflictGraph(("x",) * 8, ("x",) * 8, vertices, adjacency)


def conflict_graphs():
    return token_pairs().map(lambda pair: build_conflict_graph(*pair))


def squared_weight(graph: ConflictGraph, selection: Iterable[int]) -> float:
    return sum(graph.vertices[index].weight ** 2 for index in selection)


@pytest.fixture
def example5_graph():
    """The graph of the paper's Example 4/5 (Figure 2), built from its rules.

    S = {a, b, c, d, e}, T = {f, g, h} with six synonym rules; rule R6 is not
    applicable, so the graph has 5 vertices.
    """
    rules = SynonymRuleSet()
    rules.add_text_rule("b c d", "f", 0.3)
    rules.add_text_rule("b c", "f g", 0.13)
    rules.add_text_rule("c d", "f g", 0.27)
    rules.add_text_rule("a", "g", 0.09)
    rules.add_text_rule("d", "h", 0.22)
    rules.add_text_rule("z e f", "g", 0.5)
    config = MeasureConfig.from_codes("S", rules=rules)
    graph = build_conflict_graph(tuple("abcde"), tuple("fgh"), config)
    return graph, config


class TestConflictGraph:
    def test_example5_vertex_count(self, example5_graph):
        graph, _ = example5_graph
        # R1–R5 are applicable, R6 is not.
        assert len(graph) == 5

    def test_conflicting_rules_are_adjacent(self, example5_graph):
        graph, _ = example5_graph
        by_weight = {round(v.weight, 2): v.index for v in graph.vertices}
        r3 = by_weight[0.27]  # {c d} -> {f g}
        r5 = by_weight[0.22]  # {d} -> {h}
        assert graph.are_adjacent(r3, r5)  # share token "d" on the S side

    def test_non_conflicting_rules_not_adjacent(self, example5_graph):
        graph, _ = example5_graph
        by_weight = {round(v.weight, 2): v.index for v in graph.vertices}
        r1 = by_weight[0.3]   # {b c d} -> {f}
        r4 = by_weight[0.09]  # {a} -> {g}
        assert not graph.are_adjacent(r1, r4)

    def test_zero_weight_pairs_dropped(self, figure1_config):
        graph = build_conflict_graph(("xyz",), ("qqq",), figure1_config)
        assert len(graph) == 0

    def test_figure1_graph_has_key_vertices(self, figure1_config):
        graph = build_conflict_graph(
            ("coffee", "shop", "latte", "helsingki"),
            ("espresso", "cafe", "helsinki"),
            figure1_config,
        )
        descriptions = {
            (vertex.left.tokens, vertex.right.tokens): vertex.weight for vertex in graph.vertices
        }
        assert descriptions[(("coffee", "shop"), ("cafe",))] == pytest.approx(1.0)
        assert descriptions[(("latte",), ("espresso",))] == pytest.approx(0.8)
        assert descriptions[(("helsingki",), ("helsinki",))] == pytest.approx(2 / 3)

    def test_is_independent(self, example5_graph):
        graph, _ = example5_graph
        assert graph.is_independent([])
        for vertex in graph.vertices:
            assert graph.is_independent([vertex.index])


class TestWMIS:
    def test_exact_beats_or_equals_greedy(self, example5_graph):
        graph, _ = example5_graph
        exact = exact_wmis(graph)
        greedy = greedy_wmis(graph)
        assert graph.total_weight(exact) >= graph.total_weight(greedy) - 1e-12

    def test_exact_optimal_on_example5(self, example5_graph):
        graph, _ = example5_graph
        exact = exact_wmis(graph)
        # The optimum selects R1 (0.3) and R4 (0.09): R1's T-side {f} and R4's
        # {g} are disjoint, while any set containing R2 or R3 conflicts with
        # R4 on token "g", capping those alternatives at 0.35.  This is the
        # selection the paper's Example 5 reports for Algorithm 1.
        assert graph.total_weight(exact) == pytest.approx(0.39)

    def test_solutions_are_independent_sets(self, example5_graph):
        graph, _ = example5_graph
        for solver in (greedy_wmis, squareimp_wmis, exact_wmis):
            selection = solver(graph)
            assert graph.is_independent(selection)

    def test_solutions_are_maximal(self, example5_graph):
        graph, _ = example5_graph
        assert is_maximal_independent_set(graph, greedy_wmis(graph))
        assert is_maximal_independent_set(graph, squareimp_wmis(graph))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(conflict_graphs(), weighted_graphs()), st.integers(1, 3))
    def test_squareimp_maximal_and_at_least_greedy_squared_weight(self, graph, claw_size):
        # SquareImp only applies swaps that raise the squared weight, starting
        # from the greedy solution; the linear weight may drop.
        selection = squareimp_wmis(graph, max_claw_size=claw_size)
        assert is_maximal_independent_set(graph, selection)
        greedy = greedy_wmis(graph)
        assert squared_weight(graph, selection) >= squared_weight(graph, greedy) - 1e-9

    def test_exact_rejects_large_graphs(self, figure1_config):
        graph = build_conflict_graph(
            tuple("abcdefghij"), tuple("abcdefghij"), MeasureConfig.from_codes("J")
        )
        if len(graph) > 8:
            with pytest.raises(ValueError):
                exact_wmis(graph, max_vertices=8)

    def test_greedy_invalid_key(self, example5_graph):
        graph, _ = example5_graph
        with pytest.raises(ValueError):
            greedy_wmis(graph, key="nope")


# --------------------------------------------------------------------------- #
# Differential suite: the bitmask search against the frozen reference.
# --------------------------------------------------------------------------- #
CLAW_SIZES = (1, 2, 3, 4)
ITERATIONS = (1, 2, 200)


@pytest.fixture(scope="module")
def dirty_join_graphs():
    """Every conflict graph Algorithm 1 sees in a small dirty-corpus self-join.

    The corpus is 16 MED-profile records plus ground-truth perturbations
    (typo, synonym and taxonomy substitutions) of 6 of them.
    """
    base = generate_dataset(MED_PROFILE, count=16, seed=0)
    truth = generate_ground_truth(base, positive_pairs=6, negative_pairs=0, seed=3)
    texts = base.records.texts() + [pair.right.text for pair in truth.positives()]
    join = UnifiedJoin(rules=base.rules, taxonomy=base.taxonomy, measures="TJS", theta=0.7, tau=2)
    graphs = []

    def recording(graph, **kwargs):
        graphs.append(graph)
        return squareimp_wmis(graph, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approximation, "squareimp_wmis", recording)
        result = join.join(RecordCollection.from_strings(texts))
    assert len(result) > 0 and len(graphs) >= 5
    return graphs, join.config


def assert_same_selection(graph, claw_size, iterations):
    expected = reference_squareimp_wmis(graph, max_claw_size=claw_size, max_iterations=iterations)
    actual = squareimp_wmis(graph, max_claw_size=claw_size, max_iterations=iterations)
    # Same members in the same iteration order: Algorithm 1 sums over it.
    assert list(actual) == list(expected)


class TestSquareImpDifferential:
    @settings(max_examples=80, deadline=None)
    @given(conflict_graphs())
    def test_generated_conflict_graphs(self, graph):
        for index in range(len(graph)):
            # The bitmask search relies on the conflict graph being undirected.
            assert all(graph.are_adjacent(other, index) for other in graph.neighbors(index))
        for claw_size, iterations in itertools.product(CLAW_SIZES, ITERATIONS):
            assert_same_selection(graph, claw_size, iterations)

    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs())
    def test_weighted_graphs(self, graph):
        for claw_size, iterations in itertools.product(CLAW_SIZES, ITERATIONS):
            assert_same_selection(graph, claw_size, iterations)

    @settings(max_examples=40, deadline=None)
    @given(token_pairs())
    def test_generated_pairs_approximate_usim(self, pair):
        left, right, config = pair
        actual = approximate_usim(left, right, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(approximation, "squareimp_wmis", reference_squareimp_wmis)
            expected = approximate_usim(left, right, config)
        assert actual.value == expected.value
        assert actual.selection == expected.selection

    @pytest.mark.parametrize("claw_size", CLAW_SIZES)
    @pytest.mark.parametrize("iterations", ITERATIONS)
    def test_dirty_join_graphs(self, dirty_join_graphs, claw_size, iterations):
        graphs, _ = dirty_join_graphs
        for graph in graphs:
            assert_same_selection(graph, claw_size, iterations)

    def test_dirty_join_pairs_approximate_usim(self, dirty_join_graphs):
        graphs, config = dirty_join_graphs
        pairs = [(graph.left_tokens, graph.right_tokens) for graph in graphs]
        actual = [approximate_usim(left, right, config) for left, right in pairs]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(approximation, "squareimp_wmis", reference_squareimp_wmis)
            expected = [approximate_usim(left, right, config) for left, right in pairs]
        assert [result.value for result in actual] == [result.value for result in expected]
        assert [result.selection for result in actual] == [result.selection for result in expected]
