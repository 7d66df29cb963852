"""Weighted maximum independent set on the conflict graph.

The approximation algorithm of the paper (Algorithm 1) seeds its solution
with a w-MIS computed by SquareImp [Berman 2000], a local-search algorithm
for d-claw-free graphs that repeatedly applies claw improvements with
respect to the *squared* vertex weights.  This module provides:

* :func:`greedy_wmis` — a weight-descending greedy baseline,
* :func:`squareimp_wmis` — greedy seed followed by SquareImp-style claw
  improvements on squared weights, with a configurable maximum claw size,
* :func:`exact_wmis` — exhaustive search for small graphs (used by tests and
  by the exact unified similarity).

All functions operate on :class:`~repro.core.graph.ConflictGraph` and return
sets of vertex indices.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .graph import ConflictGraph

__all__ = ["greedy_wmis", "squareimp_wmis", "exact_wmis", "is_maximal_independent_set"]


def is_maximal_independent_set(graph: ConflictGraph, selection: Set[int]) -> bool:
    """True when ``selection`` is independent and no vertex can be added."""
    if not graph.is_independent(selection):
        return False
    for index in range(len(graph)):
        if index in selection:
            continue
        if not (graph.neighbors(index) & selection):
            return False
    return True


def greedy_wmis(graph: ConflictGraph, *, key: str = "weight") -> Set[int]:
    """Greedy w-MIS: repeatedly take the best remaining non-conflicting vertex.

    ``key`` selects the greedy criterion: ``"weight"`` (descending weight) or
    ``"ratio"`` (weight divided by degree + 1, a classic refinement).
    """
    if key not in {"weight", "ratio"}:
        raise ValueError("key must be 'weight' or 'ratio'")

    def score(index: int) -> float:
        weight = graph.vertices[index].weight
        if key == "weight":
            return weight
        return weight / (graph.degree(index) + 1)

    order = sorted(range(len(graph)), key=score, reverse=True)
    selected: Set[int] = set()
    blocked: Set[int] = set()
    for index in order:
        if index in blocked:
            continue
        selected.add(index)
        blocked.add(index)
        blocked |= graph.neighbors(index)
    return selected


def _low_bits(mask: int, limit: int) -> List[int]:
    """Indices of the lowest ``limit`` set bits of ``mask``, ascending."""
    indices: List[int] = []
    while mask and len(indices) < limit:
        lowest = mask & -mask
        indices.append(lowest.bit_length() - 1)
        mask ^= lowest
    return indices


def _anchored_claws(
    anchor: int, pool: Sequence[int], masks: Sequence[int], max_size: int
) -> Iterator[Tuple[int, ...]]:
    """Independent talon sets ``(anchor, *rest)`` with ``rest`` drawn from ``pool``.

    ``pool`` must hold no neighbour of ``anchor``.  Claws come by size, then
    in ``itertools.combinations(pool, size - 1)`` order; a prefix that is
    already dependent is not extended.
    """

    def extend(
        claw: Tuple[int, ...], start: int, blocked: int, missing: int
    ) -> Iterator[Tuple[int, ...]]:
        for position in range(start, len(pool)):
            vertex = pool[position]
            if blocked >> vertex & 1:
                continue
            if missing == 1:
                yield claw + (vertex,)
            else:
                yield from extend(
                    claw + (vertex,), position + 1, blocked | masks[vertex], missing - 1
                )

    yield (anchor,)
    for size in range(1, max_size):
        yield from extend((anchor,), 0, 0, size)


def squareimp_wmis(
    graph: ConflictGraph,
    *,
    max_claw_size: int = 2,
    max_iterations: int = 200,
) -> Set[int]:
    """SquareImp-style local search for w-MIS on the conflict graph.

    Starting from the greedy solution, the search looks for a *claw
    improvement*: an independent set of at most ``max_claw_size`` vertices
    (the talons) outside the current solution whose squared weight exceeds,
    by more than ``1e-12``, the squared weight of the solution vertices they
    conflict with.  What is searched is deliberately local:

    * every vertex outside the solution is tried as the *anchor*, in
      ascending index order;
    * the other talons come from the anchor's *two-hop* outside vertices —
      those not adjacent to the anchor but sharing a neighbour with it — of
      which only the lowest ``max(8, 4 * max_claw_size) - 1`` indices join
      the anchor in its pool;
    * only claws containing the anchor are tried: the anchor alone, then the
      anchor with each independent combination of pool vertices, by size
      and in index order;
    * the first improving claw is applied and the scan restarts from the
      lowest anchor, for at most ``max_iterations`` improvements.

    Restricting talons to two-hop vertices loses no improving pair: when two
    talons share no neighbour, the solution vertices each one removes are
    disjoint, so gain and loss both add up and one of the two single-talon
    swaps already improves (up to the ``1e-12`` slack).  Because of the pool
    cap the search is a heuristic; Berman's d/2 guarantee on d-claw-free
    graphs needs exhaustive claws and is not claimed.  Smaller claw sizes
    trade quality for speed, as the paper's ``t`` parameter does.

    Each vertex's neighbourhood is kept as a bitmask, an anchor's two-hop
    mask is computed on first use and reused for the rest of the search, and
    the selection is mirrored as a bitmask, so examining one anchor costs
    work proportional to its pool.  Losses are still summed over sets built
    from ``neighbours & selected`` unions, whose iteration order fixes the
    floating-point sums, so the selection is reproducible bit for bit.  The
    graph's adjacency must be symmetric, as conflict graphs are.
    """
    if max_claw_size < 1:
        raise ValueError("max_claw_size must be at least 1")

    selected = greedy_wmis(graph)
    size = len(graph)
    weights = [vertex.weight for vertex in graph.vertices]
    squares = [weight ** 2 for weight in weights]
    adjacency = [graph.neighbors(index) for index in range(size)]
    masks = [sum(map((1).__lshift__, neighbours)) for neighbours in adjacency]
    selected_mask = sum(map((1).__lshift__, selected))
    two_hop: List[Optional[int]] = [None] * size
    pool_size = max(8, max_claw_size * 4) - 1

    for _ in range(max_iterations):
        improved = False
        for anchor in range(size):
            if selected_mask >> anchor & 1:
                continue
            reach = two_hop[anchor]
            if reach is None:
                reach = 0
                for neighbour in adjacency[anchor]:
                    reach |= masks[neighbour]
                reach &= ~(masks[anchor] | 1 << anchor)
                two_hop[anchor] = reach
            for talons in _anchored_claws(
                anchor, _low_bits(reach & ~selected_mask, pool_size), masks, max_claw_size
            ):
                removed: Set[int] = set()
                for talon in talons:
                    removed |= adjacency[talon] & selected
                gain = sum(map(squares.__getitem__, talons))
                loss = sum(map(squares.__getitem__, removed))
                if gain > loss + 1e-12:
                    selected -= removed
                    selected |= set(talons)
                    selected_mask = sum(map((1).__lshift__, selected))
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    # Make the solution maximal: add any non-conflicting leftover vertex.
    for index in sorted(range(size), key=lambda i: -weights[i]):
        if selected_mask >> index & 1 or masks[index] & selected_mask:
            continue
        selected.add(index)
        selected_mask |= 1 << index
    return selected


def exact_wmis(graph: ConflictGraph, *, max_vertices: int = 24) -> Set[int]:
    """Exhaustive maximum-weight independent set for small graphs.

    Uses branch and bound over the vertex list ordered by descending weight.
    Raises ``ValueError`` when the graph exceeds ``max_vertices`` to guard
    against accidental exponential blow-ups.
    """
    n = len(graph)
    if n > max_vertices:
        raise ValueError(
            f"exact w-MIS limited to {max_vertices} vertices, got {n}; "
            "use squareimp_wmis for larger graphs"
        )
    weights = [vertex.weight for vertex in graph.vertices]
    order = sorted(range(n), key=lambda index: -weights[index])
    suffix_weight = [0.0] * (n + 1)
    for position in range(n - 1, -1, -1):
        suffix_weight[position] = suffix_weight[position + 1] + weights[order[position]]

    best_weight = 0.0
    best_selection: Set[int] = set()

    def branch(position: int, current: Set[int], current_weight: float, blocked: Set[int]) -> None:
        nonlocal best_weight, best_selection
        if current_weight > best_weight:
            best_weight = current_weight
            best_selection = set(current)
        if position == n:
            return
        if current_weight + suffix_weight[position] <= best_weight:
            return
        index = order[position]
        # Option 1: include the vertex when allowed.
        if index not in blocked:
            branch(
                position + 1,
                current | {index},
                current_weight + weights[index],
                blocked | graph.neighbors(index) | {index},
            )
        # Option 2: skip the vertex.
        branch(position + 1, current, current_weight, blocked)

    branch(0, set(), 0.0, set())
    return best_selection
