"""In-memory span recorder and the verification-cascade replay.

Spans are recorded by the benchmark around the calls it makes into each
layer; nothing inside ``src/`` is instrumented for it.  A span is a row
``(trace, parent, name, start, end)`` whose id is its position in the list,
so recording one costs two clock reads and a list append.  Spans of one
join or one request share a trace id.  The recorder keeps everything in
memory and writes JSON lines once, at the end of the run.

:func:`verify_pair` replays the tiered cascade of
``UnifiedVerifier.verify_prepared_pair`` through the public functions of
``repro.core.graph`` and ``repro.core.approximation``, one span per tier,
and updates a ``VerificationStats`` exactly as the library does.  The join
workloads check the replay against the library's own pairs and counters on
every traced run, so a change to the library's cascade cannot leave the
replay silently measuring something else.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.approximation import approximate_usim_on_graph
from repro.core.graph import (
    PairGraphAssembler,
    build_conflict_graph_from_sides,
    singleton_greedy_lower_bound,
    usim_upper_bound,
)
from repro.join import VerificationStats, VerifiedPair

Span = Tuple[int, int, str, float, float]  # trace, parent, name, start, end


class SpanRecorder:
    """Collects spans; ``with recorder.span(name)`` nests, :meth:`record` adds a leaf."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._trace_starts: List[int] = []

    def new_trace(self) -> int:
        """Start a trace; spans recorded until the next one share its id."""
        self._trace_starts.append(len(self.spans))
        return len(self._trace_starts) - 1

    def span(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append((len(self._trace_starts) - 1, parent, name, start, end))

    def summary(self, trace: int) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per span name in one trace: (self seconds, total seconds).

        Self time is a span's duration minus the time its direct children
        cover.  A trace's spans are contiguous, so this reads only them.
        """
        first = self._trace_starts[trace]
        last = (
            self._trace_starts[trace + 1]
            if trace + 1 < len(self._trace_starts)
            else len(self.spans)
        )
        own: Dict[str, float] = defaultdict(float)
        total: Dict[str, float] = defaultdict(float)
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans[first:last]:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id in range(first, last):
            _, _, name, start, end = self.spans[span_id]
            total[name] += end - start
            own[name] += (end - start) - child_time[span_id]
        return dict(own), dict(total)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, (trace, parent, name, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "trace": trace, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


class _OpenSpan:
    __slots__ = ("recorder", "name", "start", "index")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_OpenSpan":
        recorder = self.recorder
        self.index = len(recorder.spans)
        recorder.record(self.name, 0.0, 0.0)  # placeholder, fixed on exit
        recorder._open.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        recorder = self.recorder
        recorder._open.pop()
        trace, parent, name, _, _ = recorder.spans[self.index]
        recorder.spans[self.index] = (trace, parent, name, self.start, end)


def verify_pair(
    recorder: SpanRecorder,
    config,
    threshold: float,
    t: float,
    left_record,
    right_record,
    left_side,
    right_side,
    stats: VerificationStats,
    assembler: Optional[PairGraphAssembler] = None,
) -> Optional[VerifiedPair]:
    """One candidate through lower bound, upper bound, assembly and Algorithm 1."""
    stats.candidates += 1
    record = recorder.record
    if threshold > 0.0:
        start = perf_counter()
        lower = singleton_greedy_lower_bound(left_side, right_side, config)
        end = perf_counter()
        record("lower_bound", start, end)
        if lower >= threshold:
            stats.lower_bound_skips += 1
        else:
            upper = usim_upper_bound(left_side, right_side, config, threshold=threshold)
            record("upper_bound", end, perf_counter())
            if upper < threshold:
                stats.upper_bound_prunes += 1
                return None
    stats.graphs_built += 1
    start = perf_counter()
    if assembler is not None:
        graph = assembler.build(right_side if assembler.probe_is_left else left_side)
    else:
        graph = build_conflict_graph_from_sides(left_side, right_side, config)
    end = perf_counter()
    record("assemble", start, end)
    result = approximate_usim_on_graph(graph, config, t=t)
    record("alg1", end, perf_counter())
    if result.ceiling_stopped:
        stats.ceiling_stops += 1
    else:
        stats.full_runs += 1
    if result.value >= threshold:
        stats.results += 1
        return VerifiedPair(left_record.record_id, right_record.record_id, result.value)
    return None


def verify_candidates(
    recorder: SpanRecorder, config, threshold: float, t: float, prepared, outcome
) -> Tuple[List[VerifiedPair], VerificationStats]:
    """Replay ``verify_batch`` on a self-join's filter outcome, serially.

    Candidates are walked in emission order; one ``PairGraphAssembler`` is
    built per run of candidates sharing the probe record, as the library
    does, and every ``graph_side`` lookup gets its own span.
    """
    stats = VerificationStats()
    pairs: List[VerifiedPair] = []
    probe_is_left = outcome.probe_side == "left"
    record = recorder.record
    current_probe = None
    assembler = None
    for left_id, right_id in outcome.candidates:
        start = perf_counter()
        left_side = prepared.graph_side(left_id)
        right_side = prepared.graph_side(right_id)
        end = perf_counter()
        record("graph_side", start, end)
        probe_id = left_id if probe_is_left else right_id
        if probe_id != current_probe:
            current_probe = probe_id
            assembler = PairGraphAssembler(
                left_side if probe_is_left else right_side,
                config,
                probe_is_left=probe_is_left,
            )
            record("assemble", end, perf_counter())
        pair = verify_pair(
            recorder, config, threshold, t,
            prepared[left_id], prepared[right_id], left_side, right_side,
            stats, assembler,
        )
        if pair is not None:
            pairs.append(pair)
    return pairs, stats
