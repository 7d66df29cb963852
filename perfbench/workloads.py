"""The three workloads: what each runs, times, checks and reports.

``join-dirty``
    Serial TJS self-joins (θ=0.7, τ=2) of dirty MED corpora, joined in
    turn: clean base records plus planted near-duplicates.  Verification
    does almost all the work (upper bound plus Algorithm 1), and the
    planted matches exercise the result path and the lower-bound tier.
    The parallel, store and index layers are bypassed.
``join-dirty-process``
    The same corpus and settings with ``executor="process"`` on one
    worker (see ``PROCESS_WORKERS``), default transport and supervision.
    The only workload where the parallel/pool/supervision layer does its
    work: shard plan, fork transport, worker verification and merge.  A verification speed-up
    should show on both join workloads.
``serve-mixed``
    A ``SimilarityIndex`` over MED records, driven by one closed-loop
    client with zero think time, in rounds of the same shape: threshold
    queries and top-3 queries on unseen probes, plus single-record adds and
    removes at a share that crosses the index's drift threshold about twice
    a round, so the re-signing stall lands in the tails.  Writes do signing
    work and no verification.  The only workload that uses the store (set-up snapshots
    and reloads the index) and the only long-lived one.

Every timed join starts from raw records after one untimed, cache-filling
warm-up join per corpus.  Correctness checks run outside the timed regions; every
operation and every check counts as attempted, and every mismatch or
exception as failed.
"""

from __future__ import annotations

import random
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from math import ceil
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.approximation import approximate_usim
from repro.join import (
    PebbleJoin,
    PreparedCollection,
    UnifiedJoin,
    VerificationStats,
    build_shard_plan,
    plan_payload_bytes,
)
from repro.records import RecordCollection
from repro.search import SimilarityIndex
from repro.store import PreparedStore
from repro.telemetry import get_default

from corpora import (
    DirtyCorpus, dirty_corpus, knowledge_base, serving_corpus, unseen_perturbations,
)
from speed import SpeedProbe
from tracing import SpanRecorder, verify_candidates, verify_pair

THETA = 0.7
TAU = 2
T = 4.0
MEASURES = "TJS"
TOPK = 3
#: Planted duplicates a join must recover at least half of.
MIN_RESULT_SHARE = 0.5


@dataclass(frozen=True)
class Sizes:
    join_clean: int = 32
    join_planted: int = 16
    variants: int = 4  # dirty corpora per join run
    members: int = 60
    #: A serving round: one probe of each read text, one add of each
    #: addition text and as many removes, so 48 reads and 32 writes.  The
    #: writes cross the drift threshold (a quarter of the members) about
    #: twice a round.
    round_reads: int = 48
    round_adds: int = 16
    #: Timed rounds every run completes, whatever the time.  Peak RSS and
    #: the traced work counters are read over this fixed amount of work (for
    #: serving, after the untimed warm-up round too), so they repeat exactly
    #: at one seed and do not follow the machine's speed.
    min_rounds: int = 2
    check_every: int = 40  # brute-force every k-th read
    serve_setups: int = 3
    pair_sample: int = 8  # join pairs re-checked against approximate_usim


BENCH = Sizes()
TINY = Sizes(
    join_clean=8, join_planted=4, variants=2, members=16, round_reads=6, round_adds=4,
    min_rounds=1, check_every=4, serve_setups=2, pair_sample=3,
)


@dataclass
class Outcome:
    """What one run reports: metrics, accounting and human-readable notes."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    sizes: Dict[str, int] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED check: {what}")

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# ---------------------------------------------------------------------- #
# shared helpers
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for pct in (90.0, 95.0, 99.0):
        if count * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


def describe(name: str, values: Sequence[float], unit: str) -> str:
    """``name: p50 … [pNN …] (n=…)`` for the report."""
    if not values:
        return f"{name}: no samples"
    text = f"{name}: p50 {statistics.median(values):.4f} {unit}"
    tail = tail_percentile(len(values))
    if tail is not None:
        text += f", p{tail:g} {percentile(values, tail):.4f} {unit}"
    return text + f" (n={len(values)})"


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Workers of ``join-dirty-process``.  One worker still runs the shard
#: plan, fork transport, worker-side filtering and verification,
#: supervision and merge, and keeps the parent plus its pool within the
#: two CPUs of the reference machine.  Two workers measured the scheduler:
#: with one busy process beside it, a two-worker join slowed from 0.74 s to
#: 1.09 s while a serial or one-worker join did not move (1.12 / 1.16 s).
PROCESS_WORKERS = 1


def scratch_dir() -> Path:
    """``.perfbench/`` at the checkout root: traces and temporary stores."""
    path = Path(__file__).resolve().parent.parent / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def fresh(records: RecordCollection) -> RecordCollection:
    """A new collection object over the same raw records."""
    return RecordCollection(list(records))


def pair_rows(pairs) -> List[Tuple[int, int, float]]:
    return [(p.left_id, p.right_id, p.similarity) for p in pairs]


def counters(stats: VerificationStats) -> Dict[str, int]:
    return asdict(stats)


def _finish(outcome: Outcome, probe: SpeedProbe, op_wall: List[float], op_cpu: List[float],
            scales: List[Tuple[float, float]], throughputs: List[float],
            setups: List[Tuple[float, float]], rss_mb: float, what: str) -> None:
    """The end-to-end metrics, every time scaled to the reference host speed.

    ``op_ms``/``op_cpu_ms`` are the medians of ``op_wall``/``op_cpu``, each
    sample times its entry of ``scales`` (wall scale, CPU scale);
    ``throughputs`` holds each round's operations per scaled second of
    operation time; ``setups`` holds (measured seconds, scale) per set-up.  Medians, because a round
    the host slowed more than the loop shows is an outlier, not a trend.
    The report lines keep the measured times.
    """
    outcome.put("setup_s", statistics.median(s * k for s, k in setups), "s")
    outcome.put("op_ms", 1000.0 * statistics.median(w * k[0] for w, k in zip(op_wall, scales)), "ms")
    outcome.put("op_cpu_ms", 1000.0 * statistics.median(c * k[1] for c, k in zip(op_cpu, scales)), "ms")
    outcome.put("ops_per_s", statistics.median(throughputs), "1/s")
    outcome.put("peak_rss_mb", rss_mb, "MB")
    outcome.notes.append(probe.describe([k[0] for k in scales] + [k for _, k in setups]))
    outcome.notes.append(describe(f"{what} wall, measured", [1000 * v for v in op_wall], "ms"))
    outcome.notes.append(describe(f"{what} cpu, measured", [1000 * v for v in op_cpu], "ms"))
    outcome.notes.append(describe("set-up, measured", [s for s, _ in setups], "s"))


# ---------------------------------------------------------------------- #
# joins
# ---------------------------------------------------------------------- #
class JoinVariant:
    """One dirty corpus and its reference (warm-up) join, timed as its set-up."""

    def __init__(self, corpus: DirtyCorpus, join: UnifiedJoin, probe: SpeedProbe) -> None:
        self.corpus = corpus
        self.records = corpus.records
        start = time.perf_counter()
        self.reference = join.join(fresh(self.records))
        self.setup_s = time.perf_counter() - start
        mark = probe.mark()
        probe.follow(self.setup_s)
        self.setup_scale = probe.scale(mark, probe.mark())
        self.rows = pair_rows(self.reference.pairs)
        self.stats = counters(self.reference.statistics.verification)


class JoinBench:
    """Corpora, engine and the untimed warm-up joins that are the references.

    A run joins ``sizes.variants`` dirty corpora in turn, each planting
    its own perturbations of the same base records, and times the round's
    mean join: a round sums many more heavy verifications than one corpus.
    Set-up is the engine's construction plus one corpus's warm-up join,
    taken as the median over the corpora: the first warm-up also fills
    the process-wide caches, so it is the slowest and the median is steady.
    """

    def __init__(self, seed: int, sizes: Sizes, outcome: Outcome) -> None:
        base = knowledge_base(sizes.join_clean)
        corpora = [
            dirty_corpus(base, sizes.join_clean, sizes.join_planted, k, seed * sizes.variants + k)
            for k in range(sizes.variants)
        ]
        self.sizes = sizes
        self.probe = SpeedProbe()
        start = time.perf_counter()
        self.join = UnifiedJoin(
            rules=base.rules, taxonomy=base.taxonomy, measures=MEASURES,
            theta=THETA, tau=TAU,
        )
        engine_s = time.perf_counter() - start
        self.variants = [JoinVariant(corpus, self.join, self.probe) for corpus in corpora]
        self.setups = [
            (v.setup_s + (engine_s if k == 0 else 0.0), v.setup_scale)
            for k, v in enumerate(self.variants)
        ]
        self.rss_mb = 0.0
        for number, variant in enumerate(self.variants):
            self._check_variant(number, variant, outcome)
        outcome.sizes.update(
            corpora=len(self.variants),
            records_per_corpus=len(self.variants[0].records),
            planted=sum(len(v.corpus.planted) for v in self.variants),
            results=sum(len(v.rows) for v in self.variants),
        )

    def _check_variant(self, number: int, variant: JoinVariant, outcome: Outcome) -> None:
        """Non-trivial results, and a sample re-verified by per-pair approximate_usim."""
        planted = variant.corpus.planted
        found = {(left, right) for left, right, _ in variant.rows}
        outcome.notes.append(
            f"corpus {number}: {len(variant.records)} records, {len(planted)} planted "
            f"duplicates ({sum(1 for pair in planted if pair in found)} recovered), "
            f"{len(variant.rows)} result pairs"
        )
        outcome.check(
            len(variant.rows) >= MIN_RESULT_SHARE * len(planted),
            f"corpus {number}: {len(variant.rows)} pairs for {len(planted)} planted",
        )
        rows = sorted(variant.rows)
        step = max(1, len(rows) // self.sizes.pair_sample)
        for left, right, similarity in rows[::step][: self.sizes.pair_sample]:
            value = approximate_usim(
                variant.records[left].tokens, variant.records[right].tokens,
                self.join.config, t=T,
            ).value
            outcome.check(value == similarity, f"pair ({left}, {right}) {value} != {similarity}")

    def timed_joins(self, seconds: float, outcome: Outcome, variants=None, **join_kwargs):
        """Rounds of joins from raw records, one per corpus, until ``seconds`` pass.

        Returns the per-join wall and CPU seconds, round by round (a join
        that raised leaves a ``None``), and each round's host-speed scales
        (wall, CPU).
        ``rss_mb`` is set to the peak resident set after ``min_rounds``
        rounds, a fixed amount of work.
        """
        variants = variants or self.variants
        rounds: List[List[Optional[Tuple[float, float]]]] = []
        scales: List[Tuple[float, float]] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(rounds) < self.sizes.min_rounds:
            mark = self.probe.mark()
            rounds.append([self._timed_join(v, outcome, join_kwargs) for v in variants])
            end = self.probe.mark()
            scales.append((self.probe.scale(mark, end), self.probe.scale(mark, end, cpu=True)))
            if len(rounds) == self.sizes.min_rounds:
                self.rss_mb = peak_rss_mb()
        return rounds, scales

    def _timed_join(self, variant: JoinVariant, outcome: Outcome, join_kwargs):
        records = fresh(variant.records)
        cpu0 = time.process_time() + children_cpu()
        start = time.perf_counter()
        try:
            result = self.join.join(records, **join_kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            outcome.check(False, f"join raised {exc!r}")
            return None
        timing = (time.perf_counter() - start, time.process_time() + children_cpu() - cpu0)
        self.probe.follow(timing[0])
        outcome.attempted += 1
        check_result(variant, result, outcome)
        return timing


def check_result(variant: JoinVariant, result, outcome: Outcome) -> None:
    outcome.check(pair_rows(result.pairs) == variant.rows, "join pairs differ from the reference")
    outcome.check(
        counters(result.statistics.verification) == variant.stats,
        "verification counters differ from the reference",
    )


def run_join(seed: int, seconds: float, sizes: Sizes, process: bool) -> Outcome:
    """One operation is a join; its time is averaged over a round of the corpora.

    A single corpus's join time moves about ±25% with its perturbations;
    the mean over a round of corpora moves far less, so the per-join
    metrics are medians over rounds of the round's mean.
    """
    outcome = Outcome()
    bench = JoinBench(seed, sizes, outcome)
    kwargs = {"executor": "process", "workers": PROCESS_WORKERS} if process else {}
    rounds, scales = bench.timed_joins(seconds, outcome, **kwargs)
    complete = [(r, k) for r, k in zip(rounds, scales) if None not in r]
    joins = [(t, k) for r, k in zip(rounds, scales) for t in r if t is not None]
    _finish(outcome, bench.probe,
            [statistics.mean(t[0] for t in r) for r, _ in complete],
            [statistics.mean(t[1] for t in r) for r, _ in complete],
            [k for _, k in complete],
            [len(r) / (k[0] * sum(t[0] for t in r)) for r, k in complete],
            bench.setups, bench.rss_mb, "round-mean join")
    outcome.notes.append(describe("single join wall, measured", [1000 * t[0] for t, _ in joins], "ms"))
    return outcome


# ---------------------------------------------------------------------- #
# traced joins
# ---------------------------------------------------------------------- #
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("prepared.prepare_s", "s"),
    ("signatures.sign_s", "s"),
    ("signatures.avg_len", "count"),
    ("filter.filter_s", "s"),
    ("filter.processed_pairs", "count"),
    ("filter.candidates", "count"),
    ("filter.pass_rate", "ratio"),
    ("verification.verify_s", "s"),
    ("verification.candidates", "count"),
    ("verification.results", "count"),
    ("verification.yield", "ratio"),
    ("graph.side_s", "s"),
    ("graph.lb_s", "s"),
    ("graph.lb_calls", "count"),
    ("graph.lb_skips", "count"),
    ("graph.ub_s", "s"),
    ("graph.ub_calls", "count"),
    ("graph.ub_prunes", "count"),
    ("graph.assemble_s", "s"),
    ("graph.graphs_built", "count"),
    ("graph.ub_tightness", "ratio"),
    ("approximation.alg1_s", "s"),
    ("approximation.ceiling_stops", "count"),
    ("approximation.full_runs", "count"),
    ("parallel.plan_s", "s"),
    ("parallel.payload_bytes", "bytes"),
    ("parallel.worker_cpu_s", "s"),
    ("parallel.efficiency", "ratio"),
    ("supervision.retries", "count"),
    ("supervision.fallback_shards", "count"),
    ("index.build_s", "s"),
    ("index.query_candidates", "count"),
    ("index.query_graphs", "count"),
    ("index.topk_bound_skipped", "count"),
    ("index.add_s", "s"),
    ("index.remove_s", "s"),
    ("index.reorders", "count"),
    ("index.resigned_records", "count"),
    ("index.query_p50_ms", "ms"),
    ("index.query_p90_ms", "ms"),
    ("index.topk_p50_ms", "ms"),
    ("index.topk_p90_ms", "ms"),
    ("index.write_p50_ms", "ms"),
    ("index.write_p90_ms", "ms"),
    ("store.snapshot_s", "s"),
    ("store.load_s", "s"),
    ("store.bytes", "bytes"),
    ("telemetry.retained_roots", "count"),
    ("trace.join_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _put_layers(outcome: Outcome, values: Dict[str, float]) -> None:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    for name, unit in LAYER_METRICS:
        outcome.put(name, values.get(name, 0.0), unit)


def _cascade_layers(stats: Dict[str, int], pairs_total: int) -> Dict[str, float]:
    """Per-tier work counters from a VerificationStats counter dict."""
    ub_calls = stats["candidates"] - stats["lower_bound_skips"]
    return {
        "filter.candidates": stats["candidates"],
        "filter.pass_rate": _ratio(stats["candidates"], pairs_total),
        "verification.candidates": stats["candidates"],
        "verification.results": stats["results"],
        "verification.yield": _ratio(stats["results"], stats["candidates"]),
        "graph.lb_calls": stats["candidates"],
        "graph.lb_skips": stats["lower_bound_skips"],
        "graph.ub_calls": ub_calls,
        "graph.ub_prunes": stats["upper_bound_prunes"],
        "graph.graphs_built": stats["graphs_built"],
        "graph.ub_tightness": _ratio(stats["results"], stats["graphs_built"]),
        "approximation.ceiling_stops": stats["ceiling_stops"],
        "approximation.full_runs": stats["full_runs"],
    }


def _median_of(per_run: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}


def traced_join(seed: int, seconds: float, sizes: Sizes, recorder: SpanRecorder) -> Outcome:
    """Untraced library joins, then stage-by-stage traced replays of them.

    The replay drives prepare, order + signing, ``filter_candidates`` and
    then the cascade tier by tier; it must reproduce the library join's
    pairs bit for bit and its ``VerificationStats`` exactly.
    """
    outcome = Outcome()
    bench = JoinBench(seed, sizes, outcome)
    variant = bench.variants[0]
    rounds, _ = bench.timed_joins(seconds / 2, outcome, variants=[variant])
    walls = [round_[0][0] for round_ in rounds if round_[0] is not None]
    config = bench.join.config
    engine = PebbleJoin(config, THETA, tau=TAU)
    n = len(variant.records)
    per_run: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds / 2
    while time.perf_counter() < deadline or not per_run:
        records = fresh(variant.records)
        trace = recorder.new_trace()
        with recorder.span("join"):
            with recorder.span("prepare"):
                prepared = PreparedCollection.prepare(records, config)
            with recorder.span("sign"):
                order = prepared.build_order(engine.order_strategy)
                signed = prepared.signed(order, THETA, TAU, engine.method)
            with recorder.span("filter"):
                outcome_f = engine.filter_candidates(
                    signed, signed, exclude_self_pairs=True, prepared=(prepared, prepared)
                )
            with recorder.span("verify"):
                pairs, stats = verify_candidates(recorder, config, THETA, T, prepared, outcome_f)
        outcome.attempted += 1
        outcome.check(pair_rows(pairs) == variant.rows, "replayed pairs differ from the join's")
        outcome.check(counters(stats) == variant.stats, "replayed counters differ from the join's")
        outcome.check(
            (len(outcome_f.candidates), outcome_f.processed_pairs)
            == (variant.reference.statistics.candidate_count,
                variant.reference.statistics.processed_pairs),
            "replayed filter counters differ from the join's",
        )
        own, total = recorder.summary(trace)
        join_s = total["join"]
        covered = sum(own.get(name, 0.0) for name in (
            "prepare", "sign", "filter", "graph_side", "lower_bound",
            "upper_bound", "assemble", "alg1",
        ))
        per_run.append({
            "prepared.prepare_s": own.get("prepare", 0.0),
            "signatures.sign_s": own.get("sign", 0.0),
            "filter.filter_s": own.get("filter", 0.0),
            "verification.verify_s": total["verify"],
            "graph.side_s": own.get("graph_side", 0.0),
            "graph.lb_s": own.get("lower_bound", 0.0),
            "graph.ub_s": own.get("upper_bound", 0.0),
            "graph.assemble_s": own.get("assemble", 0.0),
            "approximation.alg1_s": own.get("alg1", 0.0),
            "trace.join_s": join_s,
            "trace.uncovered_s": join_s - covered,
        })
    values = _median_of(per_run)
    values.update(_cascade_layers(counters(stats), n * (n - 1) // 2))
    values["filter.processed_pairs"] = outcome_f.processed_pairs
    values["signatures.avg_len"] = statistics.mean(s.signature_length for s in signed)
    values["trace.overhead_s"] = values["trace.join_s"] - statistics.median(walls)
    values["telemetry.retained_roots"] = len(get_default().tracer.roots)
    outcome.notes.append(
        f"traced join {values['trace.join_s']:.4f} s vs untraced "
        f"{statistics.median(walls):.4f} s; uncovered {values['trace.uncovered_s']:.4f} s "
        f"(n={len(per_run)} traced, {len(walls)} untraced)"
    )
    _put_layers(outcome, values)
    return outcome


def traced_process_join(seed: int, seconds: float, sizes: Sizes, recorder: SpanRecorder) -> Outcome:
    """Parent stages traced from outside; the workers through their own spans.

    Filtering and verification run inside the workers, where the benchmark
    cannot wrap calls: their seconds are the workers' ``filter`` / ``verify``
    spans that the library's default telemetry adopts into the parent's
    trace, their CPU time the reaped children's rusage, and their work the
    merged counters.
    """
    outcome = Outcome()
    bench = JoinBench(seed, sizes, outcome)
    variant = bench.variants[0]
    config = bench.join.config
    engine = PebbleJoin(config, THETA, tau=TAU)
    workers = PROCESS_WORKERS
    n = len(variant.records)
    per_run: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not per_run:
        trace = recorder.new_trace()
        with recorder.span("join"):
            with recorder.span("prepare"):
                prepared = bench.join.prepare(fresh(variant.records))
            with recorder.span("sign"):
                order = prepared.build_order(engine.order_strategy)
                signed = prepared.signed(order, THETA, TAU, engine.method)
            with recorder.span("plan"):
                plan = build_shard_plan(engine, prepared)
            children0 = children_cpu()
            with recorder.span("process_join"):
                result = bench.join.join(prepared, executor="process", workers=workers)
            worker_cpu = children_cpu() - children0
        outcome.attempted += 1
        check_result(variant, result, outcome)
        execution = result.statistics.execution
        _, total = recorder.summary(trace)
        in_workers: Dict[str, float] = defaultdict(float)
        for span in get_default().tracer.roots[-1].iter_spans():
            in_workers[span.name] += span.wall_seconds
        per_run.append({
            "filter.filter_s": in_workers["filter"],
            "verification.verify_s": in_workers["verify"],
            "prepared.prepare_s": total["prepare"],
            "signatures.sign_s": total["sign"],
            "parallel.plan_s": total["plan"],
            "parallel.worker_cpu_s": worker_cpu,
            "parallel.efficiency": _ratio(worker_cpu, workers * total["process_join"]),
        })
    values = _median_of(per_run)
    values.update(_cascade_layers(counters(result.statistics.verification), n * (n - 1) // 2))
    values["filter.processed_pairs"] = result.statistics.processed_pairs
    values["signatures.avg_len"] = statistics.mean(s.signature_length for s in signed)
    values["parallel.payload_bytes"] = plan_payload_bytes(plan)
    values["supervision.retries"] = execution.retries
    values["supervision.fallback_shards"] = execution.fallback_shards
    values["telemetry.retained_roots"] = len(get_default().tracer.roots)
    _put_layers(outcome, values)
    return outcome


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #
@dataclass
class ServedOp:
    kind: str
    trace: int
    wall: float
    cpu: float
    result: object
    live: int


def balance_writes(requests: List[Tuple[str, Optional[str]]]) -> None:
    """Swap adds forward so no prefix of a round removes more than it added.

    A remove then always retires a record added during the run, and the
    live corpus stays the base members plus a few recent additions.
    """
    pending = 0
    for position, (kind, _) in enumerate(requests):
        if kind == "add":
            pending += 1
        elif kind == "remove" and pending:
            pending -= 1
        elif kind == "remove":
            later = next(j for j in range(position + 1, len(requests)) if requests[j][0] == "add")
            requests[position], requests[later] = requests[later], requests[position]
            pending += 1


class ServeBench:
    """Set-up (cold build, snapshot, load, several times) and the client.

    The client serves rounds of requests on one long-lived index.  Round
    ``k`` probes the ``k``-th never-seen perturbation of each of the
    corpus's fixed read texts (two of every three as threshold queries, the
    third as top-3 queries), adds one perturbation of each addition text,
    and removes as many records as it adds, in an order shuffled by the
    seed.  Round 0 fills the index's lazily built caches and is not timed.
    """

    def __init__(self, seed: int, sizes: Sizes, outcome: Outcome,
                 recorder: Optional[SpanRecorder] = None) -> None:
        self.base = knowledge_base(sizes.members)
        self.corpus = serving_corpus(self.base, sizes.members, sizes.round_reads, sizes.round_adds)
        self.config = UnifiedJoin(
            rules=self.base.rules, taxonomy=self.base.taxonomy, measures=MEASURES
        ).config
        self.sizes = sizes
        self.seed = seed
        self.recorder = recorder
        self.rounds: List[List[ServedOp]] = []
        self.seen = set(self.corpus.members.texts()) | {""}
        self.pending: List[int] = []  # added during the run, not yet removed
        self.reads = 0
        self.rss_mb = 0.0
        self.probe = SpeedProbe()
        outcome.sizes.update(
            members=len(self.corpus.members), reads_per_round=len(self.corpus.read_texts),
            adds_per_round=len(self.corpus.addition_texts),
        )
        self.steps: Dict[str, List[float]] = {"build": [], "snapshot": [], "load": []}
        self.setups: List[Tuple[float, float]] = []
        self.scales: List[Tuple[float, float]] = []  # (wall, CPU) per round
        self.store_dir = Path(tempfile.mkdtemp(dir=scratch_dir()))
        try:
            for rep in range(sizes.serve_setups):
                store = PreparedStore(self.store_dir / f"setup{rep}")
                start = time.perf_counter()
                self.index = self._setup(store)
                setup_s = time.perf_counter() - start
                mark = self.probe.mark()
                self.probe.follow(setup_s)
                self.setups.append((setup_s, self.probe.scale(mark, self.probe.mark())))
                self.store_bytes = store.total_bytes()
        except BaseException:
            self.close()
            raise

    def _setup(self, store: PreparedStore) -> SimilarityIndex:
        start = time.perf_counter()
        index = SimilarityIndex(fresh(self.corpus.members), self.config, theta=THETA, tau=TAU)
        built = time.perf_counter()
        index.snapshot(store)
        snapped = time.perf_counter()
        loaded = SimilarityIndex.load(store, index.content_fingerprint())
        self.steps["build"].append(built - start)
        self.steps["snapshot"].append(snapped - built)
        self.steps["load"].append(time.perf_counter() - snapped)
        return loaded

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def brute_force(self, probe: str) -> List[Tuple[int, float]]:
        """Every live member with approximate_usim ≥ θ, by per-pair reference."""
        tokens = RecordCollection.from_strings([probe])[0].tokens
        found = []
        for member_id in self.index.live_ids():
            value = approximate_usim(
                tokens, self.index.prepared[member_id].tokens, self.config, t=T
            ).value
            if value >= THETA:
                found.append((member_id, value))
        return found

    def serve(self, seconds: float, outcome: Outcome) -> None:
        """Rounds until ``seconds`` pass and ``min_rounds`` timed rounds ran.

        ``rss_mb`` is the peak resident set once the warm-up and the first
        ``min_rounds`` timed rounds are done: a fixed amount of work, so it
        does not follow the machine's speed.
        """
        start = time.perf_counter()
        counted = 1 + self.sizes.min_rounds
        while time.perf_counter() - start < seconds or len(self.rounds) < counted:
            mark = self.probe.mark()
            self.rounds.append(self._serve_round(len(self.rounds), outcome))
            end = self.probe.mark()
            self.scales.append((self.probe.scale(mark, end), self.probe.scale(mark, end, cpu=True)))
            if len(self.rounds) == counted:
                self.rss_mb = peak_rss_mb()

    def _requests(self, number: int, rng: random.Random) -> List[Tuple[str, Optional[str]]]:
        """Round ``number``'s requests, perturbed and shuffled outside the timed region."""
        probes = unseen_perturbations(self.base, self.corpus.read_texts, 2 * number, self.seen)
        additions = unseen_perturbations(
            self.base, self.corpus.addition_texts, 2 * number + 1, self.seen
        )
        requests: List[Tuple[str, Optional[str]]] = [
            ("topk" if position % 3 == 2 else "query", probe)
            for position, probe in enumerate(probes) if probe is not None
        ]
        adds = [("add", text) for text in additions if text is not None]
        requests += adds + [("remove", None)] * len(adds)
        rng.shuffle(requests)
        balance_writes(requests)
        return requests

    def _serve_round(self, number: int, outcome: Outcome) -> List[ServedOp]:
        index = self.index
        recorder = self.recorder
        rng = random.Random(self.seed * 1009 + number)
        ops: List[ServedOp] = []
        for kind, argument in self._requests(number, rng):
            if kind == "remove":
                if not self.pending:  # an add of this round failed, and counted
                    continue
                argument = self.pending.pop(rng.randrange(len(self.pending)))
            live = index.live_count
            trace = recorder.new_trace() if recorder else -1
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                with recorder.span(kind) if recorder else nullcontext():
                    if kind == "query":
                        result = index.query(argument)
                    elif kind == "topk":
                        result = index.query_topk(argument, TOPK)
                    elif kind == "add":
                        result = index.add([argument])
                    else:
                        result = index.remove([argument])
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                outcome.check(False, f"{kind} raised {exc!r}")
                continue
            wall = time.perf_counter() - start
            ops.append(ServedOp(kind, trace, wall, time.process_time() - cpu0, result, live))
            self.probe.follow(wall)
            outcome.attempted += 1
            if kind in ("query", "topk"):
                self.reads += 1
                if self.reads % self.sizes.check_every == 0:
                    self._check_answer(kind, argument, result, outcome)
            elif kind == "add":
                outcome.check(len(result) == 1 and result[0] in index, "add lost its record")
                self.pending.extend(result)
        return ops

    def _check_answer(self, kind: str, probe: str, result, outcome: Outcome) -> None:
        expected = self.brute_force(probe)
        got = [(match.record_id, match.similarity) for match in result.matches]
        if kind == "topk":
            expected = sorted(expected, key=lambda item: (-item[1], item[0]))[:TOPK]
            outcome.check(got == expected, f"top-{TOPK} answer differs from brute force")
        else:
            outcome.check(sorted(got) == sorted(expected), "query answer differs from brute force")

    def timed_ops(self) -> List[ServedOp]:
        return [op for round_ in self.rounds[1:] for op in round_]

    def timed_scales(self) -> List[Tuple[float, float]]:
        """The host-speed scales of each of :meth:`timed_ops`, its round's."""
        return [k for round_, k in zip(self.rounds[1:], self.scales[1:]) for _ in round_]

    def latencies(self, *kinds: str) -> List[float]:
        return [op.wall for op in self.timed_ops() if op.kind in kinds]


def run_serve(seed: int, seconds: float, sizes: Sizes) -> Outcome:
    """``op_ms`` is the median read latency; ``ops_per_s`` counts every request.

    The median of the reads is set by the bulk of them, filtering and the
    bounds, and barely moves with the rounds a run reaches.  The mean
    follows the few reads that run Algorithm 1 on large graphs: in one run
    the mean request took 79 ms over the first two rounds and 64 ms over
    the first eight.
    """
    outcome = Outcome()
    bench = ServeBench(seed, sizes, outcome)
    try:
        bench.serve(seconds, outcome)
    finally:
        bench.close()
    reads = [(op, k) for op, k in zip(bench.timed_ops(), bench.timed_scales())
             if op.kind in ("query", "topk")]
    _finish(outcome, bench.probe, [op.wall for op, _ in reads], [op.cpu for op, _ in reads],
            [k for _, k in reads],
            [len(r) / (k[0] * sum(op.wall for op in r))
             for r, k in zip(bench.rounds[1:], bench.scales[1:]) if r],
            bench.setups, bench.rss_mb, "read")
    for label, kinds in (("query", ("query",)), ("topk", ("topk",)),
                         ("write", ("add", "remove"))):
        outcome.notes.append(describe(label, [1000 * v for v in bench.latencies(*kinds)], "ms"))
    index = bench.index
    outcome.notes.append(
        f"index: {len(bench.rounds)} rounds (the first untimed), {index.reorder_count} "
        f"re-orders, {index.resigned_records} records re-signed, {index.live_count} live "
        "members at the end"
    )
    outcome.check(index.reorder_count >= 1, "the drift threshold was never crossed")
    return outcome


def _timed(recorder: SpanRecorder, name: str, function: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return function(*args, **kwargs)
    return wrapper


def traced_serve(seed: int, seconds: float, sizes: Sizes, recorder: SpanRecorder) -> Outcome:
    """Set-up steps and requests get spans; verification runs through the replay.

    The loaded index's verifier entry point ``verify_prepared_pair`` and
    its corpus's ``graph_side`` / ``extend_with`` are wrapped on the
    instances, so every cascade tier a request reaches is timed from
    outside.  Work counters cover the warm-up round and the first
    ``min_rounds`` timed rounds only, which makes them repeat exactly at
    one seed.
    """
    outcome = Outcome()
    bench = ServeBench(seed, sizes, outcome, recorder)
    index = bench.index
    verifier = index.verifier
    prepared = index.prepared
    config = index.config

    def verify_prepared_pair(left_record, right_record, left_side, right_side, stats=None):
        with recorder.span("verify_pair"):
            pair = verify_pair(
                recorder, config, verifier.threshold, verifier.t, left_record,
                right_record, left_side, right_side,
                verifier.stats if stats is None else stats,
            )
        if stats is None:
            verifier.verified_count += 1
        return pair

    verifier.verify_prepared_pair = verify_prepared_pair
    prepared.graph_side = _timed(recorder, "graph_side", prepared.graph_side)
    prepared.extend_with = _timed(recorder, "prepare", prepared.extend_with)
    try:
        bench.serve(seconds, outcome)
    finally:
        bench.close()

    counted = [op for round_ in bench.rounds[: 1 + sizes.min_rounds] for op in round_]
    own: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    cascade = VerificationStats()
    reads = [op for op in counted if op.kind in ("query", "topk")]
    for op in counted:
        op_own, op_total = recorder.summary(op.trace)
        for name, value in op_own.items():
            own[name] += value
        for name, value in op_total.items():
            total[name] += value
        if op.kind in ("query", "topk"):
            cascade.merge(op.result.verification)
    adds = [recorder.summary(op.trace)[1] for op in bench.timed_ops() if op.kind == "add"]
    candidates = sum(op.result.candidate_count for op in reads)
    values: Dict[str, float] = _cascade_layers(counters(cascade), 0)
    values.update({
        "prepared.prepare_s": statistics.median(a.get("prepare", 0.0) for a in adds) if adds else 0.0,
        "signatures.sign_s": statistics.median(
            a["add"] - a.get("prepare", 0.0) for a in adds) if adds else 0.0,
        "filter.processed_pairs": sum(op.result.processed_pairs for op in reads),
        "filter.candidates": candidates,
        "filter.pass_rate": _ratio(candidates, sum(op.live for op in reads)),
        "verification.verify_s": total["verify_pair"],
        "graph.side_s": own["graph_side"],
        "graph.lb_s": own["lower_bound"],
        "graph.ub_s": own["upper_bound"],
        "graph.assemble_s": own["assemble"],
        "approximation.alg1_s": own["alg1"],
        "index.build_s": statistics.median(bench.steps["build"]),
        "index.query_candidates": candidates,
        "index.query_graphs": cascade.graphs_built,
        "index.topk_bound_skipped": sum(op.result.bound_skipped for op in reads),
        "index.add_s": statistics.median(bench.latencies("add") or [0.0]),
        "index.remove_s": statistics.median(bench.latencies("remove") or [0.0]),
        "index.reorders": index.reorder_count,
        "index.resigned_records": index.resigned_records,
        "store.snapshot_s": statistics.median(bench.steps["snapshot"]),
        "store.load_s": statistics.median(bench.steps["load"]),
        "store.bytes": bench.store_bytes,
        "telemetry.retained_roots": len(get_default().tracer.roots),
    })
    for label, kinds in (("query", ("query",)), ("topk", ("topk",)),
                         ("write", ("add", "remove"))):
        latencies = bench.latencies(*kinds)
        if latencies:
            values[f"index.{label}_p50_ms"] = 1000 * percentile(latencies, 50)
            values[f"index.{label}_p90_ms"] = 1000 * percentile(latencies, 90)
    _put_layers(outcome, values)
    return outcome


WORKLOADS = {
    "join-dirty": (partial(run_join, process=False), traced_join),
    "join-dirty-process": (partial(run_join, process=True), traced_process_join),
    "serve-mixed": (run_serve, traced_serve),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = BENCH, recorder: Optional[SpanRecorder] = None) -> Outcome:
    """One run of a workload: end-to-end metrics, or per-layer ones when traced."""
    untraced, traced = WORKLOADS[name]
    if trace:
        return traced(seed, seconds, sizes, recorder or SpanRecorder())
    return untraced(seed, seconds, sizes)
