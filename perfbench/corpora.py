"""Seeded inputs of the benchmark, built only from public ``repro.datasets`` APIs.

The knowledge sources (taxonomy, synonym rules), the records and their
perturbations are generated from fixed seeds; ``--seed`` orders them: the
records of each join corpus, the requests of each serving round and the
records the serving client removes.  The records are fixed because a few
heavy ones dominate the cost: with a seed-dependent clean corpus the median
join time moved 1.2-3.6 s across six seeds at 60 records.  The
perturbations are fixed because the cost of verifying one is heavy-tailed:
over the rounds of one serving run, the conflict graphs built per 48 reads
ranged 37-92 and the reads took 2.4-5.2 s, a spread that a run of seconds
cannot average away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import random
from typing import List, Optional, Sequence, Set, Tuple

from repro.datasets import (
    MED_PROFILE,
    SyntheticDataset,
    generate_dataset,
    generate_ground_truth,
    generate_records,
)
from repro.records import RecordCollection

#: Seed of the knowledge sources and of the clean base records.
CORPUS_SEED = 0
#: Record seed disjoint from the base: the foreign probe and added records.
FOREIGN_SEED = 1_000_003
#: Perturbation seeds tried per text before it is left out of a round.
PERTURBATION_ATTEMPTS = 8


@lru_cache(maxsize=None)
def knowledge_base(clean: int) -> SyntheticDataset:
    """The fixed MED-profile knowledge sources plus ``clean`` base records.

    ``generate_records`` draws records sequentially from one RNG, so the
    first ``k`` records are the same whatever ``clean`` is: the join and
    serving workloads share one base and differ only in how much of it they
    use.
    """
    return generate_dataset(MED_PROFILE, count=clean, seed=CORPUS_SEED)


def _perturbed_copy(base: SyntheticDataset, text: str, seed: int) -> str:
    """One ``generate_ground_truth`` positive of a single record, or ``""``."""
    single = SyntheticDataset(
        profile=base.profile,
        records=RecordCollection.from_strings([text]),
        taxonomy=base.taxonomy,
        rules=base.rules,
    )
    truth = generate_ground_truth(single, positive_pairs=1, negative_pairs=0, seed=seed)
    positives = truth.positives()
    return positives[0].right.text if positives else ""


@dataclass(frozen=True)
class DirtyCorpus:
    """Clean base records and planted near-duplicates, in a seeded order."""

    records: RecordCollection
    planted: Tuple[Tuple[int, int], ...]  # (smaller id, larger id) of each planted pair


def dirty_corpus(
    base: SyntheticDataset, clean: int, planted: int, variant: int, order_seed: int
) -> DirtyCorpus:
    """The first ``clean`` base records plus one perturbed copy of each of
    the first ``planted`` of them (typo, synonym and taxonomy substitutions
    mixed as ``generate_ground_truth`` mixes them), shuffled by ``order_seed``.

    ``variant`` picks the perturbations, so corpus ``k`` holds the same
    records in every run and only their order, and so their ids, varies.
    """
    texts = base.records.texts()[:clean]
    pairs: List[Tuple[int, int]] = []
    for base_id in range(planted):
        copy = _perturbed_copy(base, texts[base_id], variant * 100_003 + base_id)
        if copy:
            pairs.append((base_id, len(texts)))
            texts.append(copy)
    order = list(range(len(texts)))
    random.Random(order_seed).shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    return DirtyCorpus(
        RecordCollection.from_strings([texts[old] for old in order]),
        tuple(sorted(
            (min(new_id[a], new_id[b]), max(new_id[a], new_id[b])) for a, b in pairs
        )),
    )


@dataclass(frozen=True)
class ServingCorpus:
    """The members of the index and the fixed texts the client perturbs.

    ``read_texts`` alternate members with records of a disjoint seed; round
    ``k`` of the client probes the ``k``-th unseen perturbation of every one
    of them.  ``addition_texts`` are foreign records; each round adds one
    fresh perturbation of every one of them.
    """

    members: RecordCollection
    read_texts: Tuple[str, ...]
    addition_texts: Tuple[str, ...]


def serving_corpus(base: SyntheticDataset, members: int, reads: int, additions: int) -> ServingCorpus:
    """Fixed texts: every run and every round works on the same records.

    Only their perturbations vary, with the round, as ``dirty_corpus``
    plants copies of the same base records: with freshly drawn probe records
    the median request moved by a third between seeds, following the
    lengths of the records drawn.
    """
    member_texts = base.subset(members).records.texts()
    half = reads // 2
    foreign = generate_records(
        base.profile, base.taxonomy, base.rules, count=half + additions, seed=FOREIGN_SEED
    ).texts()
    chosen = [member_texts[i * members // (reads - half)] for i in range(reads - half)]
    read_texts: List[str] = []
    for position in range(reads):
        source = chosen if position % 2 == 0 else foreign
        read_texts.append(source[position // 2])
    return ServingCorpus(
        members=base.subset(members).records,
        read_texts=tuple(read_texts),
        addition_texts=tuple(foreign[half:half + additions]),
    )


def unseen_perturbations(
    base: SyntheticDataset, texts: Sequence[str], seed: int, seen: Set[str]
) -> List[Optional[str]]:
    """One perturbation of each text that is not in ``seen``, added to it.

    ``None`` stands for a text whose perturbations all repeat one seen
    before; the list stays aligned with ``texts``.
    """
    fresh: List[Optional[str]] = []
    for position, text in enumerate(texts):
        copy = None
        for attempt in range(PERTURBATION_ATTEMPTS):
            candidate = _perturbed_copy(
                base, text, (seed * 1_000_003 + position) * PERTURBATION_ATTEMPTS + attempt
            )
            if candidate not in seen:
                seen.add(candidate)
                copy = candidate
                break
        fresh.append(copy)
    return fresh
