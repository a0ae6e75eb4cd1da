"""Seeded inputs: one generated KB file plus the request lists replayed on it.

The system under test only ever sees what this module writes: an
N-Triples KB produced by ``remi generate`` (turned into a KB image with
``remi build-image`` for the serving workloads) and request payloads.
The KB and the serving catalogue are fixed data (``DATA_SEED``); every
request is drawn from ``random.Random`` seeded by the benchmark's
``--seed``, so one seed always yields the same inputs.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: The paper's evaluation classes (Table 4 draws its sets from them).
CLASSES = ("Person", "Settlement", "Album", "Film", "Organization")
#: Table 4 protocol: 1, 2 or 3 same-class entities at 50/30/20 %.
SET_SIZES = (1, 2, 3)
SET_WEIGHTS = (0.5, 0.3, 0.2)
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
#: Namespace of the objects minted for churn updates (never in a KB).
CHURN_NS = "http://perfbench.example.org/churn/"


def remi(src: Path, *args: str) -> None:
    """Run one ``remi`` subcommand from the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"remi {args[0]} failed: {done.stderr.strip()}")


#: Fixed data, like the paper's DBpedia dump: the KB and the serving
#: catalogue (its sets and their popularity order) come from this seed in
#: every run; ``--seed`` draws the traffic.  On a 2-vCPU VM, per-seed KBs
#: moved batch-cold throughput by ±17 %, and per-seed catalogues moved
#: serve-hot throughput 391–884 req/s, because a few sets cost 10–100×
#: the median and Zipf rank 1 alone takes 18 % of the reads.
DATA_SEED = 42


def generate_kb(src: Path, workdir: Path, scale: float) -> Path:
    """``remi generate --kind dbpedia`` into *workdir*; returns the .nt path."""
    path = workdir / "kb.nt"
    remi(src, "generate", "--kind", "dbpedia", "--scale", str(scale),
         "--seed", str(DATA_SEED), "--out", str(path))
    return path


def build_image(src: Path, nt_path: Path) -> Path:
    """``remi build-image`` next to the N-Triples file."""
    path = nt_path.with_suffix(".img")
    remi(src, "build-image", str(nt_path), str(path))
    return path


@dataclass
class KbFacts:
    """What the load generator knows about the KB it generated."""

    triples: list
    instances: Dict[str, List[str]]
    frequency: Counter
    predicates: List[str]


def read_kb(nt_path: Path) -> KbFacts:
    """Parse the generated KB once: class instance lists (in file order),
    entity frequencies and the predicate list."""
    from repro.kb.ntriples import iter_ntriples_file
    from repro.kb.terms import IRI

    triples = list(iter_ntriples_file(nt_path))
    instances: Dict[str, List[str]] = {cls: [] for cls in CLASSES}
    frequency: Counter = Counter()
    predicates = set()
    for t in triples:
        predicate = str(t.predicate)
        predicates.add(predicate)
        if isinstance(t.subject, IRI):
            frequency[str(t.subject)] += 1
        if isinstance(t.object, IRI):
            frequency[str(t.object)] += 1
        if predicate == RDF_TYPE:
            cls = str(t.object).rsplit("/", 1)[-1]
            if cls in instances:
                instances[cls].append(str(t.subject))
    return KbFacts(triples, instances, frequency, sorted(predicates - {RDF_TYPE}))


def table4_set(pools: Dict[str, List[str]], rng: random.Random) -> List[str]:
    """One Table 4 target set: a class, a size, then distinct members."""
    members = pools[rng.choice(CLASSES)]
    size = rng.choices(SET_SIZES, weights=SET_WEIGHTS)[0]
    return rng.sample(members, min(size, len(members)))


def batch_sets(facts: KbFacts, count: int, rng: random.Random) -> List[List[str]]:
    """batch-cold: sets drawn from each class's full instance list."""
    return [table4_set(facts.instances, rng) for _ in range(count)]


def catalogue(facts: KbFacts, size: int, pool: int) -> List[List[str]]:
    """serve-*: *size* distinct sets over each class's *pool* most
    frequent entities (the popular part of the KB), most popular first."""
    rng = random.Random(DATA_SEED)
    pools = {
        cls: sorted(members, key=lambda e: (-facts.frequency[e], e))[:pool]
        for cls, members in facts.instances.items()
    }
    seen = set()
    sets: List[List[str]] = []
    while len(sets) < size:
        targets = table4_set(pools, rng)
        key = frozenset(targets)
        if key not in seen:
            seen.add(key)
            sets.append(targets)
    return sets


class Zipf:
    """Popularity-ranked sampling: rank r is drawn with weight 1 / r^s."""

    def __init__(self, n: int, exponent: float, rng: random.Random):
        self.rng = rng
        self.cumulative = list(accumulate(1.0 / (rank ** exponent) for rank in range(1, n + 1)))

    def __call__(self) -> int:
        point = self.rng.random() * self.cumulative[-1]
        return bisect_left(self.cumulative, point)


def zipf_stream(count: int, n: int, exponent: float, rng: random.Random) -> List[int]:
    """*count* catalogue indices, index i drawn with Zipf rank i + 1."""
    sample = Zipf(n, exponent, rng)
    return [sample() for _ in range(count)]


def churn_triples(
    facts: KbFacts, sets: Sequence[Sequence[str]], count: int, rng: random.Random
) -> List[Tuple[str, str, str]]:
    """*count* fresh triples, each about a catalogue entity: an existing
    predicate pointing at a newly minted IRI, so every add changes the KB
    (and the frequencies the Ĉ codes are built from) until its delete."""
    entities = sorted({e for targets in sets for e in targets})
    return [
        (rng.choice(entities), rng.choice(facts.predicates), f"{CHURN_NS}{rng.getrandbits(48):012x}")
        for _ in range(count)
    ]


def mine_payload(request_id: str, targets: Sequence[str]) -> Dict:
    return {"type": "mine", "id": request_id, "targets": list(targets)}


def churn_update(k: int, triples: Sequence[Sequence[str]], tag: str = "u") -> Dict:
    """The *k*-th update of the churn cycle: updates alternate add and
    delete, each add undone by the very next update, cycling over
    *triples*, so the KB is back at its start after every even count."""
    triple = triples[(k // 2) % len(triples)]
    return {"type": "update", "id": f"{tag}{k}", "op": "add" if k % 2 == 0 else "delete",
            "triple": list(triple)}
