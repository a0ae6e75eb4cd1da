"""The three workloads: batch-cold, serve-hot and serve-churn.

Every loop is closed: a REMI caller waits for each description before it
asks for the next, so a slower system receives less load.

* **batch-cold** — ``batch_child.py`` (the service façade in its own
  process) mines Table 4 sets drawn from each class's full instance list,
  each set once, one caller, in passes of ``batch_pass_sets`` sets, each
  pass in a freshly started process.  The working set overflows the
  matcher's LRU, so the candidate build and the DFS do the work; the TCP
  server and the worker pipe are bypassed.
* **serve-hot** — ``remi serve IMAGE --workers 2 --warm-up``, two
  connections, reads only, Zipf popularity over a catalogue of sets of
  popular entities, warmed on both replicas before timing.  Caches fit,
  so the front door and the pipe carry their largest share.
* **serve-churn** — the same fleet and catalogue plus one update per
  ``update_every`` reads: a fresh triple about a catalogue entity is
  added, and deleted by the next update, so the KB ends where it began.
  Each update rolls the MVCC session, fans out to the replicas and
  leaves cold caches behind.

Latencies are of decided reads: a read that ran out the miner deadline
is counted in ``unknown_share``, not folded into ``p50_ms``/``p99_ms``.

The read-only workloads finish with a write probe after the timed phase
(add/delete pairs on the same process or fleet), so ``update_p50_ms`` is
printed for every workload; on serve-churn it comes from the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from inputs import (
    KbFacts,
    batch_sets,
    build_image,
    catalogue,
    churn_triples,
    churn_update,
    generate_kb,
    mine_payload,
    read_kb,
    zipf_stream,
)
from reference import LazyReference, Reference, first_divergence, reply_answer, spurious_verdict
from sut import BatchProcess, Conn, Fleet, vm_rss_mb


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SHORT`` shrinks everything for the self-test."""

    batch_scale: float = 4.0
    serve_scale: float = 2.0
    #: Per-request miner deadline (seconds) on batch-cold: each set that
    #: has no RE runs it out, so it bounds what those sets cost a run.
    batch_deadline: float = 0.1
    #: Per-request miner deadline (seconds) on serve-*: every catalogue
    #: set is decided, and the first read after an update pays a cold
    #: session (150–250 ms on a 2-vCPU VM) inside it; under 0.1 s those
    #: reads came back unknown, 4.5 % of serve-churn's reads.
    serve_deadline: float = 1.0
    catalogue: int = 128
    popular_pool: int = 30
    zipf_exponent: float = 1.0
    #: One update per this many reads on serve-churn (the repo's 1:50 serving mix).
    update_every: int = 50
    churn_triples: int = 2
    probe_pairs: int = 3
    batch_probe_pairs: int = 200
    #: batch-cold mines its sets in passes of this many, each pass in a
    #: fresh SUT process: the caches that fill as a run goes on (a pass
    #: runs ~20 % faster at its end than at its start) then hold the same
    #: work in every run, however fast the host is.
    batch_pass_sets: int = 2000
    #: At least this many SUT starts (and batch-cold passes) per run.
    setup_starts: int = 5
    #: At most this many batch-cold passes, however fast they are.
    max_passes: int = 14
    workers: int = 2
    connections: int = 2

    def deadline_for(self, workload: str) -> float:
        return self.batch_deadline if workload == "batch-cold" else self.serve_deadline


FULL = Sizes()
SHORT = Sizes(batch_scale=0.5, serve_scale=0.5, catalogue=24, popular_pool=10,
              update_every=20, probe_pairs=1, batch_probe_pairs=2, batch_pass_sets=200,
              setup_starts=1, max_passes=2)


@dataclass
class Outcome:
    """What one run measured, before it becomes the JSON line."""

    workload: str
    facts: Dict[str, object] = field(default_factory=dict)
    setup: List[float] = field(default_factory=list)
    #: One per timed block (a batch-cold pass, or a serve-* timed phase).
    blocks: List["Block"] = field(default_factory=list)
    updates: List[float] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    reads_attempted: int = 0
    unknown: int = 0
    #: Unknowns on sets the reference decided in under half the deadline.
    spurious_unknown: int = 0
    errors: int = 0
    error_codes: Dict[str, int] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)
    fleet: Dict[str, object] = field(default_factory=dict)

    def error(self, code: str) -> None:
        self.errors += 1
        self.error_codes[code] = self.error_codes.get(code, 0) + 1

    def failed(self, record: Dict) -> None:
        """Count an error envelope under its error code."""
        self.error(record.get("error", {}).get("code", "?"))


@dataclass
class Block:
    """One timed block: its decided-read latencies (s), the requests it
    completed, its wall time (s) and the SUT's summed RSS (MB) at its end."""

    reads: List[float]
    completed: int
    wall: float
    rss_mb: float


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def pair_means(updates: Sequence[float]) -> List[float]:
    """Updates come in add/delete pairs whose halves cost differently (on
    the façade alone a delete takes about twice an add), so a median over
    single updates flips between the two; the median is taken over pairs."""
    return [(updates[k] + updates[k + 1]) / 2 for k in range(0, len(updates) - 1, 2)]


def metrics(outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, by name: (value, unit).  ``setup_s`` and
    ``rss_mb`` are medians over the run's set-ups and timed blocks; the
    latencies and throughput pool every timed block, so that a run's few
    costly sets (10–100× the median) weigh in by their share of the whole
    run, not of one block.  Latencies are of decided reads only; reads
    that ran out the deadline are counted in ``unknown_share`` instead."""
    blocks = outcome.blocks
    reads = [latency for b in blocks for latency in b.reads]
    return {
        "setup_s": (statistics.median(outcome.setup), "s"),
        "p50_ms": (statistics.median(reads) * 1000, "ms"),
        "p99_ms": (percentile(reads, 99) * 1000, "ms"),
        "throughput_rps": (sum(b.completed for b in blocks) / sum(b.wall for b in blocks), "req/s"),
        "rss_mb": (statistics.median(b.rss_mb for b in blocks), "MB"),
    }


def printed(outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """Reported beside the metrics but bound by no regression gate: the
    failure shares of the attempted requests are zero on a healthy run,
    and a façade update takes 20–40 µs, whose median moved 0.018–0.038 ms
    between runs of one build on a 2-vCPU VM."""
    attempted = max(outcome.attempted, 1)
    return {
        "update_p50_ms": (statistics.median(pair_means(outcome.updates)) * 1000, "ms"),
        "unknown_share": (outcome.unknown / attempted, "ratio"),
        "error_share": (outcome.errors / attempted, "ratio"),
    }


def gate_unknowns(outcome: Outcome) -> None:
    verdict = spurious_verdict(outcome.spurious_unknown, outcome.reads_attempted)
    if verdict is not None:
        outcome.divergences.append(verdict)


def write_jsonl(path: Path, payloads) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for payload in payloads:
            out.write(json.dumps(payload) + "\n")


def churn_updates(triples: Sequence[Sequence[str]], pairs: int, tag: str) -> List[Dict]:
    """*pairs* add/delete pairs of the churn cycle."""
    return [churn_update(k, triples, tag) for k in range(2 * pairs)]


# ----------------------------------------------------------------------
# batch-cold
# ----------------------------------------------------------------------


@dataclass
class BatchInputs:
    nt: Path
    facts: KbFacts
    sets: List[List[str]]
    probe: List[Dict]


def batch_inputs(src: Path, workdir: Path, seed: int, sizes: Sizes) -> BatchInputs:
    nt = generate_kb(src, workdir, sizes.batch_scale)
    facts = read_kb(nt)
    rng = random.Random(seed)
    sets = batch_sets(facts, sizes.batch_pass_sets * sizes.max_passes, rng)
    probe_triples = churn_triples(facts, sets[:64], 2, rng)
    return BatchInputs(nt, facts, sets, churn_updates(probe_triples, sizes.batch_probe_pairs, "w"))


def run_batch_cold(src: Path, workdir: Path, seed: int, seconds: float, sizes: Sizes) -> Outcome:
    """Passes of ``batch_pass_sets`` sets, each set once and each pass in
    a freshly started SUT, until *seconds* of passes (and at least
    ``setup_starts`` of them) have run.  The last pass's SUT then takes
    the write probe."""
    inputs = batch_inputs(src, workdir, seed, sizes)
    updates = workdir / "updates.jsonl"
    write_jsonl(updates, inputs.probe)
    outcome = Outcome("batch-cold")
    outcome.facts = {"kb_scale": sizes.batch_scale, "facts": len(inputs.facts.triples),
                     "pass_sets": sizes.batch_pass_sets, "deadline_s": sizes.batch_deadline}
    reference = Reference(inputs.facts.triples, sizes.batch_deadline)
    spent = 0.0
    for number in range(sizes.max_passes):
        first = number * sizes.batch_pass_sets
        requests, results = workdir / f"requests-{number}.jsonl", workdir / f"results-{number}.jsonl"
        write_jsonl(requests, (mine_payload(str(first + i), s) for i, s in
                               enumerate(inputs.sets[first:first + sizes.batch_pass_sets])))
        child = BatchProcess(src, [str(inputs.nt), str(requests), str(updates), str(results),
                                   str(sizes.batch_deadline)], workdir / "sut.log")
        try:
            outcome.setup.append(child.setup_s)
            child.send("go")
            wall = float(child.expect("timed"))
            rss_mb = vm_rss_mb(child.process.pid)
            spent += wall
            last = number + 1 == sizes.max_passes or (
                number + 1 >= sizes.setup_starts and spent >= seconds)
            if last:
                child.send("probe")
                child.expect("done")
        finally:
            child.close()
        with open(results, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        block = Block([], 0, wall, rss_mb)
        outcome.blocks.append(block)
        judge_pass(lines[:sizes.batch_pass_sets], inputs.sets, reference, outcome, block)
        for line in lines[sizes.batch_pass_sets:]:
            outcome.updates.append(line["latency"])
            if not line["record"].get("ok"):
                outcome.failed(line["record"])
        if last:
            break
    outcome.facts["passes"] = len(outcome.blocks)
    outcome.facts["sets"] = outcome.reads_attempted
    gate_unknowns(outcome)
    return outcome


def judge_pass(lines: List[Dict], sets: List[List[str]], reference: Reference,
               outcome: Outcome, block: Block) -> None:
    for line in lines:
        record = line["record"]
        outcome.attempted += 1
        outcome.reads_attempted += 1
        answer = reply_answer(record)
        if answer is None:
            outcome.failed(record)
            continue
        outcome.completed += 1
        block.completed += 1
        targets = sets[int(record["id"])]
        if answer.timed_out:
            outcome.unknown += 1
            outcome.spurious_unknown += reference.spurious(targets)
        else:
            block.reads.append(line["latency"])
        verdict = reference.judge(targets, answer)
        if verdict is not None:
            outcome.divergences.append(f"set {record['id']} {targets}: {verdict}")


# ----------------------------------------------------------------------
# serve-hot / serve-churn
# ----------------------------------------------------------------------


@dataclass
class ServeInputs:
    image: Path
    facts: KbFacts
    sets: List[List[str]]
    streams: List[List[int]]
    churn: List[Tuple[str, str, str]]
    probe: List[Dict]


def serve_inputs(src: Path, workdir: Path, seed: int, seconds: float, sizes: Sizes) -> ServeInputs:
    nt = generate_kb(src, workdir, sizes.serve_scale)
    facts = read_kb(nt)
    image = build_image(src, nt)
    rng = random.Random(seed)
    sets = catalogue(facts, sizes.catalogue, sizes.popular_pool)
    # Per connection, more reads than the fastest probe served (≈1 000/s, 2-vCPU VM).
    streams = [zipf_stream(int(1000 * seconds) + 200, len(sets), sizes.zipf_exponent, rng)
               for _ in range(sizes.connections)]
    churn = churn_triples(facts, sets, sizes.churn_triples, rng)
    return ServeInputs(image, facts, sets, streams, churn,
                       churn_updates(churn, sizes.probe_pairs, "w"))


@dataclass
class Read:
    conn: int
    index: int
    sent: float
    received: float
    latency: float
    record: Dict


@dataclass
class Window:
    """One churn triple's lifetime: its add was sent at *opened*, its
    delete acknowledged at *closed*; *state* indexes the references."""

    state: int
    opened: float
    added: float = 0.0
    deleting: float = 0.0
    closed: float = float("inf")


class ServeRun:
    """One timed phase against a started fleet."""

    def __init__(self, port: int, inputs: ServeInputs, sizes: Sizes, outcome: Outcome):
        self.port = port
        self.inputs = inputs
        self.sizes = sizes
        self.outcome = outcome
        self.reads: List[Read] = []
        self.windows: List[Window] = []

    async def warm(self) -> None:
        """Every catalogue set twice on two connections at once, so the
        least-loaded dispatch lands each set on both replicas."""
        conns = [await Conn.open(self.port) for _ in range(2)]
        try:
            for _ in range(2):
                await asyncio.gather(*(self._warm_one(conn, c) for c, conn in enumerate(conns)))
        finally:
            for conn in conns:
                await conn.close()

    async def _warm_one(self, conn: Conn, c: int) -> None:
        clock = time.perf_counter
        for index, targets in enumerate(self.inputs.sets):
            sent = clock()
            record, latency = await conn.request(mine_payload(f"warm{c}-{index}", targets))
            self.reads.append(Read(c, index, sent, clock(), latency, record))

    async def timed(self, seconds: float, churn: bool) -> None:
        self.reads_before = len(self.reads)
        conns = [await Conn.open(self.port) for _ in range(self.sizes.connections)]
        self.started = time.perf_counter()
        self.stop = self.started + seconds
        self.done_reads = 0
        self.next_update = self.sizes.update_every if churn else None
        self.update_count = 0
        try:
            await asyncio.gather(*(self._loop(c, conn) for c, conn in enumerate(conns)))
        finally:
            for conn in conns:
                await conn.close()
        self.wall = self.finished - self.started

    async def _loop(self, c: int, conn: Conn) -> None:
        clock = time.perf_counter
        stream = self.inputs.streams[c]
        outcome = self.outcome
        position = 0
        while clock() < self.stop and position < len(stream):
            if c == 0 and self.next_update is not None and self.done_reads >= self.next_update:
                self.next_update += self.sizes.update_every
                payload = self._next_update()
                sent = clock()
                outcome.attempted += 1
                try:
                    record, latency = await conn.request(payload)
                except ConnectionError:
                    outcome.error("dropped")
                    break
                self._close_update(payload, sent, clock())
                outcome.updates.append(latency)
                if record.get("ok"):
                    outcome.completed += 1
                else:
                    outcome.failed(record)
                continue
            index = stream[position]
            position += 1
            sent = clock()
            outcome.attempted += 1
            try:
                record, latency = await conn.request(mine_payload(f"r{c}-{position}", self.inputs.sets[index]))
            except ConnectionError:
                outcome.error("dropped")
                break
            received = clock()
            self.done_reads += 1
            self.reads.append(Read(c, index, sent, received, latency, record))
            if record.get("ok"):
                outcome.completed += 1
            else:
                outcome.failed(record)
        # The run ends when the last connection finishes its request.
        self.finished = max(getattr(self, "finished", 0.0), clock())
        if c == 0 and self.windows and self.windows[-1].closed == float("inf"):
            # Undo an outstanding add, untimed, so the KB ends at its start.
            payload = self._next_update()
            sent = clock()
            record, _ = await conn.request(payload)
            self._close_update(payload, sent, clock())
            if not record.get("ok"):
                outcome.failed(record)

    def _next_update(self) -> Dict:
        self.update_count += 1
        return churn_update(self.update_count - 1, self.inputs.churn)

    def _close_update(self, payload: Dict, sent: float, acked: float) -> None:
        if payload["op"] == "add":
            state = 1 + self.inputs.churn.index(tuple(payload["triple"]))
            self.windows.append(Window(state, opened=sent, added=acked))
        else:
            window = self.windows[-1]
            window.deleting, window.closed = sent, acked

    def states(self, read: Read) -> List[int]:
        """The KB states a read may have seen.  The writer connection
        reads its own writes exactly; the other may see either side of
        any update in flight while it waited."""
        if read.conn == 0:
            for window in self.windows:
                if window.added <= read.sent and read.received <= window.deleting:
                    return [window.state]
            return [0]
        states = [0]
        for window in self.windows:
            if window.opened < read.received and read.sent < window.closed:
                states.append(window.state)
        return states


async def write_probe(port: int, probe: List[Dict], outcome: Outcome) -> None:
    conn = await Conn.open(port)
    try:
        for payload in probe:
            record, latency = await conn.request(payload)
            outcome.updates.append(latency)
            if not record.get("ok"):
                outcome.failed(record)
    finally:
        await conn.close()


def fleet_check(stats: Dict, outcome: Outcome, workers: int) -> None:
    """End-state checks: every replica alive and at the router's epoch;
    restarts and retries count as errors."""
    fleet = stats["server"]["workers"]
    epoch = stats["serving"]["epoch"]
    outcome.fleet = {key: fleet[key] for key in ("alive", "restarts", "timeouts", "retries", "resyncs")}
    outcome.fleet["router_epoch"] = epoch
    outcome.fleet["replica_epochs"] = [w["epoch"] for w in fleet["per_worker"]]
    if fleet["alive"] != workers or not all(w["alive"] for w in fleet["per_worker"]):
        outcome.divergences.append(f"fleet end state: {fleet['alive']} of {workers} replicas alive")
    stale = [w["worker"] for w in fleet["per_worker"] if w["epoch"] != epoch]
    if stale:
        outcome.divergences.append(f"fleet end state: replicas {stale} not at router epoch {epoch}")
    for key in ("restarts", "retries"):
        for _ in range(fleet[key]):
            outcome.error(key)


def run_serve(src: Path, workdir: Path, seed: int, seconds: float, sizes: Sizes, churn: bool) -> Outcome:
    inputs = serve_inputs(src, workdir, seed, seconds, sizes)
    name = "serve-churn" if churn else "serve-hot"
    outcome = Outcome(name)
    outcome.facts = {"kb_scale": sizes.serve_scale, "facts": len(inputs.facts.triples),
                     "sets": len(inputs.sets), "deadline_s": sizes.serve_deadline}
    references = [Reference(inputs.facts.triples, sizes.serve_deadline)]
    for targets in inputs.sets:
        references[0].answer(targets)
    fleet = None
    for start in range(sizes.setup_starts):
        fleet = Fleet(src, inputs.image, sizes.workers, sizes.serve_deadline, workdir / "sut.log")
        outcome.setup.append(fleet.setup_s)
        fleet.stats()
        if start < sizes.setup_starts - 1:
            fleet.close()
    try:
        run = ServeRun(fleet.port, inputs, sizes, outcome)
        asyncio.run(run.warm())
        asyncio.run(run.timed(seconds, churn))
        stats = fleet.stats()
        block = Block([], outcome.completed, run.wall, sum(vm_rss_mb(pid) for pid in fleet.pids()))
        outcome.blocks.append(block)
        if not churn:
            asyncio.run(write_probe(fleet.port, inputs.probe, outcome))
            stats = fleet.stats()
        fleet_check(stats, outcome, sizes.workers)
    finally:
        fleet.close()
    for triple in inputs.churn:
        references.append(LazyReference(inputs.facts.triples, triple, sizes.serve_deadline))
    for number, read in enumerate(run.reads):
        timed = number >= run.reads_before
        outcome.reads_attempted += timed
        answer = reply_answer(read.record)
        if answer is None:
            if not timed:
                outcome.divergences.append(f"warm-up read failed: {read.record}")
            continue
        targets = inputs.sets[read.index]
        if timed and answer.timed_out:
            outcome.unknown += 1
            outcome.spurious_unknown += references[0].spurious(targets)
        elif timed:
            block.reads.append(read.latency)
        states = run.states(read)
        verdict = first_divergence([references[s] for s in states], targets, answer)
        if verdict is not None:
            outcome.divergences.append(f"read {read.record['id']} {targets} (states {states}): {verdict}")
    gate_unknowns(outcome)
    return outcome
