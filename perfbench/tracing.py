"""The traced run: per-layer metrics, measured from outside the program.

The benchmark wraps the program's public entry points with its own
spans (name, start, end, parent, request id) kept in memory:
``load_kb``, ``MiningService.handle_json`` / ``update`` / ``warm_up``,
``BatchMiner.apply_update``, ``REMI.mine`` / ``candidates``,
``Matcher.identifies``, the live KB's ``at_epoch``, and ``WorkerPool``'s
``start`` / ``request`` / ``broadcast_update``.  A layer's self time is
its spans' duration minus the part their child spans cover.

One replay list per workload (its reads, its updates or a write probe)
runs on four systems, interleaved request by request so that a slow
moment of the machine hits all of them alike:

* ``plain`` — an in-process ``MiningService`` with tracing off;
* ``traced`` — a second one with every wrapper recording;
* ``tcp0`` — ``remi serve --workers 0`` over one connection;
* ``tcp2`` — ``remi serve --workers 2`` over one connection.

``server.overhead_ms`` is ``tcp0`` minus ``plain`` and
``workers.pipe_overhead_ms`` is ``tcp2`` minus ``tcp0``, paired per
request.  A router built in this process (a ``WorkerPool`` behind the
``plain`` service, two concurrent callers) then replays the list again
for the fan-out, dispatch and replica figures.

Reconciliation: the layer self times of ``traced`` must add up to the
client-observed latency of the in-process service (``plain``) within
10 %.  The difference is reported as ``reconcile.residual_ms``; it is
what tracing adds to the work it watches, plus any time no layer
claims.  It checks the in-process layers only, on every workload: the
server and pipe legs are themselves differences of client timings, so
adding them to the layers and comparing with ``tcp2`` would cancel them
out and could not detect time that no layer claims on the TCP path.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import gc
import json
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import workloads as wl
from inputs import churn_update, mine_payload
from reference import LazyReference, Reference, first_divergence, reply_answer, spurious_verdict
from sut import Conn, Fleet, vm_rss_mb

#: Reconciliation gate (ROADMAP item 3): layers sum to the client's view.
RECONCILE_SHARE = 0.10

#: Span name -> layer whose self time it counts towards.
LAYERS = {
    "facade.handle_json": "facade",
    "facade.update": "facade",
    "batch.apply_update": "batch",
    "kb.at_epoch": "kb",
    "core.mine": "search",
    "core.candidates": "candidates",
    "matching.identifies": "matching",
}

#: Printed, but not in the JSON: zero by construction on some workloads.
PRINTED_ONLY = ("self.batch_ms", "self.kb_ms")

#: The four systems of the interleaved replay, in rotating order.
SYSTEMS = ("plain", "traced", "tcp0", "tcp2")

_request = contextvars.ContextVar("perfbench_request", default=-1)
#: Request ids of the router pass start here.
ROUTER_IDS = 1 << 40


class Tracer:
    """In-memory spans around patched callables; off until enabled.

    Spans live in flat arrays, not in per-span objects: millions of
    tuples would make this process's garbage collector, and with it the
    traced requests, slower than the code they measure.
    """

    def __init__(self):
        self.names: List[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.enabled = False
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int, nested: bool = True) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if nested and stack else -1)
        self.request.append(_request.get())
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self
        name_id = self._name_id(name)
        clock = time.perf_counter

        if asyncio.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                # Concurrent coroutines interleave: no parent links.
                index = tracer.open(name_id, nested=False)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.end[index] = clock()
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                index = tracer.open(name_id)
                tracer._stack.append(index)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end[index] = clock()
                    tracer._stack.pop()

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the client's own call; yields its index."""
        index = self.open(self._name_id(name))
        self._stack.append(index)
        try:
            yield index
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def seconds(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _ids(self, names) -> Dict[int, str]:
        return {self.names.index(n): n for n in names if n in self.names}

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Per request id: layer -> summed self seconds."""
        start, end, parent = self.start, self.end, self.parent
        covered = defaultdict(float)
        for index in range(len(start)):
            if parent[index] >= 0:
                covered[parent[index]] += end[index] - start[index]
        layers = {i: LAYERS[n] for i, n in self._ids(LAYERS).items()}
        totals: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, name_id in enumerate(self.name):
            layer = layers.get(name_id)
            if layer is not None:
                totals[self.request[index]][layer] += end[index] - start[index] - covered[index]
        return totals

    def _select(self, name: str):
        if name not in self.names:
            return []
        name_id = self.names.index(name)
        return [i for i, n in enumerate(self.name) if n == name_id]

    def durations(self, name: str) -> List[float]:
        return [self.end[i] - self.start[i] for i in self._select(name)]

    def by_request(self, name: str) -> Dict[int, float]:
        out: Dict[int, float] = defaultdict(float)
        for i in self._select(name):
            out[self.request[i]] += self.end[i] - self.start[i]
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as out:
            for i, name_id in enumerate(self.name):
                out.write(json.dumps({
                    "name": self.names[name_id], "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i] if self.parent[i] >= 0 else None,
                    "request": self.request[i] if self.request[i] >= 0 else None,
                }) + "\n")


def _install(tracer: Tracer, kb_class) -> None:
    from repro.core.batch import BatchMiner
    from repro.core.remi import REMI
    from repro.expressions.matching import Matcher
    from repro.service import facade
    from repro.service.facade import MiningService
    from repro.service.workers import WorkerPool

    tracer.wrap(facade, "load_kb", "kb.load")
    tracer.wrap(MiningService, "handle_json", "facade.handle_json")
    tracer.wrap(MiningService, "update", "facade.update")
    tracer.wrap(MiningService, "warm_up", "facade.warm_up")
    tracer.wrap(BatchMiner, "apply_update", "batch.apply_update")
    tracer.wrap(REMI, "mine", "core.mine")
    tracer.wrap(REMI, "candidates", "core.candidates")
    tracer.wrap(Matcher, "identifies", "matching.identifies")
    tracer.wrap(kb_class, "at_epoch", "kb.at_epoch")
    tracer.wrap(WorkerPool, "start", "workers.spawn")
    tracer.wrap(WorkerPool, "request", "workers.request")
    tracer.wrap(WorkerPool, "broadcast_update", "workers.broadcast_update")


# ----------------------------------------------------------------------
# the replay list
# ----------------------------------------------------------------------


def replay_list(name: str, src: Path, workdir: Path, seed: int, seconds: float, sizes: wl.Sizes):
    """(kb path, facts, sets, reads, churn triples, churn?): the
    workload's own inputs, its reads as one sequential list."""
    if name == "batch-cold":
        inputs = wl.batch_inputs(src, workdir, seed, sizes)
        sets = inputs.sets
        reads = [mine_payload(str(i), s) for i, s in enumerate(sets)]
        triples = sorted({tuple(p["triple"]) for p in inputs.probe})
        return inputs.nt, inputs.facts, sets, reads, triples, False
    inputs = wl.serve_inputs(src, workdir, seed, seconds, sizes)
    stream = [i for pair in zip(*inputs.streams) for i in pair]
    reads = [mine_payload(str(i), inputs.sets[i]) for i in stream]
    return inputs.image, inputs.facts, inputs.sets, reads, inputs.churn, name == "serve-churn"


def with_updates(reads: List[Dict], triples, every: Optional[int], probe_pairs: int):
    """(main list, probe list).  serve-churn: *reads* with the next churn
    update after every *every* reads, no probe.  The read-only workloads:
    *reads*, then a write probe of add/delete pairs with one read after
    each update."""
    if every:
        main: List[Dict] = []
        for i, payload in enumerate(reads, 1):
            main.append(payload)
            if i % every == 0:
                main.append(churn_update(i // every - 1, triples))
        return main, []
    probe: List[Dict] = []
    for k in range(2 * probe_pairs):
        probe.append(churn_update(k, triples))
        probe.append(dict(reads[0], id=f"after-u{k}"))
    return list(reads), probe


def _kind(payload: Dict) -> str:
    return payload["type"]


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def run_traced(name: str, src: Path, workdir: Path, seed: int, seconds: float, sizes: wl.Sizes):
    from repro.core.config import MinerConfig
    from repro.service import MiningService, ServiceConfig

    kb_path, facts, sets, reads, triples, churn = replay_list(
        name, src, workdir, seed, seconds, sizes)
    deadline = sizes.deadline_for(name)
    config = ServiceConfig(miner_config=MinerConfig(timeout_seconds=deadline))
    serving = name != "batch-cold"

    tracer = Tracer()
    plain = MiningService.from_path(kb_path, config)
    _install(tracer, type(plain.kb))
    tracer.enabled = True
    traced = MiningService.from_path(kb_path, config)
    tracer.enabled = False
    load_s = tracer.durations("kb.load")[-1]
    for service in (plain, traced):
        if serving:
            service.enable_snapshots()
    plain.warm_up()
    tracer.enabled = True
    traced.warm_up()
    tracer.enabled = False
    warm_up_s = tracer.durations("facade.warm_up")[-1]

    fleets: List[Fleet] = []
    try:
        fleets.append(Fleet(src, kb_path, 0, deadline, workdir / "tcp0.log"))
        fleets.append(Fleet(src, kb_path, sizes.workers, deadline, workdir / "tcp2.log"))
        fleets[1].stats()
        replayer = Replayer(tracer, plain, traced, fleets, sets)
        if serving:
            asyncio.run(replayer.warm())
        # Both in-process replicas share this heap with the load
        # generator; a full collection of it (0.3–0.4 s with two scale-4
        # KBs on a 2-vCPU VM) would land in one replica's request and
        # swamp the paired comparison.  Frozen objects are never scanned.
        gc.collect()
        gc.freeze()
        budget = seconds * 0.75
        main, probe = with_updates(reads, triples, sizes.update_every if churn else None, sizes.probe_pairs)
        asyncio.run(replayer.interleaved(main, probe, budget))
        tcp2_stats = fleets[1].stats()
    finally:
        for fleet in fleets:
            fleet.close()
        tracer.enabled = False

    gc.unfreeze()
    router = asyncio.run(router_pass(tracer, plain, config, sizes, replayer.replayed))
    tracer.restore()

    report = Report(name, replayer, tracer, load_s, warm_up_s, router, tcp2_stats)
    report.judge(facts, triples, deadline)
    result, lines = report.result()
    spans = workdir.parent / f"spans-{name}.jsonl"
    tracer.write(spans)
    lines.append(f"  spans written to {spans.relative_to(workdir.parent.parent)}")
    return result, lines


class Replayer:
    """The interleaved replay over plain, traced, tcp0 and tcp2."""

    def __init__(self, tracer: Tracer, plain, traced, fleets: Sequence[Fleet], sets):
        self.tracer = tracer
        self.plain = plain
        self.traced = traced
        self.fleets = fleets
        self.sets = sets
        #: Per system: list of (payload, seconds, record).
        self.results: Dict[str, List[Tuple[Dict, float, Dict]]] = defaultdict(list)
        self.replayed: List[Dict] = []
        self.rebuilds = 0
        #: Requests of the main list; the write probe follows them.
        self.main = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_base = None

    async def warm(self) -> None:
        """Warm the catalogue everywhere, untimed (the serving workloads
        measure warm caches)."""
        conns = [await Conn.open(f.port) for f in self.fleets]
        try:
            for index, targets in enumerate(self.sets):
                payload = mine_payload(f"warm{index}", targets)
                self.plain.handle_json(payload)
                self.traced.handle_json(payload)
                for conn in conns:
                    await conn.request(payload)
        finally:
            for conn in conns:
                await conn.close()

    async def interleaved(self, main: List[Dict], probe: List[Dict], budget: float) -> None:
        """*main* until *budget* seconds have passed (closing an add that
        is still open), then all of *probe*."""
        conns = [await Conn.open(f.port) for f in self.fleets]
        clock = time.perf_counter
        self._cache_base = self.plain.summary()["matcher_cache"]
        stop = clock() + budget
        open_add = None
        try:
            for payload in main:
                if clock() >= stop:
                    break
                await self._one(payload, conns)
                if _kind(payload) == "update":
                    open_add = payload if payload["op"] == "add" else None
            if open_add is not None:
                await self._one(dict(open_add, id=f"{open_add['id']}-undo", op="delete"), conns)
            self._cache_segment()
            self.main = len(self.replayed)
            for payload in probe:
                await self._one(payload, conns)
        finally:
            for conn in conns:
                await conn.close()

    async def _one(self, payload: Dict, conns) -> None:
        clock = time.perf_counter
        number = len(self.replayed)
        order = SYSTEMS[number % 4:] + SYSTEMS[: number % 4]
        update = _kind(payload) == "update"
        in_main = not self.main
        if update:
            before_epoch = self.traced.summary().get("snapshot_epoch")
            if in_main:
                self._cache_segment()
        for system in order:
            if system == "plain":
                started = clock()
                record = self.plain.handle_json(payload)
                seconds = clock() - started
            elif system == "traced":
                token = _request.set(number)
                self.tracer.enabled = True
                try:
                    with self.tracer.span("client.request") as span:
                        record = self.traced.handle_json(payload)
                        if update and not self.traced.snapshot_reads:
                            # Without snapshot sessions the façade publishes
                            # no epoch view; time the KB's own at_epoch.
                            self.traced.kb.at_epoch()
                finally:
                    self.tracer.enabled = False
                    _request.reset(token)
                seconds = self.tracer.seconds(span)
            else:
                record, seconds = await conns[0 if system == "tcp0" else 1].request(payload)
            self.results[system].append((payload, seconds, record))
        if update:
            self.rebuilds += self.traced.summary().get("snapshot_epoch") != before_epoch
            if in_main:
                self._cache_base = self.plain.summary()["matcher_cache"]
        self.replayed.append(payload)

    def _cache_segment(self) -> None:
        """Fold the matcher cache counters since the last base into the
        totals; an update may retire the session and its counters.  Only
        the main list counts: without sessions, the read after an update
        resets the counters."""
        now = self.plain.summary()["matcher_cache"]
        base = self._cache_base or {"hits": 0, "misses": 0}
        self.cache_hits += now["hits"] - base["hits"]
        self.cache_misses += now["misses"] - base["misses"]
        self._cache_base = now


async def router_pass(tracer: Tracer, service, config, sizes: wl.Sizes, requests: List[Dict]):
    """The replay list through a ``WorkerPool`` built in this process:
    two concurrent callers, updates applied on the router then fanned out."""
    from repro.service.workers import WorkerPool

    pool = WorkerPool(service.kb, config=config, count=sizes.workers, warm_up=True)
    tracer.enabled = True
    try:
        await asyncio.get_running_loop().run_in_executor(None, pool.start)
        replies: List[Tuple[Dict, Dict]] = []
        lock = asyncio.Lock()
        queue = list(enumerate(requests))
        queue.reverse()

        async def caller() -> None:
            while queue:
                number, payload = queue.pop()
                token = _request.set(ROUTER_IDS + number)
                try:
                    if _kind(payload) == "update":
                        async with lock:  # the router's update barrier
                            record = service.handle_json(payload)
                            if record.get("ok") and record["result"].get("applied"):
                                await pool.broadcast_update(payload, expect_epoch=service.kb.epoch)
                    else:
                        record = await pool.request(payload)
                finally:
                    _request.reset(token)
                replies.append((payload, record))

        await asyncio.gather(caller(), caller())
        stats = pool.stats()
        rss = [vm_rss_mb(w["pid"]) for w in stats["per_worker"] if w["pid"] and w["alive"]]
    finally:
        tracer.enabled = False
        pool.stop()
    return {"stats": stats, "replies": replies, "replica_rss": rss}


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Report:
    def __init__(self, name, replayer: Replayer, tracer: Tracer, load_s, warm_up_s, router, tcp2_stats):
        self.name = name
        self.replayer = replayer
        self.tracer = tracer
        self.load_s = load_s
        self.warm_up_s = warm_up_s
        self.router = router
        self.tcp2_stats = tcp2_stats
        self.divergences: List[str] = []
        self.errors = 0

    def judge(self, facts, triples, deadline) -> None:
        """``plain`` against the reference, state by state; every other
        system must agree with ``plain`` wherever both decided."""
        references = [Reference(facts.triples, deadline)]
        references += [LazyReference(facts.triples, triple, deadline) for triple in triples]
        state = 0
        reads = spurious = 0
        plain = self.replayer.results["plain"]
        for payload, _, record in plain:
            if _kind(payload) == "update":
                if not record.get("ok"):
                    self.errors += 1
                elif payload["op"] == "add":
                    state = 1 + [tuple(t) for t in triples].index(tuple(payload["triple"]))
                else:
                    state = 0
                continue
            reads += 1
            answer = reply_answer(record)
            if answer is None:
                self.errors += 1
                continue
            if answer.timed_out:
                spurious += references[0].spurious(payload["targets"])
            verdict = references[state].judge(payload["targets"], answer)
            if verdict is not None:
                self.divergences.append(f"plain {payload['id']}: {verdict}")
        verdict = spurious_verdict(spurious, reads)
        if verdict is not None:
            self.divergences.append(f"plain: {verdict}")
        for system in ("traced", "tcp0", "tcp2"):
            for (payload, _, mine), (_, _, theirs) in zip(self.replayer.results[system], plain):
                self._agree(system, payload, mine, theirs)
        for payload, record in self.router["replies"]:
            if _kind(payload) == "update":
                self.errors += not record.get("ok")
                continue
            answer = reply_answer(record)
            if answer is None:
                self.errors += 1
                continue
            verdict = first_divergence(references, payload["targets"], answer)
            if verdict is not None:
                self.divergences.append(f"router {payload['id']}: {verdict}")

    def _agree(self, system, payload, mine, theirs) -> None:
        if not mine.get("ok"):
            self.errors += 1
            return
        if _kind(payload) == "update":
            return
        a, b = reply_answer(mine), reply_answer(theirs)
        if b is None or a.timed_out or b.timed_out:
            return
        if (a.found, a.expression, a.bits) != (b.found, b.expression, b.bits):
            self.divergences.append(f"{system} {payload['id']}: {a} != plain {b}")

    def result(self):
        r = self.replayer
        results = r.results
        # Timings of the main list; updates and the first reads after them
        # also from the write probe (the read-only workloads have no others).
        n = r.main
        total = len(results["plain"])
        reads = [i for i in range(n) if _kind(results["plain"][i][0]) == "mine"]
        read_set = set(range(total)) - set(range(n)) | set(reads)
        updates = [i for i in range(total) if _kind(results["plain"][i][0]) == "update"]
        seconds = {s: [results[s][i][1] for i in range(total)] for s in results}
        selfs = self.tracer.self_times()
        per_layer = defaultdict(list)
        for i in range(n):
            for layer in ("facade", "batch", "kb", "candidates", "search", "matching"):
                per_layer[layer].append(selfs.get(i, {}).get(layer, 0.0))
        stats = [results["plain"][i][2]["result"]["stats"] for i in reads
                 if results["plain"][i][2].get("ok")]
        mine = self.tracer.by_request("core.mine")
        candidates = self.tracer.by_request("core.candidates")
        handle = self.tracer.by_request("facade.handle_json")
        update_spans = self.tracer.by_request("facade.update")
        apply_spans = self.tracer.by_request("batch.apply_update")
        at_epoch = self.tracer.by_request("kb.at_epoch")
        search_s = sum(s["search_seconds"] for s in stats)
        nodes = sum(s["nodes_visited"] for s in stats)
        after = [seconds["traced"][i + 1] for i in updates if i + 1 in read_set]
        seconds = {system: values[:n] for system, values in seconds.items()}
        server = [seconds["tcp0"][i] - seconds["plain"][i] for i in range(n)]
        pipe = [seconds["tcp2"][i] - seconds["tcp0"][i] for i in range(n)]
        fleet = self.router["stats"]
        per_worker = [w["requests"] for w in fleet["per_worker"]]
        tcp2_fleet = self.tcp2_stats["server"]["workers"]
        counters = {k: fleet[k] + tcp2_fleet[k] for k in ("restarts", "timeouts", "retries", "resyncs")}

        layer_ms = {layer: _mean(v) * 1000 for layer, v in per_layer.items()}
        layers_sum = sum(layer_ms.values())
        client = _mean(seconds["plain"]) * 1000
        residual = client - layers_sum

        m: Dict[str, Tuple[float, str]] = {
            "kb.load_s": (self.load_s, "s"),
            "kb.at_epoch_ms": (_median(at_epoch[i] for i in updates) * 1000, "ms"),
            "candidates.build_ms": (_mean(candidates.get(i, 0.0) for i in reads) * 1000, "ms"),
            "candidates.count": (_mean(s["candidates"] for s in stats), "count"),
            "candidates.enumerated": (_mean(s["enumerated"] for s in stats), "count"),
            "candidates.scored": (_mean(s["scored"] for s in stats), "count"),
            "complexity.score_ms": (_mean(s["complexity_seconds"] for s in stats) * 1000, "ms"),
            "search.ms": (_mean(mine.get(i, 0.0) - candidates.get(i, 0.0) for i in reads) * 1000, "ms"),
            "search.nodes": (_mean(s["nodes_visited"] for s in stats), "count"),
            "search.us_per_node": (search_s / max(nodes, 1) * 1e6, "us"),
            "search.unknown": (_mean(float(s["timed_out"]) for s in stats), "ratio"),
            "matching.re_tests": (_mean(s["re_tests"] for s in stats), "count"),
            "matching.cache_hit_ratio": (r.cache_hits / max(r.cache_hits + r.cache_misses, 1), "ratio"),
            "facade.overhead_ms": (_mean(handle.get(i, 0.0) - mine.get(i, 0.0) for i in reads) * 1000, "ms"),
            "facade.warm_up_s": (self.warm_up_s, "s"),
            "facade.update_ms": (_median(wl.pair_means([update_spans.get(i, 0.0) for i in updates])) * 1000, "ms"),
            "facade.session_rebuilds": (float(r.rebuilds), "count"),
            "facade.rebuild_ms": (_median(wl.pair_means(
                [update_spans.get(i, 0.0) - apply_spans.get(i, 0.0) for i in updates])) * 1000, "ms"),
            "facade.first_read_after_update_ms": (_median(after) * 1000, "ms"),
            "server.overhead_ms": (_mean(server) * 1000, "ms"),
            "workers.pipe_overhead_ms": (_mean(pipe) * 1000, "ms"),
            "workers.spawn_s": (_median(self.tracer.durations("workers.spawn")), "s"),
            "workers.fanout_ms": (_median(self.tracer.durations("workers.broadcast_update")) * 1000, "ms"),
            "workers.request_ms": (_median(self.tracer.durations("workers.request")) * 1000, "ms"),
            "workers.dispatch_balance": (min(per_worker) / max(max(per_worker), 1), "ratio"),
            "workers.replica_rss_mb": (_mean(self.router["replica_rss"]), "MB"),
            "workers.restarts": (float(counters["restarts"]), "count"),
            "workers.timeouts": (float(counters["timeouts"]), "count"),
            "workers.retries": (float(counters["retries"]), "count"),
            "workers.resyncs": (float(counters["resyncs"]), "count"),
        }
        # Self times of the main list.  On the read-only workloads the
        # batch and kb layers do no work there; they are printed, and
        # measured on every workload by the update metrics above.
        for layer, value in layer_ms.items():
            m[f"self.{layer}_ms"] = (value, "ms")
        m.update({
            "trace.overhead_ms": ((_median(seconds["traced"][i] for i in reads)
                                   - _median(seconds["plain"][i] for i in reads)) * 1000, "ms"),
            "reconcile.client_ms": (client, "ms"),
            "reconcile.layers_ms": (layers_sum, "ms"),
            "reconcile.residual_ms": (residual, "ms"),
            "reconcile.residual_share": (abs(residual) / client if client else 0.0, "ratio"),
            "replay.requests": (float(n), "count"),
        })
        share = m["reconcile.residual_share"][0]
        lines = [f"workload {self.name} (traced): {total} requests replayed, "
                 f"{n} before the write probe, {len(updates)} updates"]
        lines += [f"  {k:34s} {v:14.6f} {u}" for k, (v, u) in m.items()]
        # A measurement verdict, not an answer check: it does not touch
        # "correct", which speaks for the program's outputs only.
        verdict = "holds" if share <= RECONCILE_SHARE else "FAILS"
        lines.append(f"  reconciliation {verdict}: in-process layers {layers_sum:.4f} ms vs "
                     f"in-process client {client:.4f} ms, residual {share:.1%} "
                     f"(gate {RECONCILE_SHARE:.0%}; server and pipe legs not reconciled)")
        lines += [f"  DIVERGENCE {d}" for d in self.divergences[:20]]
        result = {
            "correct": not self.divergences,
            "attempted": total * len(SYSTEMS) + len(self.router["replies"]),
            "failed": self.errors,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()
                        if k not in PRINTED_ONLY},
        }
        return result, lines
