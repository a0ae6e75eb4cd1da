"""The batch-cold system under test: one caller of ``MiningService.handle_json``.

Runs in its own process so that start-up time and memory are the
program's, not the load generator's.  Usage (the benchmark drives it)::

    python3 perfbench/batch_child.py KB REQUESTS UPDATES RESULTS DEADLINE

Protocol on stdin/stdout, one line each: the child loads the KB, warms
the service up and prints ``ready``.  On ``go`` it mines the request
list in order, each set once, writes one JSON line per reply to RESULTS
and prints ``timed <wall seconds>``.  On
``probe`` it then applies the update list (the write probe), appends the
update latencies to RESULTS and prints ``done``.  Any other line, or end
of input, makes it exit.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    kb, requests, updates, results, deadline = argv
    from repro.core.config import MinerConfig
    from repro.service import MiningService, ServiceConfig

    service = MiningService.from_path(
        kb, ServiceConfig(miner_config=MinerConfig(timeout_seconds=float(deadline)))
    )
    service.warm_up()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    with open(requests, encoding="utf-8") as handle:
        payloads = [json.loads(line) for line in handle]
    clock = time.perf_counter
    timed = []
    started = clock()
    for payload in payloads:
        before = clock()
        record = service.handle_json(payload)
        timed.append((clock() - before, record))
    wall = clock() - started
    with open(results, "w", encoding="utf-8") as out:
        for latency, record in timed:
            out.write(json.dumps({"latency": latency, "record": record}) + "\n")
    print(f"timed {wall!r}", flush=True)
    if sys.stdin.readline().strip() != "probe":
        return 0
    with open(updates, encoding="utf-8") as handle:
        writes = [json.loads(line) for line in handle]
    with open(results, "a", encoding="utf-8") as out:
        for payload in writes:
            before = clock()
            record = service.handle_json(payload)
            latency = clock() - before
            out.write(json.dumps({"latency": latency, "record": record}) + "\n")
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
