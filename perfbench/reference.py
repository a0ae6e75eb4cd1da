"""The correctness gate: replies against a cold ``REMI`` on the same triples.

A reply is *decided* when its search finished (``stats.timed_out`` is
false) and *unknown* when it hit the per-request miner deadline.  The
rules, applied to every reply of a run:

* decided reply, decided reference: ``found``, the expression and Ĉ must
  be bit-identical;
* decided reply, unknown reference: the reference is settled once more
  with ten times the deadline and the reply is judged against that;
* unknown reply: an RE it carries must identify the targets under the
  reference's matcher.

Anything else is a divergence, and any divergence fails the run.

An unknown reply on a set the reference decided with more than half the
deadline to spare is *spurious* (:meth:`Reference.spurious`).  The
deadline is wall clock, so a rare gen-2 collection of the serving
process (160–210 ms with a scale-4 KB on a 2-vCPU VM) can push a set
the reference decides in 2 ms past a 100 ms deadline; a few such
replies are tolerated, but more than :data:`SPURIOUS_SHARE` of the
reads attempted fails the run, so a miner that gives up early cannot
pass.  Every unknown is also counted in ``unknown_share``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: A settling run gets this many deadlines before it, too, gives up.
SETTLE_FACTOR = 10.0

#: Spurious unknowns tolerated, as a share of the reads attempted.
SPURIOUS_SHARE = 0.005


@dataclass(frozen=True)
class Answer:
    found: bool
    expression: Optional[str]
    bits: Optional[float]
    timed_out: bool
    seconds: float = 0.0


def reply_answer(record: Dict) -> Optional[Answer]:
    """The answer carried by a mine envelope; None for an error envelope."""
    if not record.get("ok"):
        return None
    result = record["result"]
    return Answer(
        found=result["found"],
        expression=result.get("expression"),
        bits=result.get("complexity_bits"),
        timed_out=result["stats"]["timed_out"],
    )


class Reference:
    """A cold ``REMI`` over a fixed list of triples, with the run's deadline."""

    def __init__(self, triples: Iterable, deadline: float):
        from repro.core.config import MinerConfig
        from repro.core.remi import REMI
        from repro.kb.interned import InternedKnowledgeBase

        self.kb = InternedKnowledgeBase(triples, name="reference")
        self.deadline = deadline
        self.miner = REMI(self.kb, config=MinerConfig(timeout_seconds=deadline))
        self._settler = None
        self._answers: Dict[frozenset, Answer] = {}
        self._settled: Dict[frozenset, Answer] = {}

    def answer(self, targets: Sequence[str]) -> Answer:
        key = frozenset(targets)
        cached = self._answers.get(key)
        if cached is None:
            cached = self._answers[key] = self._mine(self.miner, targets)
        return cached

    def settle(self, targets: Sequence[str]) -> Answer:
        key = frozenset(targets)
        if key in self._settled:
            return self._settled[key]
        if self._settler is None:
            from repro.core.config import MinerConfig
            from repro.core.remi import REMI

            self._settler = REMI(
                self.kb, config=MinerConfig(timeout_seconds=self.deadline * SETTLE_FACTOR)
            )
        settled = self._settled[key] = self._mine(self._settler, targets)
        return settled

    @staticmethod
    def _mine(miner, targets: Sequence[str]) -> Answer:
        from repro.kb.terms import IRI

        started = time.perf_counter()
        result = miner.mine([IRI(t) for t in targets])
        seconds = time.perf_counter() - started
        found = result.expression is not None
        return Answer(
            found=found,
            expression=repr(result.expression) if found else None,
            bits=result.complexity if found else None,
            timed_out=result.stats.timed_out,
            seconds=seconds,
        )

    def spurious(self, targets: Sequence[str]) -> bool:
        """Whether an unknown reply for *targets* missed a deadline that
        the reference met with more than half of it to spare."""
        reference = self.answer(targets)
        return not reference.timed_out and reference.seconds < self.deadline / 2

    def verifies(self, targets: Sequence[str], expression: str) -> bool:
        """Whether *expression* (an envelope's repr) is a conjunction of the
        targets' candidate subgraph expressions that identifies them."""
        from repro.expressions.expression import Expression
        from repro.kb.terms import IRI

        iris = [IRI(t) for t in targets]
        by_repr = {repr(se): se for se, _ in self.miner.candidates(iris)}
        parts = expression[1:-1].split("] ∧ [")
        if not all(part in by_repr for part in parts):
            return False
        conjunction = Expression(tuple(by_repr[part] for part in parts))
        return self.miner.matcher.identifies(conjunction, frozenset(iris))

    def judge(self, targets: Sequence[str], reply: Answer) -> Optional[str]:
        """None when *reply* is acceptable, else the divergence."""
        reference = self.answer(targets)
        if reference.timed_out and not reply.timed_out:
            reference = self.settle(targets)
        if not reply.timed_out:
            if reference.timed_out:
                if reply.found and self.verifies(targets, reply.expression):
                    return None
                return f"decided {reply} where even a settled reference gave up"
            mine = (reply.found, reply.expression, reply.bits)
            theirs = (reference.found, reference.expression, reference.bits)
            return None if mine == theirs else f"reply {mine} != reference {theirs}"
        if reply.found and not self.verifies(targets, reply.expression):
            return f"unknown reply carries an RE that does not verify: {reply.expression}"
        return None


def spurious_verdict(spurious: int, reads: int) -> Optional[str]:
    """None when *spurious* unknowns among *reads* are within
    :data:`SPURIOUS_SHARE`, else the divergence."""
    if spurious <= SPURIOUS_SHARE * reads:
        return None
    return (f"{spurious} of {reads} reads unknown where the reference decided "
            f"in under half the deadline (more than {SPURIOUS_SHARE:.1%})")


class LazyReference:
    """The reference for the KB plus one extra triple, built on first use:
    most reads agree with the unchanged KB and never need it."""

    def __init__(self, triples, extra: Sequence[str], deadline: float):
        self._args = (triples, extra, deadline)
        self._reference: Optional[Reference] = None

    def judge(self, targets: Sequence[str], reply: Answer) -> Optional[str]:
        if self._reference is None:
            from repro.kb.terms import IRI
            from repro.kb.triples import Triple

            triples, extra, deadline = self._args
            self._reference = Reference([*triples, Triple(*(IRI(t) for t in extra))], deadline)
        return self._reference.judge(targets, reply)


def first_divergence(
    references: List[Reference], targets: Sequence[str], reply: Answer
) -> Optional[str]:
    """Judge *reply* against every KB state it may have read; None as soon
    as one state accepts it, else the verdict of the first state."""
    first = None
    for reference in references:
        verdict = reference.judge(targets, reply)
        if verdict is None:
            return None
        first = first or verdict
    return first
