"""Commutativity-certified parallel rule scheduling (Theorem 6.7 at runtime).

The paper's Lemma 6.1 / Definition 6.5 machinery proves, statically,
that certain rule pairs *commute*: applying them in either order from
any state reaches the same state. Section 9 observes that rule sets
further partition into groups that share no tables and no priority
edges. Both results are usually read as analysis conveniences; this
module uses them as a *runtime scheduler's correctness oracle* — rule
applications proven to commute may be reordered, and therefore
considered as one batch from one shared base state, without changing
the reachable final states (Theorem 6.7: all serializations agree, so
executing any one of them is sound).

The :class:`ParallelScheduler` drives a
:class:`~repro.runtime.processor.RuleProcessor` to quiescence the same
way :meth:`RuleProcessor.run` does, but each round *admits a batch* of
eligible rules instead of one:

* the strategy's pick always leads the batch (so a singleton batch
  degenerates to exactly the serial loop);
* a further eligible rule joins iff, against every admitted member, it
  either lives in a different static partition
  (:func:`~repro.analysis.partitioning.partition_rules` — no shared
  tables, no priority edge, hence trivially commuting) or carries a
  positive memoized Definition 6.5 commute verdict *and* writes a
  disjoint set of tables. Any pair lacking a commute proof serializes —
  the analysis verdict is the admission ticket, never a heuristic.

The disjoint-write-tables requirement is deliberately stricter than the
column-granularity oracle: batch effects are merged as folded net
effects whose update entries carry whole tuples, so two rules updating
different *columns* of the same row — commuting under Lemma 6.1 —
would lose one side's write in the merge. Partition-disjoint and
table-disjoint batches never meet that case.

Execution: every batch member is considered on its own copy-on-write
:meth:`RuleProcessor.fork` of the same base state, one member after
another in batch order. (Considerations are pure Python, so threads
would only interleave them under the GIL; the batch is a correctness
construct, not a concurrency one.) Merging then replays each fork's
folded :class:`~repro.transitions.net_effect.NetEffect` onto the main
processor in batch order — tables sorted by name, deletes then updates
then inserts in ascending tid order, inserts re-allocating fresh tids —
a canonical order fully determined by the batch, so batch execution is
deterministic run-to-run. Net-effect folding guarantees delete and
update entries reference only pre-batch tids (an insert-then-update
folds into the insert; an insert-then-delete annihilates), and
disjoint write tables guarantee no two members' effects overlap, so
replaying onto the base is exactly a serialization of the batch:
member k's marker advances just before its effects replay, which
reproduces the serial discipline where a rule sees its own operations
as a fresh transition and earlier-considered rules see later rules'
operations as pending.

A fork that rolls back aborts the batch wholesale: rollback restores
the *transaction* snapshot, which does not compose with merging, so the
scheduler discards every fork and re-considers just the strategy's pick
serially on the main processor (``rollback_fallbacks``). Observable
actions merge in batch order, preserving per-rule observable sequences
across the equivalence harness.
"""

from __future__ import annotations

import time

from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.derived import DerivedDefinitions
from repro.analysis.partitioning import partition_rules
from repro.errors import RuleProcessingLimitExceeded
from repro.runtime.processor import (
    ConsiderationOutcome,
    ProcessingResult,
    _RuleTransition,
)
from repro.stats import StatsBase
from repro.transitions.net_effect import NetEffect


class SchedulerStats(StatsBase):
    """Global work counters for the parallel scheduler.

    ``parallel_considerations`` counts rules considered on batch forks;
    ``serial_considerations`` counts singleton rounds (including
    rollback fallbacks). ``commute_serializations`` counts admission
    refusals — pairs the oracle could not certify (or whose write
    tables overlap), which therefore serialized. ``merge_seconds`` is
    the wall time spent replaying fork effects onto the main processor
    (the ``--profile`` ``parallel_merge`` phase).
    """

    FIELDS = (
        "rounds",
        "batches",
        "serial_considerations",
        "parallel_considerations",
        "forks",
        "commute_checks",
        "commute_serializations",
        "rollback_fallbacks",
        "merged_primitives",
        "merge_seconds",
    )
    SECONDS = frozenset({"merge_seconds"})


STATS = SchedulerStats()


class ParallelScheduler:
    """Batch quiescence loop over one rule processor.

    Built lazily by :meth:`RuleProcessor.run` when the session config
    says ``scheduler="parallel"``, and cached on the processor so the
    static partition map and the memoized pair verdicts persist across
    assertion points.
    """

    def __init__(self, processor) -> None:
        self.processor = processor
        ruleset = processor.ruleset
        self._definitions = DerivedDefinitions(ruleset)
        #: the Definition 6.5 oracle; verdicts memoize per unordered pair
        self._analyzer = CommutativityAnalyzer(self._definitions)
        self._partition_of: dict[str, int] = {}
        for i, group in enumerate(
            partition_rules(self._definitions, ruleset.priorities)
        ):
            for name in group:
                self._partition_of[name] = i
        self._write_tables = {
            name: frozenset(
                event.table for event in self._definitions.performs(name)
            )
            for name in self._definitions.rule_names
        }

    # ------------------------------------------------------------------
    # Batch admission
    # ------------------------------------------------------------------

    def _independent(self, first: str, second: str) -> bool:
        """May *first* and *second* be considered in one batch?

        True iff they belong to different static partitions (no shared
        tables, no priority edge — trivially commuting) or the analysis
        certifies commutativity *and* their write-table sets are
        disjoint (the merge-soundness requirement documented above).
        Unknown or negative verdicts serialize.
        """
        if self._partition_of.get(first) != self._partition_of.get(second):
            return True
        STATS.commute_checks += 1
        if not self._analyzer.commute(first, second):
            STATS.commute_serializations += 1
            return False
        if self._write_tables[first] & self._write_tables[second]:
            STATS.commute_serializations += 1
            return False
        return True

    def _admit(self, eligible: tuple[str, ...], limit: int) -> list[str]:
        """The batch for this round: the strategy's pick plus every
        further eligible rule pairwise independent of all admitted
        members, in eligibility (definition) order."""
        first = self.processor.strategy.choose(eligible)
        batch = [first]
        for rule in eligible:
            if rule == first or len(batch) >= limit:
                continue
            if all(self._independent(member, rule) for member in batch):
                batch.append(rule)
        return batch

    # ------------------------------------------------------------------
    # Batch execution and merge
    # ------------------------------------------------------------------

    def _replay(self, fork, net: NetEffect) -> None:
        """Merge a fork's folded net effect into the main processor in
        canonical order (sorted tables; D, U, I in ascending tid order).

        A table the fork only deleted from or updated in is *adopted*:
        the fork's copy-on-write extension is exactly base state plus
        the fork's writes, and its delete/update entries reference
        pre-batch tids, so grafting the object wholesale and appending
        the log records is O(ops) in the log alone. A table the fork
        inserted into is replayed row-by-row instead, because inserts
        must re-allocate tids from the main database's counter (sibling
        forks allocate from identical counter copies, so fork-side tids
        may collide across the batch). Either way tuples are not
        re-validated — they passed schema checks on the fork.
        """
        proc = self.processor
        database, log = proc.database, proc.log
        count = 0
        for name in sorted(net.tables):
            effect = net.table(name)
            if not effect.inserted:
                database.adopt_table(name, fork.database.table(name))
                for tid in sorted(effect.deleted):
                    log.record_delete(name, tid, effect.deleted[tid])
                for tid in sorted(effect.updated):
                    old, new = effect.updated[tid]
                    log.record_update(name, tid, old, new)
                count += len(effect.deleted) + len(effect.updated)
                continue
            data = database.table(name)
            for tid in sorted(effect.deleted):
                old = data.delete(tid)
                log.record_delete(name, tid, old)
            for tid in sorted(effect.updated):
                old, new = effect.updated[tid]
                data.update(tid, new)
                log.record_update(name, tid, old, new)
            for tid in sorted(effect.inserted):
                values = effect.inserted[tid]
                fresh = database.allocate_tid()
                data.insert(fresh, values)
                log.record_insert(name, fresh, values)
            count += (
                len(effect.deleted) + len(effect.updated) + len(effect.inserted)
            )
        STATS.merged_primitives += count

    def _run_batch(
        self, batch: list[str], eligible: tuple[str, ...]
    ) -> list[ConsiderationOutcome]:
        proc = self.processor
        base_position = proc.log.position
        base_observables = len(proc.observables)
        forks = [proc.fork() for __ in batch]
        STATS.forks += len(forks)
        outcomes = [
            fork.consider(rule, eligible=eligible)
            for fork, rule in zip(forks, batch)
        ]

        if any(outcome.rolled_back for outcome in outcomes):
            # Rollback restores the transaction snapshot — incompatible
            # with merging sibling effects. Discard the whole batch and
            # re-run just the strategy's pick serially from the (still
            # untouched) base state.
            STATS.rollback_fallbacks += 1
            STATS.serial_considerations += 1
            return [proc.consider(batch[0], eligible=eligible)]

        merged: list[ConsiderationOutcome] = []
        started = time.perf_counter()
        for fork, rule, outcome in zip(forks, batch, outcomes):
            before = proc.log.position
            # The serial discipline, per member: marker first, then the
            # member's own operations — the rule sees them as a fresh
            # transition; earlier-merged members see them as pending.
            proc.markers[rule] = before
            proc._transitions[rule] = _RuleTransition(before)
            if outcome.operations_performed:
                self._replay(
                    fork,
                    NetEffect.from_primitives(
                        fork.log.iter_range(base_position, fork.log.position)
                    ),
                )
            proc.observables.extend(fork.observables[base_observables:])
            merged.append(
                ConsiderationOutcome(
                    rule=rule,
                    condition_was_true=outcome.condition_was_true,
                    operations_performed=proc.log.position - before,
                )
            )
            STATS.parallel_considerations += 1
        STATS.merge_seconds += time.perf_counter() - started
        return merged

    # ------------------------------------------------------------------
    # The quiescence loop
    # ------------------------------------------------------------------

    def run(self) -> ProcessingResult:
        """Process rules at an assertion point until quiescence.

        Matches :meth:`RuleProcessor.run` step for step — quiescence
        marker advance, rollback outcome, ``max_steps`` discipline —
        except that each round may consider a certified batch instead
        of a single rule.
        """
        proc = self.processor
        steps: list[ConsiderationOutcome] = []
        observables_before = len(proc.observables)
        while True:
            eligible = proc.eligible_rules()
            if not eligible:
                return proc.finish_assertion_point(steps, observables_before)
            if len(steps) >= proc.max_steps:
                raise RuleProcessingLimitExceeded(proc.max_steps)
            STATS.rounds += 1
            batch = self._admit(eligible, proc.max_steps - len(steps))
            if len(batch) == 1:
                STATS.serial_considerations += 1
                steps.append(proc.consider(batch[0], eligible=eligible))
            else:
                STATS.batches += 1
                steps.extend(self._run_batch(batch, eligible))
