"""The rule processor: Starburst rule-processing semantics (Section 2).

The key mechanism is the pair (delta log, per-rule markers):

* every tuple-level operation — user-generated or from a rule action —
  is appended to one shared :class:`~repro.transitions.delta.DeltaLog`;
* each rule holds a *marker*, the log position of its last consideration
  (initially the position of the current assertion point);
* a rule is **triggered** iff the net effect of the log suffix past its
  marker contains one of its ``Triggered-By`` operations;
* when a rule is considered, its transition tables are materialized from
  that suffix, its marker advances to the pre-action log position, its
  condition is checked, and (if true) its action runs — so the rule sees
  its own action's operations as a fresh transition, while rules not yet
  considered keep accumulating the composite transition.

This reproduces exactly the triggering discipline described in the
paper: "a given rule is triggered if its transition predicate holds with
respect to the (composite) transition since the last time it was
considered."

Incremental substrate. With ``incremental=True`` (the default) the
processor maintains one cached :class:`~repro.transitions.net_effect.NetEffect`
per rule, advanced by :meth:`NetEffect.fold` over only the primitives
appended since the rule's transition was last examined — each primitive
is folded at most once per rule, instead of the whole suffix being
refolded on every triggering check. A per-table touch index over the
log skips rules whose table was not written since their marker without
touching their net effect at all, and the triggering verdict itself is
cached until the rule's table is written again. ``incremental=False``
recomputes everything from scratch (the seed behavior); the substrate
benchmark gate asserts both modes produce byte-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.config import ExecutionConfig, resolve_config
from repro.engine import plan as P
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.query import DatabaseProvider, OverlayProvider
from repro.engine.rete import ReteInstance, ReteNetwork
from repro.engine.values import sql_is_truthy
from repro.errors import (
    RollbackSignal,
    RuleProcessingError,
    RuleProcessingLimitExceeded,
)
from repro.lang import ast
from repro.lang.parser import parse_statement
from repro.runtime.observer import ObservableAction
from repro.runtime.strategies import FirstEligibleStrategy
from repro.rules.ruleset import RuleSet
from repro.stats import StatsBase
from repro.transitions.delta import DeltaLog
from repro.transitions.net_effect import NetEffect
from repro.transitions.transition_tables import transition_table_overlays


@dataclass(frozen=True)
class ConsiderationOutcome:
    """What happened when one rule was considered."""

    rule: str
    condition_was_true: bool
    operations_performed: int
    rolled_back: bool = False


@dataclass
class ProcessingResult:
    """The outcome of running rule processing to quiescence."""

    outcome: str  # "quiescent" or "rolled_back"
    steps: list[ConsiderationOutcome] = field(default_factory=list)
    observables: list[ObservableAction] = field(default_factory=list)

    @property
    def rules_considered(self) -> list[str]:
        return [step.rule for step in self.steps]


class ProcessorStats(StatsBase):
    """Work counters for the runtime substrate (benchmark gate input).

    ``primitives_folded`` counts incremental net-effect advances;
    ``primitives_scanned`` counts from-scratch suffix refolds (the
    non-incremental path). The substrate gate's triggering-work ratio
    is ``scanned(incremental=False) / folded(incremental=True)`` over
    the same workload. ``touch_skips`` counts triggering checks
    answered by the per-table touch index alone; ``verdict_hits``
    counts checks answered by the cached verdict (no refold);
    ``trigger_seconds`` is wall time spent in triggered_rules() scans
    (the --profile surface).
    """

    FIELDS = (
        "trigger_checks",
        "touch_skips",
        "verdict_hits",
        "primitives_folded",
        "primitives_scanned",
        "forks",
        "considerations",
        "trigger_seconds",
    )
    SECONDS = frozenset({"trigger_seconds"})


class _RuleTransition:
    """A rule's cached pending transition: the net effect of the log
    suffix past its marker, advanced incrementally.

    ``marker`` is the marker value the fold started from (stale folds —
    the marker moved without :meth:`RuleProcessor.consider`, e.g. by the
    tracer — are detected and rebuilt); ``position`` is the log position
    folded up to. ``triggered``/``checked_at`` cache the triggering
    verdict; the verdict stays valid until the rule's table is written
    past ``checked_at``. ``canonical_at`` keys the memoized canonical
    form used by ``state_key``.
    """

    __slots__ = (
        "marker",
        "position",
        "net",
        "triggered",
        "checked_at",
        "canonical",
        "canonical_at",
    )

    def __init__(self, marker: int) -> None:
        self.marker = marker
        self.position = marker
        self.net = NetEffect()
        self.triggered: bool | None = None
        self.checked_at = -1
        self.canonical: tuple | None = None
        self.canonical_at = -1

    def fork(self) -> "_RuleTransition":
        clone = _RuleTransition(self.marker)
        clone.position = self.position
        clone.net = self.net.share()
        clone.triggered = self.triggered
        clone.checked_at = self.checked_at
        clone.canonical = self.canonical
        clone.canonical_at = self.canonical_at
        return clone


class RuleProcessor:
    """Processes rules over a database at assertion points."""

    def __init__(
        self,
        ruleset: RuleSet,
        database: Database,
        strategy=None,
        max_steps: int = 10_000,
        *,
        config: ExecutionConfig | None = None,
    ) -> None:
        if ruleset.schema is not database.schema:
            raise RuleProcessingError(
                "rule set and database use different schemas"
            )
        self.ruleset = ruleset
        self.database = database
        self.strategy = strategy or FirstEligibleStrategy()
        self.max_steps = max_steps
        #: the session's execution options
        self.config = resolve_config(config)
        self.incremental = self.config.incremental

        self.log = DeltaLog()
        self.markers: dict[str, int] = {rule.name: 0 for rule in ruleset}
        self.observables: list[ObservableAction] = []
        self.stats = ProcessorStats()
        self._column_names = {
            table.name: table.column_names for table in ruleset.schema
        }
        self._transitions: dict[str, _RuleTransition] = {}

        #: hash-partition declared tables before the first snapshot so
        #: every fork and restore carries the shard layout
        if self.config.partitions > 1:
            database.apply_partitioning(self.config.partitions)
        #: the cached ParallelScheduler (scheduler="parallel" only);
        #: built lazily on the first run() so its memoized pair
        #: verdicts and static partition map persist across assertion
        #: points
        self._parallel = None

        self._transaction_snapshot = database.snapshot()
        self._rolled_back = False

        #: the incremental match network (rete matching only): topology
        #: compiled once per processor, memories built lazily and shared
        #: copy-on-write across fork()s
        self._rete = None
        if self.config.matching == "rete":
            self._rete = ReteInstance(
                ReteNetwork(ruleset), database, self.log
            )

        #: WAL writer when running durably, else None. Every primitive
        #: the delta log records is framed into the WAL under the open
        #: transaction id; begin/commit/abort markers bracket it.
        wal_setting = self.config.wal
        self.wal = None
        if wal_setting is not None and not isinstance(wal_setting, str):
            self.wal = wal_setting
        self._txn_id = 1
        if self.wal is None and self.config.wants_wal:
            if not isinstance(wal_setting, str):
                raise RuleProcessingError(
                    "durable mode needs ExecutionConfig.wal: a WAL path "
                    "or a WalWriter"
                )
            from repro.engine.wal import WalWriter

            self.wal = WalWriter(wal_setting, schema=database.schema)
        if self.wal is not None:
            if any(len(database.table(t.name)) for t in database.schema):
                # The session may start from a pre-loaded database whose
                # rows were never logged; checkpoint them so recovery
                # replays onto the same base state.
                self.wal.checkpoint(database)
            self.wal.begin(self._txn_id)
            self.log.set_sink(self._log_to_wal)

    # ------------------------------------------------------------------
    # Transaction control and user operations
    # ------------------------------------------------------------------

    def _log_to_wal(self, primitive) -> None:
        self.wal.primitive(self._txn_id, primitive)

    def begin_transaction(self) -> None:
        """Start a fresh transaction at the current database state."""
        self._transaction_snapshot = self.database.snapshot()
        self._rolled_back = False
        if self.wal is not None:
            self._txn_id += 1
            self.wal.begin(self._txn_id)

    def commit(self) -> int | None:
        """Commit the current transaction durably.

        Flushes and fsyncs the WAL through this transaction's commit
        marker — the instant the marker is on disk, recovery lands on
        this exact state. The next transaction begins immediately (so
        every later primitive has an open transaction to belong to),
        and the rollback restore point advances to the commit point.

        Returns the WAL frame count as of the commit marker (None when
        not durable) — the crash-simulation harness keys on it.
        """
        if self._rolled_back:
            raise RuleProcessingError("transaction was rolled back")
        frames = None
        if self.wal is not None:
            frames = self.wal.commit(self._txn_id)
        self._transaction_snapshot = self.database.snapshot()
        if self.wal is not None:
            self._txn_id += 1
            self.wal.begin(self._txn_id)
        return frames

    def close(self) -> None:
        """Close the WAL (if any) without committing the open
        transaction — its frames may reach disk but recovery discards
        them, exactly like a crash at this point."""
        if self.wal is not None:
            self.log.set_sink(None)
            self.wal.close()
            self.wal = None

    def execute_user(self, statement: ast.Statement | str):
        """Execute a user-generated operation (no rule processing yet).

        These operations form the initial transition of the next
        assertion point. Accepts an AST statement or source text.
        """
        if self._rolled_back:
            raise RuleProcessingError("transaction was rolled back")
        if isinstance(statement, str):
            statement = parse_statement(statement)
        return execute_statement(
            self.database, statement, log=self.log, config=self.config
        )

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------

    def _transition_for(self, rule_name: str) -> _RuleTransition:
        """The rule's cached transition, advanced to the current log end.

        Each primitive is folded into a given rule's net effect at most
        once (amortized); markers moved behind our back (the tracer
        pokes ``markers`` directly) invalidate the fold wholesale.
        """
        marker = self.markers[rule_name]
        transition = self._transitions.get(rule_name)
        if transition is None or transition.marker != marker:
            transition = _RuleTransition(marker)
            self._transitions[rule_name] = transition
        position = self.log.position
        if transition.position < position:
            self.stats.primitives_folded += position - transition.position
            transition.net = transition.net.fold(
                self.log.iter_range(transition.position, position)
            )
            transition.position = position
            transition.triggered = None
        return transition

    def pending_net_effect(self, rule_name: str) -> NetEffect:
        """The composite transition since *rule_name* was last considered."""
        rule_name = rule_name.lower()
        if not self.incremental:
            marker = self.markers[rule_name]
            suffix = self.log.since(marker)
            self.stats.primitives_scanned += len(suffix)
            return NetEffect.from_primitives(suffix)
        # The cached net effect escapes to the caller: mark it shared so
        # later folds copy instead of mutating what the caller holds.
        return self._transition_for(rule_name).net.share()

    def _is_triggered(self, rule) -> bool:
        """One rule's triggering check against its pending transition."""
        self.stats.trigger_checks += 1
        if not self.incremental:
            net = self.pending_net_effect(rule.name)
            if net.is_empty():
                return False
            return bool(net.operations(self._column_names) & rule.triggered_by)

        marker = self.markers[rule.name]
        if not self.log.written_since(rule.table, marker):
            # Touch index: the rule's table was not written since its
            # marker, so its triggering transition contains no operation
            # on that table — nothing in Triggered-By can hold. The
            # cached net effect is not even consulted (or advanced).
            self.stats.touch_skips += 1
            return False
        transition = self._transitions.get(rule.name)
        if (
            transition is not None
            and transition.marker == marker
            and transition.triggered is not None
            and not self.log.written_since(rule.table, transition.checked_at)
        ):
            # Cached verdict: no primitive on the rule's table appeared
            # since it was computed, so the verdict is unchanged.
            self.stats.verdict_hits += 1
            return transition.triggered
        transition = self._transition_for(rule.name)
        operations = transition.net.operations_for(
            rule.table, self._column_names[rule.table]
        )
        transition.triggered = bool(operations & rule.triggered_by)
        transition.checked_at = transition.position
        return transition.triggered

    def triggered_rules(self) -> tuple[str, ...]:
        """All currently triggered rules, in definition order."""
        if self._rolled_back:
            return ()
        started = time.perf_counter()
        triggered = tuple(
            rule.name
            for rule in self.ruleset
            if self.ruleset.is_active(rule.name) and self._is_triggered(rule)
        )
        self.stats.trigger_seconds += time.perf_counter() - started
        return triggered

    def eligible_rules(self) -> tuple[str, ...]:
        """``Choose`` applied to the current triggered set."""
        return self.ruleset.choose(self.triggered_rules())

    # ------------------------------------------------------------------
    # Consideration of a single rule
    # ------------------------------------------------------------------

    def consider(
        self, rule_name: str, *, eligible: tuple[str, ...] | None = None
    ) -> ConsiderationOutcome:
        """Consider one rule: check its condition, maybe run its action.

        The caller must pass a currently eligible rule (this is checked).
        A caller that just computed :meth:`eligible_rules` passes it as
        *eligible* so the scan is not repeated; the membership check
        against the provided tuple is O(|eligible|).
        """
        rule_name = rule_name.lower()
        if eligible is None:
            eligible = self.eligible_rules()
        if rule_name not in eligible:
            raise RuleProcessingError(
                f"rule {rule_name!r} is not eligible for consideration"
            )
        rule = self.ruleset.rule(rule_name)
        self.stats.considerations += 1

        triggering_net = self.pending_net_effect(rule_name)
        overlays = transition_table_overlays(
            triggering_net, rule.table, self._column_names[rule.table]
        )
        provider = OverlayProvider(DatabaseProvider(self.database), overlays)

        # Mark the rule considered *before* running its action: the rule
        # sees its own action's operations as a fresh transition (and may
        # re-trigger itself), per Section 2.
        self.markers[rule_name] = self.log.position
        self._transitions[rule_name] = _RuleTransition(self.log.position)

        condition_true = True
        if rule.condition is not None:
            verdict = None
            if self._rete is not None:
                # The network's verdict equals the planned executor's by
                # construction; None means this condition is not
                # network-supported (or the instance got poisoned) and
                # the planned path below answers instead.
                verdict = self._rete.verdict(rule_name)
            if verdict is not None:
                condition_true = verdict
            else:
                evaluator = Evaluator(provider, config=self.config)
                if self.config.matching == "naive":
                    value = evaluator.evaluate(rule.condition, RowContext())
                else:
                    condition = P.compile_predicate(rule.condition)
                    value = condition(RowContext(), evaluator)
                condition_true = sql_is_truthy(value)

        if not condition_true:
            return ConsiderationOutcome(
                rule=rule_name,
                condition_was_true=False,
                operations_performed=0,
            )

        operations_before = self.log.position
        try:
            for action in rule.actions:
                result = execute_statement(
                    self.database,
                    action,
                    provider=provider,
                    log=self.log,
                    config=self.config,
                )
                if result.kind == "select":
                    self.observables.append(
                        ObservableAction.select(
                            rule_name, result.query_result.rows
                        )
                    )
        except RollbackSignal as signal:
            self._rollback(rule_name, signal.message)
            return ConsiderationOutcome(
                rule=rule_name,
                condition_was_true=True,
                operations_performed=0,
                rolled_back=True,
            )

        return ConsiderationOutcome(
            rule=rule_name,
            condition_was_true=True,
            operations_performed=self.log.position - operations_before,
        )

    def _rollback(self, rule_name: str, message: str) -> None:
        self.database.restore(self._transaction_snapshot)
        self.observables.append(ObservableAction.rollback(rule_name, message))
        self._rolled_back = True
        if self.wal is not None:
            self.wal.abort(self._txn_id)
        # Advance every marker past the aborted suffix and drop cached
        # transitions: the undone primitives must not compose into any
        # rule's next transition. run() used to do this at quiescence,
        # which left step-by-step callers (the explorer, tests driving
        # consider() directly) seeing phantom pending transitions after
        # a rollback — and a begin_transaction() after such a rollback
        # would re-trigger rules from operations that never happened.
        position = self.log.position
        for name in self.markers:
            self.markers[name] = position
        self._transitions.clear()
        if self._rete is not None:
            # The restore rewrote the database underneath the network's
            # memories (the log is not truncated); rebuild lazily from
            # the restored state.
            self._rete.invalidate()

    @property
    def rolled_back(self) -> bool:
        return self._rolled_back

    # ------------------------------------------------------------------
    # The rule-processing loop (an assertion point)
    # ------------------------------------------------------------------

    def run(self) -> ProcessingResult:
        """Process rules at an assertion point until quiescence.

        Raises :class:`RuleProcessingLimitExceeded` past ``max_steps`` —
        callers treat that as possible nontermination.

        When processing completes, every rule's marker advances to the
        end of the log: Section 2 specifies that at the *next* assertion
        point a not-yet-considered rule is triggered by "the transition
        since the last rule assertion point", not since the start of the
        transaction. (During processing this advance is invisible — no
        rule is triggered at quiescence — but it changes what composes
        into the next assertion point's transitions.)

        With ``config.scheduler == "parallel"`` the loop is delegated
        to the commutativity-certified batch scheduler
        (:class:`~repro.runtime.parallel.ParallelScheduler`), which is
        required to reach a byte-identical final state.
        """
        if self.config.scheduler == "parallel":
            if self._parallel is None:
                # Imported lazily: the scheduler imports the analysis
                # stack, which imports this module.
                from repro.runtime.parallel import ParallelScheduler

                self._parallel = ParallelScheduler(self)
            return self._parallel.run()
        steps: list[ConsiderationOutcome] = []
        observables_before = len(self.observables)
        while True:
            eligible = self.eligible_rules()
            if not eligible:
                return self.finish_assertion_point(steps, observables_before)
            if len(steps) >= self.max_steps:
                raise RuleProcessingLimitExceeded(self.max_steps)
            chosen = self.strategy.choose(eligible)
            steps.append(self.consider(chosen, eligible=eligible))

    def finish_assertion_point(
        self, steps: list[ConsiderationOutcome], observables_before: int
    ) -> ProcessingResult:
        """End rule processing at an assertion point with nothing left
        eligible: advance every marker to the end of the log (see
        :meth:`run`), drop the per-rule transitions they invalidate,
        and report *steps* plus the observables emitted since
        *observables_before*. Shared by every quiescence loop."""
        position = self.log.position
        for name in self.markers:
            self.markers[name] = position
        self._transitions.clear()
        return ProcessingResult(
            outcome="rolled_back" if self._rolled_back else "quiescent",
            steps=steps,
            observables=self.observables[observables_before:],
        )

    # ------------------------------------------------------------------
    # State identity and forking (used by the execution-graph explorer)
    # ------------------------------------------------------------------

    def _pending_canonical(self, rule_name: str) -> tuple:
        """Canonical *visible* pending transition, memoized per fold.

        Restricted to the rule's subscribed table: triggering checks and
        transition-table overlays both read only
        ``net_effect.table(rule.table)``, and everything else the rule
        can see (the database proper) is keyed separately, so pending
        writes on other tables are invisible to this rule's future
        behavior and must not block state merging.
        """
        table = self.ruleset.rule(rule_name).table
        if not self.incremental:
            return self.pending_net_effect(rule_name).table(table).canonical()
        transition = self._transition_for(rule_name)
        if transition.canonical_at != transition.position:
            transition.canonical = transition.net.table(table).canonical()
            transition.canonical_at = transition.position
        return transition.canonical

    def state_key(self) -> tuple:
        """A hashable canonical key for the execution-graph state (D, TR).

        Includes the visible pending transition of *every* rule (not
        just the triggered ones): a pending-but-not-yet-triggering
        composite transition on the rule's own table influences future
        triggering, so states that differ there must not be merged.
        Execution orders that converge to the same database with the
        same visible pendings *do* merge (``explore()`` counts them in
        ``states_deduped``).

        Canonical fragments are memoized: per-table database canonicals
        carry across copy-on-write forks until the table is written, and
        per-rule pending canonicals until the rule's fold advances.
        """
        pending = tuple(
            (rule.name, self._pending_canonical(rule.name))
            for rule in self.ruleset
        )
        return (self._rolled_back, self.database.canonical(), pending)

    def paper_state_key(self) -> tuple:
        """The paper's state ``S = (D, TR)`` — triggered rules only.

        Coarser than :meth:`state_key`: the paper's execution-graph
        states carry only the *triggered* rules and their transition
        tables. Untriggered rules' pending (non-triggering) composite
        transitions still influence future behavior at tuple
        granularity, so exploration dedups on the finer
        :meth:`state_key`; this key exists to validate paper-level
        claims (the Figure 1 commutativity diamond, state-identity in
        Lemmas 6.3/6.4).
        """
        triggered = self.triggered_rules()
        pending = tuple(
            (name, self._pending_canonical(name)) for name in triggered
        )
        return (self._rolled_back, self.database.canonical(), pending)

    def fork(self) -> "RuleProcessor":
        """An independent copy sharing the rule set (which is immutable
        during processing).

        With the incremental substrate this is O(tables + chunks +
        rules): the database copy is copy-on-write, the log aliases its
        sealed chunks, and the cached per-rule transitions (net effects,
        triggering verdicts, canonical fragments) are shared with the
        child, diverging copy-on-write at the first fold that touches
        them. ``incremental=False`` performs the original deep copies.
        """
        self.stats.forks += 1
        clone = RuleProcessor.__new__(RuleProcessor)
        clone.ruleset = self.ruleset
        clone.strategy = self.strategy
        clone.max_steps = self.max_steps
        clone.config = self.config
        clone.incremental = self.incremental
        clone.markers = dict(self.markers)
        clone.observables = list(self.observables)
        clone.stats = self.stats
        clone._column_names = self._column_names
        clone._transaction_snapshot = self._transaction_snapshot
        clone._rolled_back = self._rolled_back
        # Forks are exploratory: they never write to the durable log
        # (DeltaLog.fork() likewise drops the WAL sink). They also run
        # their considerations serially — batch scheduling happens only
        # at the top-level processor.
        clone.wal = None
        clone._txn_id = self._txn_id
        clone._parallel = None
        if self.incremental:
            clone.database = self.database.copy()
            clone.log = self.log.fork()
            clone._transitions = {
                name: transition.fork()
                for name, transition in self._transitions.items()
            }
        else:
            clone.database = self.database.copy(cow=False)
            clone.log = self.log.fork(share=False)
            clone._transitions = {}
        clone._rete = (
            None
            if self._rete is None
            else self._rete.fork(clone.database, clone.log)
        )
        return clone
