"""Rule commutativity analysis — Lemma 6.1.

Two rules ``ri`` and ``rj`` commute when considering them in either
order from any execution-graph state produces the same state (Figure 1).
Lemma 6.1 gives conservative syntactic conditions under which a pair
*may be noncommutative*; a pair hitting none of them is guaranteed to
commute:

1. ``rj ∈ Triggers(ri)`` — ri can cause rj to become triggered;
2. ``rj ∈ Can-Untrigger(Performs(ri))`` — ri can untrigger rj;
3. ri's operations can affect what rj reads;
4. ri's insertions can affect what rj updates or deletes (same table);
5. ri's updates can affect rj's updates (same column);
6. any of 1–5 with ri and rj reversed.

The analyzer also holds *user certifications* (Section 6.1): pairs the
user has declared to actually commute despite appearing noncommutative
(e.g. the paper's two examples — insert never satisfying the delete
condition; updates of disjoint tuple sets).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.derived import DerivedDefinitions
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.values import sql_is_truthy
from repro.errors import ReproError
from repro.lang import ast


@dataclass(frozen=True)
class NoncommutativityReason:
    """Why a pair may be noncommutative.

    ``condition`` is the Lemma 6.1 condition number (1–5); ``first`` and
    ``second`` identify the direction in which it fired (``first`` plays
    ri, ``second`` plays rj). ``detail`` is a human-readable witness.
    """

    condition: int
    first: str
    second: str
    detail: str

    def __str__(self) -> str:
        return (
            f"condition {self.condition} ({self.first} vs {self.second}): "
            f"{self.detail}"
        )


class CommutativityAnalyzer:
    """Lemma 6.1 over a rule set's derived definitions, with certifications.

    ``granularity`` is an ablation knob: ``"column"`` (the paper's
    conditions — updates interfere per column) or ``"table"`` (a coarser
    variant where any update to a table conflicts with any read of or
    update to that table). The benchmarks use the table mode to quantify
    how much precision the paper's column-level ``(U, t.c)`` events buy.

    ``refine`` enables the "less conservative methods" the paper lists
    as future work ("more complex analysis of SQL ... a suite of
    special cases"). Both of Lemma 6.1's "actually commute" examples
    are discharged automatically:

    * **example 1** — when ``ri`` only inserts literal rows and ``rj``'s
      delete/update predicate over that table provably rejects every
      one of those rows, conditions 3/4 do not fire (sound because the
      predicate is *closed* — only the target table's columns, no
      subqueries — so its value on the inserted rows is
      state-independent);
    * **example 2** — when both rules' updates of a shared table carry
      closed WHERE clauses pinning a common discriminator column to
      different literals (and neither assigns that column, nor touches
      the table any other way), their row sets are fixed and disjoint,
      so conditions 3/5 do not fire for that table.

    ``column_dataflow`` swaps condition 3's read sets for the
    attribute-level footprints of :mod:`repro.analysis.dataflow`: update
    events are tested against the value-sensitive ``ColumnReads`` (so
    an ``exists (select * from t ...)`` no longer conflicts with updates
    of ``t``'s unexamined columns) while insert/delete events are tested
    against ``ColumnReads``' tables ∪ ``RowReadTables`` (so existence
    reads still see row insertion/removal). Strictly pruning relative to
    the default, and composable with ``refine``. Requires
    ``granularity="column"``.
    """

    def __init__(
        self,
        definitions: DerivedDefinitions,
        granularity: str = "column",
        refine: bool = False,
        *,
        column_dataflow: bool = False,
        cache: dict[frozenset[str], tuple[NoncommutativityReason, ...]]
        | None = None,
        stats=None,
        on_certification=None,
    ) -> None:
        if granularity not in ("column", "table"):
            raise ValueError("granularity must be 'column' or 'table'")
        if column_dataflow and granularity != "column":
            raise ValueError(
                "column_dataflow requires granularity='column' (the "
                "dataflow pass refines the column-level conditions)"
            )
        self.definitions = definitions
        self.granularity = granularity
        self.refine = refine
        self.column_dataflow = column_dataflow
        self._certified: set[frozenset[str]] = set()
        #: raw Lemma 6.1 verdict memo; injectable so an engine (and its
        #: restricted sub-engines) can share one content-addressed store
        self._cache = cache if cache is not None else {}
        #: optional EngineStats-like object with ``lemma_judgments`` /
        #: ``lemma_memo_hits`` counters
        self._stats = stats
        #: optional hook ``(pair, added)`` fired on certify/revoke so an
        #: engine can invalidate dependent pair verdicts even when the
        #: certification is made directly on this object
        self._on_certification = on_certification

    # ------------------------------------------------------------------
    # Certification (the user-interaction hook of Section 6.1)
    # ------------------------------------------------------------------

    def certify_commutes(self, first: str, second: str) -> None:
        """Declare that *first* and *second* actually commute."""
        pair = frozenset({first.lower(), second.lower()})
        if len(pair) != 2:
            return  # every rule commutes with itself already
        if pair not in self._certified:
            self._certified.add(pair)
            if self._on_certification is not None:
                self._on_certification(pair, True)

    def revoke_certification(self, first: str, second: str) -> bool:
        pair = frozenset({first.lower(), second.lower()})
        if pair in self._certified:
            self._certified.discard(pair)
            if self._on_certification is not None:
                self._on_certification(pair, False)
            return True
        return False

    @property
    def certified_pairs(self) -> frozenset[frozenset[str]]:
        return frozenset(self._certified)

    # ------------------------------------------------------------------
    # The commutativity judgment
    # ------------------------------------------------------------------

    def commute(self, first: str, second: str) -> bool:
        """True iff the pair is guaranteed (or certified) to commute."""
        first = first.lower()
        second = second.lower()
        if first == second:
            return True  # "Each rule clearly commutes with itself."
        if frozenset({first, second}) in self._certified:
            return True
        return not self.noncommutativity_reasons(first, second)

    def noncommutativity_reasons(
        self, first: str, second: str
    ) -> tuple[NoncommutativityReason, ...]:
        """All Lemma 6.1 conditions that fire for the pair (both
        directions); empty means guaranteed commutative. Certifications
        are *not* applied here — this reports the raw syntactic analysis.

        The memoized tuple is always oriented to the sorted pair, so the
        result is independent of which direction asked first.
        """
        first = first.lower()
        second = second.lower()
        if first == second:
            return ()
        key = frozenset({first, second})
        cached = self._cache.get(key)
        if cached is None:
            cached = self.compute_reasons(*sorted((first, second)))
            self._cache[key] = cached
            if self._stats is not None:
                self._stats.lemma_judgments += 1
        elif self._stats is not None:
            self._stats.lemma_memo_hits += 1
        return cached

    def compute_reasons(
        self, first: str, second: str
    ) -> tuple[NoncommutativityReason, ...]:
        """The raw Lemma 6.1 judgment, bypassing (and not touching) the
        memo; everything it reads (definitions, rule ASTs, schema) is
        immutable."""
        first = first.lower()
        second = second.lower()
        return tuple(
            list(self._directed_reasons(first, second))
            + list(self._directed_reasons(second, first))
        )

    def invalidate_rules(self, names) -> int:
        """Drop every memoized judgment touching *names* (rule edits);
        returns the number of entries dropped."""
        wanted = {name.lower() for name in names}
        stale = [pair for pair in self._cache if pair & wanted]
        for pair in stale:
            del self._cache[pair]
        return len(stale)

    def _directed_reasons(self, ri: str, rj: str):
        defs = self.definitions
        performs_i = defs.performs(ri)
        performs_j = defs.performs(rj)

        # Condition 1: rj ∈ Triggers(ri)
        if rj in defs.triggers(ri):
            events = sorted(
                str(event)
                for event in performs_i & defs.triggered_by(rj)
            )
            yield NoncommutativityReason(
                condition=1,
                first=ri,
                second=rj,
                detail=f"{ri} can trigger {rj} via {', '.join(events)}",
            )

        # Condition 2: rj ∈ Can-Untrigger(Performs(ri))
        if rj in defs.can_untrigger(performs_i):
            tables = sorted(
                event.table for event in performs_i if event.kind == "D"
            )
            yield NoncommutativityReason(
                condition=2,
                first=ri,
                second=rj,
                detail=(
                    f"{ri}'s deletions from {', '.join(tables)} can "
                    f"untrigger {rj}"
                ),
            )

        # Tables where the two rules' updates provably touch disjoint
        # rows (the refined example-2 pattern): interference through
        # those tables is suppressed in conditions 3 and 5 below.
        if self.refine and self.granularity == "column":
            disjoint_tables = self._disjoint_update_tables(ri, rj)
        else:
            disjoint_tables = frozenset()

        # Condition 3: ri's operations can affect what rj reads. With
        # the attribute-level dataflow pass enabled, an update event
        # only interferes when rj's behavior depends on the *value* of
        # the updated column (ColumnReads); insert/delete events keep
        # interfering with row-membership reads (RowReadTables), which
        # keeps the refinement sound for existence-only reads like
        # ``exists (select * ...)`` and ``count(*)``.
        if self.column_dataflow:
            footprint_j = defs.dataflow(rj)
            reads_j = footprint_j.column_reads
            read_tables_j = set(footprint_j.read_tables)
        else:
            reads_j = defs.reads(rj)
            read_tables_j = {table for table, __ in reads_j}
        for event in sorted(performs_i, key=str):
            affected = False
            if event.kind in ("I", "D") and event.table in read_tables_j:
                affected = True
                if (
                    event.kind == "I"
                    and self.refine
                    and self._inserts_provably_unaffected(ri, rj, event.table)
                ):
                    affected = False
            if event.kind == "U":
                if self.granularity == "table":
                    affected = event.table in read_tables_j
                elif (event.table, event.column) in reads_j:
                    affected = event.table not in disjoint_tables
            if affected:
                yield NoncommutativityReason(
                    condition=3,
                    first=ri,
                    second=rj,
                    detail=f"{ri} performs {event} which {rj} reads",
                )

        # Condition 4: ri's insertions can affect what rj updates/deletes.
        inserted_tables_i = {
            event.table for event in performs_i if event.kind == "I"
        }
        for event in sorted(performs_j, key=str):
            if event.kind in ("D", "U") and event.table in inserted_tables_i:
                if self.refine and self._inserts_provably_unaffected(
                    ri, rj, event.table
                ):
                    continue
                yield NoncommutativityReason(
                    condition=4,
                    first=ri,
                    second=rj,
                    detail=(
                        f"{ri} inserts into {event.table} which {rj} "
                        f"{'deletes from' if event.kind == 'D' else 'updates'}"
                    ),
                )

        # Condition 5: updates of the same column (or, in the coarse
        # ablation mode, of the same table).
        suppressed = disjoint_tables
        if self.granularity == "table":
            updated_tables_i = {
                event.table for event in performs_i if event.kind == "U"
            }
            updated_tables_j = {
                event.table for event in performs_j if event.kind == "U"
            }
            for table in sorted(updated_tables_i & updated_tables_j):
                yield NoncommutativityReason(
                    condition=5,
                    first=ri,
                    second=rj,
                    detail=f"both update table {table}",
                )
            return
        updates_i = {
            (event.table, event.column)
            for event in performs_i
            if event.kind == "U"
        }
        updates_j = {
            (event.table, event.column)
            for event in performs_j
            if event.kind == "U"
        }
        for table, column in sorted(updates_i & updates_j):
            if table in suppressed:
                continue
            yield NoncommutativityReason(
                condition=5,
                first=ri,
                second=rj,
                detail=f"both update {table}.{column}",
            )

    # ------------------------------------------------------------------
    # Refinement: the Lemma 6.1 example-1 pattern, discharged statically
    # ------------------------------------------------------------------

    def _inserts_provably_unaffected(
        self, ri: str, rj: str, table: str
    ) -> bool:
        """True when every row ``ri`` can insert into *table* provably
        fails every predicate ``rj`` deletes/updates that table with.

        Requirements (all syntactic, all conservative):

        * every ``insert into table ...`` in ri's action uses literal
          VALUES rows (no SELECT source, no expressions);
        * ``rj`` never reads *table* through a SELECT (condition,
          subquery, action select or insert-select) or a transition
          table — its only contact is the WHERE of its own
          deletes/updates on *table*;
        * every such WHERE clause is *closed* — references only the
          target table's columns, with no subqueries — so it can be
          evaluated on a candidate row without any database state;
        * that evaluation is False or UNKNOWN for every literal row.
        """
        ri_rule = self.definitions.ruleset.rule(ri)
        rj_rule = self.definitions.ruleset.rule(rj)
        columns = self.definitions.ruleset.schema.table(table).column_names

        if not _reads_only_via_closed_wheres(rj_rule, table):
            return False

        literal_rows: list[tuple] = []
        for action in ri_rule.actions:
            if not isinstance(action, ast.Insert) or (
                action.table.lower() != table
            ):
                continue
            if action.query is not None:
                return False  # rows come from a query: value unknown
            for row in action.rows:
                values = []
                for expr in row:
                    value = _literal_value(expr)
                    if value is _NOT_LITERAL:
                        return False
                    values.append(value)
                literal_rows.append(tuple(values))
        if not literal_rows:
            return False

        evaluator = Evaluator(provider=None)  # closed predicates only
        for action in rj_rule.actions:
            predicate = None
            if isinstance(action, ast.Delete) and action.table.lower() == table:
                predicate = action.where
                binding = (action.alias or action.table).lower()
            elif isinstance(action, ast.Update) and (
                action.table.lower() == table
            ):
                predicate = action.where
                binding = (action.alias or action.table).lower()
            else:
                continue
            if predicate is None:
                return False  # unconditional write hits everything
            if not _is_closed_predicate(predicate, table, binding, columns):
                return False
            for row in literal_rows:
                context = RowContext()
                context.bind(binding, columns, row)
                if binding != table:
                    context.bind(table, columns, row)
                try:
                    if sql_is_truthy(evaluator.evaluate(predicate, context)):
                        return False  # some inserted row is affected
                except ReproError:
                    return False
        return True


    def _disjoint_update_tables(self, ri: str, rj: str) -> frozenset[str]:
        """Tables where ri's and rj's updates provably touch disjoint rows.

        The refined Lemma 6.1 example-2 pattern. A table ``t`` qualifies
        when, for both rules:

        * every action touching ``t`` is an UPDATE of ``t`` whose WHERE
          is closed (only ``t``'s columns, no subqueries) and contains a
          top-level conjunct ``discr = literal`` for a shared
          discriminator column ``discr``;
        * the rule never assigns ``discr`` (the row sets are fixed);
        * the rule's only *reads* of ``t`` are those WHERE clauses;

        and the two rules' discriminator literals differ. Then each
        rule's operations only ever touch its own fixed row set, so
        neither can affect what the other reads or writes on ``t``.
        """
        ri_rule = self.definitions.ruleset.rule(ri)
        rj_rule = self.definitions.ruleset.rule(rj)
        schema = self.definitions.ruleset.schema

        shared_tables = {
            event.table
            for event in self.definitions.performs(ri)
            if event.kind == "U"
        } & {
            event.table
            for event in self.definitions.performs(rj)
            if event.kind == "U"
        }

        qualifying: set[str] = set()
        for table in shared_tables:
            columns = schema.table(table).column_names
            keys_i = _update_discriminators(ri_rule, table, columns)
            keys_j = _update_discriminators(rj_rule, table, columns)
            if keys_i is None or keys_j is None:
                continue
            if not _reads_only_via_closed_wheres(ri_rule, table):
                continue
            if not _reads_only_via_closed_wheres(rj_rule, table):
                continue
            # Some shared discriminator column must separate every pair
            # of statements between the two rules.
            shared_columns = set(keys_i) & set(keys_j)
            if any(
                keys_i[column].isdisjoint(keys_j[column])
                for column in shared_columns
            ):
                qualifying.add(table)
        return frozenset(qualifying)


_NOT_LITERAL = object()


def _literal_value(expr: ast.Expression):
    if isinstance(expr, ast.Literal):
        return expr.value
    if (
        isinstance(expr, ast.UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, ast.Literal)
        and isinstance(expr.operand.value, (int, float))
    ):
        return -expr.operand.value
    return _NOT_LITERAL


def _is_closed_predicate(
    predicate: ast.Expression,
    table: str,
    binding: str,
    columns: tuple[str, ...],
) -> bool:
    """True when *predicate* only references *table*'s own columns and
    contains no subqueries (its value on a row is state-independent)."""
    for node in ast.walk_expression(predicate):
        if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            return False
        if isinstance(node, ast.ColumnRef):
            if node.table and node.table.lower() not in (table, binding):
                return False
            if node.column.lower() not in columns:
                return False
    return True


def _reads_only_via_closed_wheres(rule, table: str) -> bool:
    """True when *rule*'s only contact with *table* is the WHERE clause
    of its own deletes/updates on that table — no SELECT anywhere in its
    condition or action references it (directly or as a transition
    table of a rule defined on it)."""
    selects = []
    if rule.condition is not None:
        selects.extend(ast.subqueries_of(rule.condition))
    for action in rule.actions:
        selects.extend(ast.selects_of_statement(action))
    for select in selects:
        for ref in select.tables:
            name = ref.name.lower()
            if name == table:
                return False
            if name in ast.TRANSITION_TABLE_NAMES and rule.table == table:
                return False
    return True


def _update_discriminators(
    rule, table: str, columns: tuple[str, ...]
) -> dict[str, set] | None:
    """Discriminator equalities of *rule*'s updates on *table*.

    Returns ``{column: {literals}}`` for the columns that appear as a
    top-level ``column = literal`` conjunct in the WHERE of *every*
    statement of *rule* touching *table* — or None when the pattern
    does not apply (a non-update touches the table, a WHERE is missing
    or not closed, a discriminator is assigned by its own statement, or
    no common discriminator exists).
    """
    per_statement: list[dict[str, set]] = []
    for action in rule.actions:
        if isinstance(action, (ast.Insert, ast.Delete)) and (
            action.table.lower() == table
        ):
            return None  # non-update writes reintroduce interference
        if not isinstance(action, ast.Update) or action.table.lower() != table:
            continue
        if action.where is None:
            return None
        binding = (action.alias or action.table).lower()
        if not _is_closed_predicate(action.where, table, binding, columns):
            return None
        assigned = {a.column.lower() for a in action.assignments}
        equalities: dict[str, set] = {}
        for conjunct in ast.split_conjuncts(action.where):
            if not (
                isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
            ):
                continue
            column = None
            literal = _NOT_LITERAL
            if isinstance(conjunct.left, ast.ColumnRef):
                column = conjunct.left.column.lower()
                literal = _literal_value(conjunct.right)
            elif isinstance(conjunct.right, ast.ColumnRef):
                column = conjunct.right.column.lower()
                literal = _literal_value(conjunct.left)
            if (
                column is not None
                and literal is not _NOT_LITERAL
                and column not in assigned
            ):
                equalities.setdefault(column, set()).add(literal)
        if not equalities:
            return None
        per_statement.append(equalities)

    if not per_statement:
        return None
    common = set(per_statement[0])
    for equalities in per_statement[1:]:
        common &= set(equalities)
    if not common:
        return None
    return {
        column: set().union(
            *(equalities[column] for equalities in per_statement)
        )
        for column in common
    }
