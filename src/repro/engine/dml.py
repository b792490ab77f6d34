"""Set-oriented DML execution: INSERT, DELETE, UPDATE, SELECT, ROLLBACK.

Statements execute against a :class:`~repro.engine.database.Database`
through a table *provider* (so that rule actions can read transition
tables), and report every tuple they touch to an optional
:class:`~repro.transitions.delta.DeltaLog`.

Semantics are set-oriented, like Starburst's: DELETE and UPDATE first
evaluate their WHERE predicate against the pre-statement state and
collect the target tids, then apply all changes; INSERT ... SELECT fully
evaluates the query before inserting. A statement therefore never
observes its own partial effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ExecutionConfig, resolve_config
from repro.engine import plan as P
from repro.engine.database import Database
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.query import DatabaseProvider, QueryResult, execute_select
from repro.engine.values import sql_is_truthy
from repro.errors import ExecutionError, RollbackSignal
from repro.lang import ast
from repro.transitions.delta import DeltaLog


@dataclass
class StatementResult:
    """What a statement did: rows affected, and query output if a SELECT."""

    kind: str
    affected: int = 0
    query_result: QueryResult | None = None
    touched_tables: frozenset[str] = field(default_factory=frozenset)


def execute_statement(
    database: Database,
    stmt: ast.Statement,
    provider=None,
    log: DeltaLog | None = None,
    *,
    config: ExecutionConfig | None = None,
) -> StatementResult:
    """Execute one statement; returns a :class:`StatementResult`.

    ``provider`` defaults to a plain :class:`DatabaseProvider` over
    *database*; pass an overlay provider to expose transition tables.
    A :class:`~repro.errors.RollbackSignal` propagates out of ROLLBACK.
    Execution options arrive as an
    :class:`~repro.config.ExecutionConfig`: ``matching="naive"`` forces
    the naive reference executor throughout.
    """
    config = resolve_config(config)
    if provider is None:
        provider = DatabaseProvider(database)

    if isinstance(stmt, ast.Select):
        result = execute_select(provider, stmt, config=config)
        return StatementResult(
            kind="select", affected=len(result.rows), query_result=result
        )

    if isinstance(stmt, ast.Insert):
        return _execute_insert(database, stmt, provider, log, config)

    if isinstance(stmt, ast.Delete):
        return _execute_delete(database, stmt, provider, log, config)

    if isinstance(stmt, ast.Update):
        return _execute_update(database, stmt, provider, log, config)

    if isinstance(stmt, ast.Rollback):
        raise RollbackSignal(stmt.message)

    raise ExecutionError(f"unsupported statement type: {type(stmt).__name__}")


def execute_script(
    database: Database,
    statements: list[ast.Statement],
    provider=None,
    log: DeltaLog | None = None,
    *,
    config: ExecutionConfig | None = None,
) -> list[StatementResult]:
    """Execute statements in order, stopping on rollback (which re-raises)."""
    config = resolve_config(config)
    return [
        execute_statement(database, stmt, provider=provider, log=log, config=config)
        for stmt in statements
    ]


# ----------------------------------------------------------------------
# INSERT
# ----------------------------------------------------------------------


def _execute_insert(
    database: Database,
    stmt: ast.Insert,
    provider,
    log: DeltaLog | None,
    config: ExecutionConfig,
) -> StatementResult:
    table = stmt.table.lower()
    arity = len(database.schema.table(table))

    if stmt.query is not None:
        rows = list(execute_select(provider, stmt.query, config=config).rows)
    else:
        evaluator = Evaluator(provider, config=config)
        empty = RowContext()
        rows = [
            tuple(evaluator.evaluate(value, empty) for value in row)
            for row in stmt.rows
        ]

    for row in rows:
        if len(row) != arity:
            raise ExecutionError(
                f"insert into {table!r} expects {arity} values, got {len(row)}"
            )

    for row in rows:
        tid = database.insert_row(table, row)
        if log is not None:
            log.record_insert(table, tid, row)

    return StatementResult(
        kind="insert", affected=len(rows), touched_tables=frozenset({table})
    )


# ----------------------------------------------------------------------
# DELETE
# ----------------------------------------------------------------------


def _pruned_rows(
    database: Database,
    table: str,
    binding: str,
    where: ast.Expression,
    evaluator: Evaluator,
):
    """The pruned target scan a partition-key conjunct allows, or None
    when pruning does not apply.

    Sound whenever a *top-level AND* conjunct of *where* pins the
    partition key to a row-independent value: any row outside the
    key's shard evaluates that conjunct to False (or NULL), so under
    Kleene AND the whole predicate cannot be True for it —
    :func:`~repro.engine.partition.stable_shard`'s equality-consistency
    guarantees every possibly-matching row lives in the probed shard.
    A key expression that raises falls back to the full scan so the
    per-row error behavior of the serial path is preserved.

    Returns ``(rows, key_index, key_value, residual_conjuncts)``: the
    probed shard's rows, the key column to equality-guard them on (the
    shard may hold hash siblings of *key_value*), and the conjuncts
    still to evaluate per row — the pruned conjunct itself is elided,
    its work done by the raw guard. ``rows`` is empty for a NULL key
    value (``key = NULL`` matches no row).
    """
    data = database.table(table)
    if data.shard_count == 0:
        return None
    key_col = data.partition_column
    columns = database.schema.table(table).column_names
    binding_columns = {binding: columns}
    if binding != table:
        binding_columns[table] = columns
    conjuncts = list(ast.split_conjuncts(where))
    for conjunct in conjuncts:
        for candidate in binding_columns:
            probe = P._as_const_probe(conjunct, candidate, binding_columns)
            if probe is None or probe.column != key_col:
                continue
            try:
                value = evaluator.evaluate(probe.value, RowContext())
            except Exception:
                return None
            if value is None:
                return [], key_col, None, []
            P.STATS.shard_probes += 1
            residual = [c for c in conjuncts if c is not conjunct]
            return (
                data.shard_rows(data.shard_of_value(value)),
                key_col,
                value,
                residual,
            )
    return None


def _matching_tids(
    database: Database,
    table: str,
    binding: str,
    where: ast.Expression | None,
    provider,
    config: ExecutionConfig,
) -> list[int]:
    """Tids of rows in *table* satisfying *where* (pre-statement state).

    With partitioning enabled, a target scan over a sharded table first
    tries partition pruning (see :func:`_pruned_rows`); an unprunable
    scan reads the flat tid-ordered row list like any other.
    """
    if where is None:
        return [row.tid for row in database.rows(table)]
    columns = database.schema.table(table).column_names
    evaluator = Evaluator(provider, config=config)
    planned = config.matching != "naive"
    predicate = P.compile_predicate(where) if planned else None

    if config.partitions > 1 and planned:
        pruned = _pruned_rows(database, table, binding, where, evaluator)
        if pruned is not None:
            rows, key_index, key_value, residual = pruned
            checks = [P.compile_predicate(conjunct) for conjunct in residual]
            matched = []
            context = RowContext()
            for row in rows:
                # Raw guard standing in for the elided key conjunct:
                # stable_shard's equality consistency tracks Python ==,
                # and a NULL key value compares unequal here exactly as
                # SQL equality excludes it.
                if row.values[key_index] != key_value:
                    continue
                context.bind(binding, columns, row.values)
                if binding != table:
                    context.bind(table, columns, row.values)
                if all(
                    sql_is_truthy(check(context, evaluator))
                    for check in checks
                ):
                    matched.append(row.tid)
            return matched
    rows = database.rows(table)

    matched = []
    context = RowContext()
    for row in rows:
        context.bind(binding, columns, row.values)
        if binding != table:
            # The bare table name also resolves, as in SQL.
            context.bind(table, columns, row.values)
        if predicate is not None:
            keep = predicate(context, evaluator)
        else:
            keep = evaluator.evaluate(where, context)
        if sql_is_truthy(keep):
            matched.append(row.tid)
    return matched


def _execute_delete(
    database: Database,
    stmt: ast.Delete,
    provider,
    log: DeltaLog | None,
    config: ExecutionConfig,
) -> StatementResult:
    table = stmt.table.lower()
    binding = (stmt.alias or stmt.table).lower()
    tids = _matching_tids(database, table, binding, stmt.where, provider, config)
    for tid in tids:
        old = database.delete_row(table, tid)
        if log is not None:
            log.record_delete(table, tid, old)
    return StatementResult(
        kind="delete", affected=len(tids), touched_tables=frozenset({table})
    )


# ----------------------------------------------------------------------
# UPDATE
# ----------------------------------------------------------------------


def _execute_update(
    database: Database,
    stmt: ast.Update,
    provider,
    log: DeltaLog | None,
    config: ExecutionConfig,
) -> StatementResult:
    table = stmt.table.lower()
    binding = (stmt.alias or stmt.table).lower()
    definition = database.schema.table(table)
    columns = definition.column_names
    assignment_indexes = [
        (definition.column_index(assignment.column), assignment.value)
        for assignment in stmt.assignments
    ]

    tids = _matching_tids(database, table, binding, stmt.where, provider, config)

    # Compute all new values against the pre-statement state first.
    compile_values = config.matching != "naive"
    evaluator = Evaluator(provider, config=config)
    if compile_values:
        compiled = [
            (index, P.compile_predicate(value_expr))
            for index, value_expr in assignment_indexes
        ]
    planned: list[tuple[int, tuple, tuple]] = []
    table_data = database.table(table)
    for tid in tids:
        old = table_data.get(tid)
        assert old is not None
        context = RowContext()
        context.bind(binding, columns, old)
        if binding != table:
            context.bind(table, columns, old)
        new = list(old)
        if compile_values:
            for index, value in compiled:
                new[index] = value(context, evaluator)
        else:
            for index, value_expr in assignment_indexes:
                new[index] = evaluator.evaluate(value_expr, context)
        planned.append((tid, old, tuple(new)))

    for tid, old, new in planned:
        database.update_row(table, tid, new)
        if log is not None:
            log.record_update(table, tid, old, new)

    return StatementResult(
        kind="update", affected=len(planned), touched_tables=frozenset({table})
    )
