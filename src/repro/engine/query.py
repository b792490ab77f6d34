"""SELECT execution: plan-driven scan/filter/hash-join, project, aggregate.

Table access goes through a *provider* with a single required method::

    resolve(name) -> (column_names, list_of_value_tuples)

:class:`DatabaseProvider` serves base tables; the rule runtime wraps it
in an overlay provider that adds the four transition tables. Keeping the
executor provider-agnostic is what lets rule conditions reference
``inserted``/``deleted``/``new_updated``/``old_updated`` with no special
cases here. Providers may additionally expose
``equality_index(name, cols)`` returning a persistent hash index (or
None); :mod:`repro.engine.plan` uses it to serve equality filters and
hash-join builds without scanning.

Execution is planned by default (see :mod:`repro.engine.plan`):
pushed-down filters, order-preserving hash joins, and compiled
predicates. ``execute_select(..., config=ExecutionConfig(matching="naive"))``
keeps the original cross-product-over-full-scans path as the reference implementation; the
two are required to produce byte-identical results, which the
equivalence harness and the ``bench_query_engine`` gate enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ExecutionConfig, resolve_config
from repro.engine import plan as P
from repro.engine import values as V
from repro.engine.database import Database
from repro.engine.expressions import Evaluator, RowContext
from repro.errors import QueryError
from repro.lang import ast


class DatabaseProvider:
    """A table provider backed directly by a :class:`Database`."""

    def __init__(self, database: Database) -> None:
        self._database = database

    def resolve(self, name: str) -> tuple[tuple[str, ...], list[tuple]]:
        table = self._database.table(name)
        columns = self._database.schema.table(name).column_names
        return columns, table.value_tuples()

    def equality_index(self, name: str, cols: tuple[int, ...]) -> dict:
        """The table's persistent hash index on the columns at *cols*."""
        return self._database.table(name).equality_index(cols)

    def shard_table(self, name: str):
        """The base :class:`~repro.engine.storage.TableData` for *name*
        (partition-aware scan paths read its shards directly)."""
        return self._database.table(name)


class OverlayProvider:
    """A provider that serves some tables itself and delegates the rest."""

    def __init__(
        self,
        base,
        overlays: dict[str, tuple[tuple[str, ...], list[tuple]]],
    ) -> None:
        self._base = base
        self._overlays = {name.lower(): value for name, value in overlays.items()}

    def resolve(self, name: str) -> tuple[tuple[str, ...], list[tuple]]:
        overlay = self._overlays.get(name.lower())
        if overlay is not None:
            return overlay
        return self._base.resolve(name)

    def equality_index(self, name: str, cols: tuple[int, ...]):
        """Delegate for base tables; None for overlays (the planner
        builds a transient index over the — typically tiny — overlay)."""
        if name.lower() in self._overlays:
            return None
        getter = getattr(self._base, "equality_index", None)
        return None if getter is None else getter(name, cols)

    def shard_table(self, name: str):
        """Delegate for base tables; None for overlays (an overlay is a
        small in-memory row list, never sharded storage)."""
        if name.lower() in self._overlays:
            return None
        getter = getattr(self._base, "shard_table", None)
        return None if getter is None else getter(name)


@dataclass(frozen=True)
class QueryResult:
    """The output of a SELECT: column names and value rows.

    ``rows`` is a tuple (of value tuples): results are immutable, so a
    caller can neither alias nor corrupt another caller's view of the
    same result.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise QueryError(
                f"expected a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        return self.rows[0][0]


def _contains_aggregate(expr: ast.Expression) -> bool:
    for node in ast.walk_expression(expr):
        if isinstance(node, ast.FuncCall) and node.name in ast.AGGREGATE_FUNCTIONS:
            return True
    return False


def _iter_contexts(
    sources: list[tuple[str, tuple[str, ...], list[tuple]]],
    outer_context: RowContext | None,
):
    """Yield one RowContext per element of the cross product of *sources*."""

    def recurse(index: int, context: RowContext):
        if index == len(sources):
            yield context
            return
        name, columns, rows = sources[index]
        for row in rows:
            context.bind(name, columns, row)
            yield from recurse(index + 1, context)

    base = RowContext(outer=outer_context)
    yield from recurse(0, base)


def execute_select(
    provider,
    select: ast.Select,
    outer_context: RowContext | None = None,
    *,
    config: ExecutionConfig | None = None,
) -> QueryResult:
    """Execute *select* against *provider* and return its result rows.

    ``outer_context`` carries the enclosing row bindings when this
    select is a correlated subquery. Execution options arrive as an
    :class:`~repro.config.ExecutionConfig`: ``matching="naive"`` forces
    the naive cross-product reference path (both paths must return
    byte-identical results).
    """
    config = resolve_config(config)
    planned = config.matching != "naive"
    evaluator = Evaluator(provider, config=config)

    sources = []
    seen_names: set[str] = set()
    for ref in select.tables:
        columns, rows = provider.resolve(ref.name)
        binding = ref.binding_name.lower()
        if binding in seen_names:
            raise QueryError(f"duplicate table binding {binding!r}")
        seen_names.add(binding)
        sources.append((binding, columns, rows))

    plan = None
    if planned:
        matched, matched_rows, plan = P.execute_planned(
            provider, select, sources, outer_context, evaluator, config=config
        )
    else:
        matched = []
        matched_rows = []  # raw rows per source, for star/agg
        for context in _iter_contexts(sources, outer_context):
            if select.where is not None:
                keep = evaluator.evaluate(select.where, context)
                if not V.sql_is_truthy(keep):
                    continue
            # Contexts are reused mutably by _iter_contexts; capture the rows.
            snapshot = RowContext(outer=outer_context)
            raw: list[tuple] = []
            for name, columns, __ in sources:
                row = context.lookup_row(name)
                snapshot.bind(name, columns, row)
                raw.append(row)
            matched.append(snapshot)
            matched_rows.append(raw)

    if select.is_star:
        if select.group_by:
            raise QueryError("SELECT * cannot be combined with GROUP BY")
        columns = tuple(
            f"{name}.{column}" if len(sources) > 1 else column
            for name, source_columns, __ in sources
            for column in source_columns
        )
        rows = [
            tuple(value for row in raw for value in row) for raw in matched_rows
        ]
        if select.distinct:
            rows = _distinct(rows)
        return QueryResult(columns=columns, rows=tuple(rows))

    if select.group_by:
        return _execute_grouped(evaluator, select, matched)

    if plan is not None and plan.items is not None:
        rows = [
            tuple(item(context, evaluator) for item in plan.items)
            for context in matched
        ]
    else:
        has_aggregate = any(
            _contains_aggregate(item.expr) for item in select.items
        )
        if has_aggregate:
            output_row = tuple(
                _evaluate_aggregate_item(evaluator, item.expr, matched)
                for item in select.items
            )
            rows = [output_row]
        else:
            rows = [
                tuple(
                    evaluator.evaluate(item.expr, context)
                    for item in select.items
                )
                for context in matched
            ]

    if select.distinct:
        rows = _distinct(rows)

    columns = tuple(
        item.alias or _default_column_name(item.expr, index)
        for index, item in enumerate(select.items)
    )
    return QueryResult(columns=columns, rows=tuple(rows))


def _default_column_name(expr: ast.Expression, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return f"column{index + 1}"


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    result = []
    for row in rows:
        key = tuple(V.sort_key(value) for value in row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _execute_grouped(
    evaluator: Evaluator,
    select: ast.Select,
    matched: list[RowContext],
) -> QueryResult:
    """Execute a GROUP BY query over the filtered row contexts.

    Each output row corresponds to one group; SELECT items and the
    HAVING predicate are evaluated in *group mode*: an expression that
    is syntactically equal to a grouping expression takes the group's
    key value, aggregates consume the group's contexts, and anything
    else must be built from those two.
    """
    buckets: dict[tuple, list[RowContext]] = {}
    key_values: dict[tuple, tuple] = {}
    for context in matched:
        values = tuple(
            evaluator.evaluate(key, context) for key in select.group_by
        )
        bucket_key = tuple(V.sort_key(value) for value in values)
        buckets.setdefault(bucket_key, []).append(context)
        key_values.setdefault(bucket_key, values)

    rows = []
    for bucket_key in sorted(buckets):
        contexts = buckets[bucket_key]
        group_env = dict(zip(select.group_by, key_values[bucket_key]))
        if select.having is not None:
            keep = _evaluate_aggregate_item(
                evaluator, select.having, contexts, group_env
            )
            if not V.sql_is_truthy(keep):
                continue
        rows.append(
            tuple(
                _evaluate_aggregate_item(
                    evaluator, item.expr, contexts, group_env
                )
                for item in select.items
            )
        )

    if select.distinct:
        rows = _distinct(rows)
    columns = tuple(
        item.alias or _default_column_name(item.expr, index)
        for index, item in enumerate(select.items)
    )
    return QueryResult(columns=columns, rows=tuple(rows))


def _evaluate_aggregate_item(
    evaluator: Evaluator,
    expr: ast.Expression,
    contexts: list[RowContext],
    group_env: dict[ast.Expression, object] | None = None,
):
    """Evaluate a SELECT item that contains aggregates (or group keys).

    Aggregates consume the full set of matched contexts; outside an
    aggregate only group-key expressions (via *group_env*) and
    row-independent computations over them are allowed.
    """
    if group_env:
        for key_expr, value in group_env.items():
            if expr == key_expr:
                return value

    if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
        if expr.star:
            if expr.name != "count":
                raise QueryError(f"{expr.name}(*) is not valid")
            return len(contexts)
        if len(expr.args) != 1:
            raise QueryError(f"{expr.name}() takes exactly one argument")
        column_values = [
            evaluator.evaluate(expr.args[0], context) for context in contexts
        ]
        return V.aggregate(expr.name, column_values, expr.distinct)

    if isinstance(expr, ast.Literal):
        return expr.value

    if isinstance(expr, ast.BinaryOp):
        left = _evaluate_aggregate_item(evaluator, expr.left, contexts, group_env)
        right = _evaluate_aggregate_item(
            evaluator, expr.right, contexts, group_env
        )
        if expr.op == "and":
            return V.sql_and(left, right)
        if expr.op == "or":
            return V.sql_or(left, right)
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            return V.sql_compare(expr.op, left, right)
        return V.sql_arithmetic(expr.op, left, right)

    if isinstance(expr, ast.UnaryOp):
        operand = _evaluate_aggregate_item(
            evaluator, expr.operand, contexts, group_env
        )
        if expr.op == "not":
            return V.sql_not(operand)
        return None if operand is None else -operand

    if isinstance(expr, ast.IsNull):
        operand = _evaluate_aggregate_item(
            evaluator, expr.operand, contexts, group_env
        )
        result = operand is None
        return (not result) if expr.negated else result

    if isinstance(expr, ast.ColumnRef):
        raise QueryError(
            f"column {expr} must appear in GROUP BY or inside an aggregate"
        )

    raise QueryError(
        f"unsupported expression in aggregate query: {type(expr).__name__}"
    )
