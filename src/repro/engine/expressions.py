"""Expression evaluation over row contexts.

A :class:`RowContext` binds table names (or aliases) to concrete rows;
contexts chain to an optional outer context, which is how correlated
subqueries see the enclosing query's row. The :class:`Evaluator` walks
expression ASTs, delegating subqueries back to
:mod:`repro.engine.query` (imported lazily to avoid a module cycle).
"""

from __future__ import annotations

from repro.config import ExecutionConfig, resolve_config
from repro.engine import values as V
from repro.errors import EvaluationError, QueryError
from repro.lang import ast


class RowContext:
    """Bindings from table/alias names to (column names, row values)."""

    def __init__(self, outer: "RowContext | None" = None) -> None:
        self._bindings: dict[str, tuple[tuple[str, ...], tuple]] = {}
        self._outer = outer

    def bind(self, name: str, columns: tuple[str, ...], row: tuple) -> None:
        self._bindings[name.lower()] = (columns, row)

    def child(self) -> "RowContext":
        return RowContext(outer=self)

    def lookup_qualified(self, table: str, column: str):
        """Resolve ``table.column``, walking outward through contexts."""
        context: RowContext | None = self
        table = table.lower()
        column = column.lower()
        while context is not None:
            binding = context._bindings.get(table)
            if binding is not None:
                columns, row = binding
                if column in columns:
                    return row[columns.index(column)]
                raise EvaluationError(
                    f"table {table!r} has no column {column!r}"
                )
            context = context._outer
        raise EvaluationError(f"unknown table or alias {table!r}")

    def lookup_row(self, name: str) -> tuple:
        """The raw row bound to *name* at this context level."""
        binding = self._bindings.get(name.lower())
        if binding is None:
            raise EvaluationError(f"unknown table or alias {name!r}")
        return binding[1]

    def lookup_unqualified(self, column: str):
        """Resolve a bare column name.

        The innermost context level that knows the column wins; within
        one level the column must be unambiguous.
        """
        context: RowContext | None = self
        column = column.lower()
        while context is not None:
            matches = []
            for columns, row in context._bindings.values():
                if column in columns:
                    matches.append(row[columns.index(column)])
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise EvaluationError(f"ambiguous column {column!r}")
            context = context._outer
        raise EvaluationError(f"unknown column {column!r}")


class Evaluator:
    """Evaluates expressions against a table provider and a row context.

    ``provider`` must implement ``resolve(name) -> (columns, rows)``; it
    is only consulted when a subquery must be executed. The execution
    options arrive as an :class:`~repro.config.ExecutionConfig`, which
    subqueries inherit, so a naive-path query stays naive all the way
    down.
    """

    def __init__(
        self, provider, *, config: ExecutionConfig | None = None
    ) -> None:
        self._provider = provider
        self._config = resolve_config(config)

    def evaluate(self, expr: ast.Expression, context: RowContext):
        if isinstance(expr, ast.Literal):
            return expr.value

        if isinstance(expr, ast.ColumnRef):
            if expr.table:
                return context.lookup_qualified(expr.table, expr.column)
            return context.lookup_unqualified(expr.column)

        if isinstance(expr, ast.BinaryOp):
            return self._evaluate_binary(expr, context)

        if isinstance(expr, ast.UnaryOp):
            operand = self.evaluate(expr.operand, context)
            if expr.op == "not":
                return V.sql_not(self._as_bool(operand))
            if expr.op == "-":
                if operand is None:
                    return None
                if isinstance(operand, bool) or not isinstance(
                    operand, (int, float)
                ):
                    raise EvaluationError("unary '-' needs a numeric operand")
                return -operand
            raise EvaluationError(f"unknown unary operator {expr.op!r}")

        if isinstance(expr, ast.IsNull):
            result = self.evaluate(expr.operand, context) is None
            return (not result) if expr.negated else result

        if isinstance(expr, ast.Between):
            operand = self.evaluate(expr.operand, context)
            low = self.evaluate(expr.low, context)
            high = self.evaluate(expr.high, context)
            result = V.sql_and(
                V.sql_compare(">=", operand, low),
                V.sql_compare("<=", operand, high),
            )
            return V.sql_not(result) if expr.negated else result

        if isinstance(expr, ast.InList):
            return self._evaluate_in(
                self.evaluate(expr.operand, context),
                [self.evaluate(item, context) for item in expr.items],
                expr.negated,
            )

        if isinstance(expr, ast.InSubquery):
            rows = self._run_subquery(expr.subquery, context)
            for row in rows:
                if len(row) != 1:
                    raise QueryError("IN subquery must produce one column")
            return self._evaluate_in(
                self.evaluate(expr.operand, context),
                [row[0] for row in rows],
                expr.negated,
            )

        if isinstance(expr, ast.Exists):
            rows = self._run_subquery(expr.subquery, context)
            result = bool(rows)
            return (not result) if expr.negated else result

        if isinstance(expr, ast.ScalarSubquery):
            rows = self._run_subquery(expr.subquery, context)
            if not rows:
                return None
            if len(rows) > 1:
                raise QueryError("scalar subquery produced more than one row")
            if len(rows[0]) != 1:
                raise QueryError("scalar subquery must produce one column")
            return rows[0][0]

        if isinstance(expr, ast.FuncCall):
            if expr.name in ast.AGGREGATE_FUNCTIONS:
                raise QueryError(
                    f"aggregate {expr.name}() is only allowed in SELECT items"
                )
            args = [self.evaluate(arg, context) for arg in expr.args]
            return V.sql_scalar_function(expr.name, args)

        raise EvaluationError(
            f"unsupported expression type: {type(expr).__name__}"
        )

    # ------------------------------------------------------------------

    def _evaluate_binary(self, expr: ast.BinaryOp, context: RowContext):
        op = expr.op
        if op == "and":
            # Short-circuit where possible, but preserve Kleene semantics.
            left = self._as_bool(self.evaluate(expr.left, context))
            if left is False:
                return False
            right = self._as_bool(self.evaluate(expr.right, context))
            return V.sql_and(left, right)
        if op == "or":
            left = self._as_bool(self.evaluate(expr.left, context))
            if left is True:
                return True
            right = self._as_bool(self.evaluate(expr.right, context))
            return V.sql_or(left, right)

        left = self.evaluate(expr.left, context)
        right = self.evaluate(expr.right, context)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return V.sql_compare(op, left, right)
        if op in ("+", "-", "*", "/", "%", "||"):
            return V.sql_arithmetic(op, left, right)
        if op == "like":
            return V.sql_like(left, right)
        if op == "not like":
            return V.sql_not(V.sql_like(left, right))
        raise EvaluationError(f"unknown binary operator {op!r}")

    @staticmethod
    def _as_bool(value) -> bool | None:
        if value is None or isinstance(value, bool):
            return value
        raise EvaluationError(
            f"expected a boolean, got {type(value).__name__}"
        )

    @staticmethod
    def _evaluate_in(needle, haystack: list, negated: bool) -> bool | None:
        if needle is None:
            return None
        found = False
        saw_null = False
        for candidate in haystack:
            if candidate is None:
                saw_null = True
                continue
            if V.sql_compare("=", needle, candidate) is True:
                found = True
                break
        if found:
            return False if negated else True
        if saw_null:
            return None
        return True if negated else False

    def _run_subquery(
        self, select: ast.Select, context: RowContext
    ) -> list[tuple]:
        from repro.engine.query import execute_select

        return execute_select(
            self._provider, select, outer_context=context, config=self._config
        ).rows
