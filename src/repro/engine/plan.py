"""Planned, indexed, compiled SELECT execution.

:func:`repro.engine.query.execute_select` historically evaluated every
SELECT as a cross product over full table scans with a per-row
tree-walking :class:`~repro.engine.expressions.Evaluator` call. This
module replaces that hot path with a small query-planning layer:

* **conjunct splitting and pushdown** — the WHERE clause is split into
  AND-conjuncts; conjuncts referencing a single FROM binding are pushed
  down to that table's scan, conjuncts referencing no binding gate the
  whole query, and everything else becomes a residual predicate applied
  at the shallowest join level where all its bindings are bound;
* **equi-join detection** — a conjunct of the form ``a.x = b.y`` turns
  the deeper of the two tables into a hash-indexed probe target instead
  of a nested re-scan. Probes look up hash buckets whose rows are kept
  in table (tid) order, so the planned executor enumerates *exactly* the
  same matches in *exactly* the same order as the naive nested loop —
  byte-identical results are a hard requirement, enforced by the
  equivalence harness and the ``bench_query_engine`` gate;
* **equality-with-constant probes** — ``x = <row-independent expr>``
  filters resolve through a persistent per-table hash index
  (:meth:`repro.engine.storage.TableData.equality_index`) instead of a
  scan. Those indexes are memoized on the copy-on-write
  :class:`~repro.engine.storage.TableData` exactly like the canonical
  fragments: they survive :meth:`Database.copy` forks and invalidate
  per-table on write;
* **predicate compilation** — expression trees compile once into Python
  closures (cached by the expression's AST, which is a frozen, hashable
  dataclass), eliminating the per-row ``isinstance`` dispatch of the
  tree-walking evaluator. Plans are likewise cached by the SELECT's AST
  plus the source column layout, so a rule's condition is planned once
  and reused across every processor step and every ``explore()`` fork.

Three-valued-logic semantics are preserved: a row is kept iff the whole
WHERE predicate evaluates to ``True``, and under Kleene AND that is
equivalent to every conjunct independently evaluating to ``True``; NULL
join keys never match, which hash probing honors by excluding NULL keys
from both build and probe sides.

Known, documented divergence from the naive path: *error* behavior on
ill-typed predicates. The naive executor can short-circuit past (or be
forced into) a subexpression that raises — e.g. a comparison of ``int``
with ``bool`` — on rows the planned executor never evaluates it on (or
vice versa). On well-typed queries, which is everything the language's
schema typing admits without mixing incomparable columns, the two paths
agree exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine import values as V
from repro.engine.expressions import Evaluator, RowContext
from repro.lang import ast
from repro.stats import StatsBase

_SUBQUERY_NODES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)

#: size caps for the module-level memo tables (cleared wholesale on
#: overflow; entries are small, the caps exist only to bound pathological
#: workloads that generate unbounded distinct ASTs)
_PREDICATE_CACHE_CAP = 8192
_PLAN_CACHE_CAP = 2048


class PlannerStats(StatsBase):
    """Global work counters for the planning/execution layer.

    One process-wide instance (:data:`STATS`) accumulates across every
    planned query; the CLI ``--stats`` surface and the
    ``bench_query_engine`` gate read (and reset) it.
    """

    FIELDS = (
        "plans_built",
        "plan_cache_hits",
        "predicates_compiled",
        "predicate_cache_hits",
        "index_builds",
        "index_maintains",
        "index_probes",
        "transient_index_builds",
        "hash_join_probes",
        "rows_scanned",
        "shard_probes",
        "plan_seconds",
    )
    SECONDS = frozenset({"plan_seconds"})


STATS = PlannerStats()


# ----------------------------------------------------------------------
# Predicate compilation
# ----------------------------------------------------------------------

_PREDICATE_CACHE: dict = {}


def _iter_select_expressions(select: ast.Select):
    for item in select.items:
        yield item.expr
    if select.where is not None:
        yield select.where
    for key in select.group_by:
        yield key
    if select.having is not None:
        yield select.having


def expression_fingerprint(expr: ast.Expression) -> tuple[str, ...]:
    """The types of every literal in *expr*, in traversal order.

    Two ASTs that compare equal can still differ semantically, because
    Python value equality conflates ``1 == True == 1.0`` — so
    ``Literal(1) == Literal(True)`` even though the two compile to
    closures returning different values. Every memo key pairs the AST
    with this fingerprint to keep such twins apart.
    """
    types: list[str] = []
    stack = [expr]
    while stack:
        for node in ast.walk_expression(stack.pop()):
            if isinstance(node, ast.Literal):
                types.append(type(node.value).__name__)
            elif isinstance(node, _SUBQUERY_NODES):
                stack.extend(_iter_select_expressions(node.subquery))
    return tuple(types)


def select_fingerprint(select: ast.Select) -> tuple[str, ...]:
    """:func:`expression_fingerprint` over a whole SELECT."""
    return tuple(
        name
        for expr in _iter_select_expressions(select)
        for name in expression_fingerprint(expr)
    )


def compile_predicate(expr: ast.Expression):
    """Compile *expr* into a closure ``f(context, evaluator) -> value``.

    The closure is provider-independent — subquery nodes delegate back to
    the passed :class:`Evaluator` (whose ``execute_select`` call is
    itself planned and cached) — so compiled predicates are memoized
    globally, keyed by the (frozen, value-hashable) AST node plus its
    literal-type fingerprint.
    """
    key = (expr, expression_fingerprint(expr))
    compiled = _PREDICATE_CACHE.get(key)
    if compiled is not None:
        STATS.predicate_cache_hits += 1
        return compiled
    compiled = _compile(expr)
    if len(_PREDICATE_CACHE) >= _PREDICATE_CACHE_CAP:
        _PREDICATE_CACHE.clear()
    _PREDICATE_CACHE[key] = compiled
    STATS.predicates_compiled += 1
    return compiled


def _compile(expr: ast.Expression):
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda context, evaluator: value

    if isinstance(expr, ast.ColumnRef):
        column = expr.column
        if expr.table:
            table = expr.table
            return lambda context, evaluator: context.lookup_qualified(
                table, column
            )
        return lambda context, evaluator: context.lookup_unqualified(column)

    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr)

    if isinstance(expr, ast.UnaryOp):
        operand = _compile(expr.operand)
        if expr.op == "not":
            as_bool = Evaluator._as_bool
            return lambda context, evaluator: V.sql_not(
                as_bool(operand(context, evaluator))
            )
        if expr.op == "-":
            return _compile_negate(operand)
        # Unknown operator: defer to the evaluator's error path.
        return lambda context, evaluator: evaluator.evaluate(expr, context)

    if isinstance(expr, ast.IsNull):
        operand = _compile(expr.operand)
        if expr.negated:
            return lambda context, evaluator: (
                operand(context, evaluator) is not None
            )
        return lambda context, evaluator: operand(context, evaluator) is None

    if isinstance(expr, ast.Between):
        operand = _compile(expr.operand)
        low = _compile(expr.low)
        high = _compile(expr.high)
        negated = expr.negated

        def between(context, evaluator):
            value = operand(context, evaluator)
            result = V.sql_and(
                V.sql_compare(">=", value, low(context, evaluator)),
                V.sql_compare("<=", value, high(context, evaluator)),
            )
            return V.sql_not(result) if negated else result

        return between

    if isinstance(expr, ast.InList):
        operand = _compile(expr.operand)
        items = tuple(_compile(item) for item in expr.items)
        negated = expr.negated
        evaluate_in = Evaluator._evaluate_in
        return lambda context, evaluator: evaluate_in(
            operand(context, evaluator),
            [item(context, evaluator) for item in items],
            negated,
        )

    if isinstance(expr, ast.FuncCall):
        if expr.name in ast.AGGREGATE_FUNCTIONS:
            # Aggregates are invalid here; route through the evaluator so
            # the error is identical to the naive path's.
            return lambda context, evaluator: evaluator.evaluate(expr, context)
        name = expr.name
        args = tuple(_compile(arg) for arg in expr.args)
        return lambda context, evaluator: V.sql_scalar_function(
            name, [arg(context, evaluator) for arg in args]
        )

    # Subqueries (and any future node type) fall back to the tree-walking
    # evaluator; the subquery's SELECT is planned when it executes.
    return lambda context, evaluator: evaluator.evaluate(expr, context)


def _compile_binary(expr: ast.BinaryOp):
    op = expr.op
    left = _compile(expr.left)
    right = _compile(expr.right)
    as_bool = Evaluator._as_bool

    if op == "and":

        def kleene_and(context, evaluator):
            left_value = as_bool(left(context, evaluator))
            if left_value is False:
                return False
            return V.sql_and(left_value, as_bool(right(context, evaluator)))

        return kleene_and

    if op == "or":

        def kleene_or(context, evaluator):
            left_value = as_bool(left(context, evaluator))
            if left_value is True:
                return True
            return V.sql_or(left_value, as_bool(right(context, evaluator)))

        return kleene_or

    if op in ("=", "<>", "<", "<=", ">", ">="):
        compare = V.sql_compare
        return lambda context, evaluator: compare(
            op, left(context, evaluator), right(context, evaluator)
        )
    if op in ("+", "-", "*", "/", "%", "||"):
        arithmetic = V.sql_arithmetic
        return lambda context, evaluator: arithmetic(
            op, left(context, evaluator), right(context, evaluator)
        )
    if op == "like":
        return lambda context, evaluator: V.sql_like(
            left(context, evaluator), right(context, evaluator)
        )
    if op == "not like":
        return lambda context, evaluator: V.sql_not(
            V.sql_like(left(context, evaluator), right(context, evaluator))
        )
    # Unknown operator: defer to the evaluator's error path.
    return lambda context, evaluator: evaluator.evaluate(expr, context)


def _compile_negate(operand):
    from repro.errors import EvaluationError

    def negate(context, evaluator):
        value = operand(context, evaluator)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EvaluationError("unary '-' needs a numeric operand")
        return -value

    return negate


# ----------------------------------------------------------------------
# Logical plans
# ----------------------------------------------------------------------


@dataclass
class SourcePlan:
    """The per-FROM-table slice of a :class:`Plan`.

    ``filters`` are pushed single-table conjuncts (compiled, original
    order); ``const_probes`` are ``(column_index, value_closure)`` pairs
    from equality-with-constant conjuncts, served by a hash index;
    ``join_cols``/``join_values`` describe the hash-join key when this
    level is the probe target of one or more equi-join conjuncts; and
    ``residuals`` are the remaining conjuncts whose deepest binding is
    this level.
    """

    binding: str
    filters: tuple = ()
    const_probes: tuple = ()
    join_cols: tuple[int, ...] | None = None
    join_values: tuple = ()
    residuals: tuple = ()


@dataclass
class Plan:
    """A lowered SELECT: scan/filter/join/residual structure.

    ``constant_gates`` are conjuncts with no local binding dependency
    (literals or outer-context references), evaluated once per execution
    before any scan; ``items`` are the compiled SELECT item expressions
    for the non-aggregate projection path (``None`` when the query is
    ``*``, grouped, or aggregated).
    """

    sources: tuple[SourcePlan, ...]
    constant_gates: tuple = ()
    items: tuple | None = None


@dataclass(frozen=True)
class ConstProbe:
    """A classified ``col = <row-independent expr>`` conjunct."""

    conjunct: ast.Expression
    column: int
    value: ast.Expression


@dataclass(frozen=True)
class JoinConjunct:
    """A classified equi-join conjunct probing one source.

    ``probe_column`` indexes the deeper (probe-target) source's columns;
    ``build`` is the shallower side's key expression.
    """

    conjunct: ast.Expression
    probe_column: int
    build: ast.Expression


@dataclass(frozen=True)
class Residual:
    """A conjunct applied at its deepest binding level.

    ``ambiguous`` marks conjuncts that defied static classification
    (a subquery, an ambiguous unqualified column, a qualified reference
    to a missing column) and were defaulted to the last source — the
    rete compiler refuses those; the planned executor evaluates them at
    full binding depth, reproducing the naive path's behavior.
    """

    conjunct: ast.Expression
    ambiguous: bool = False


@dataclass(frozen=True)
class SourceConjuncts:
    """The classified WHERE conjuncts charged to one FROM source."""

    binding: str
    filters: tuple[ast.Expression, ...] = ()
    const_probes: tuple[ConstProbe, ...] = ()
    joins: tuple[JoinConjunct, ...] = ()
    residuals: tuple[Residual, ...] = ()


@dataclass(frozen=True)
class SelectClassification:
    """A SELECT's WHERE clause, classified per source (AST level).

    This is the shared front half of planning: both :func:`_build_plan`
    (which compiles it into closures) and the rete network compiler
    (:mod:`repro.engine.rete`, which lowers it into alpha/beta nodes)
    consume it, so the two executors agree by construction on pushdown,
    equi-join detection, and residual placement.
    """

    sources: tuple[SourceConjuncts, ...]
    constant_gates: tuple[ast.Expression, ...] = ()

    @property
    def has_ambiguous(self) -> bool:
        return any(
            residual.ambiguous
            for source in self.sources
            for residual in source.residuals
        )


class _Ambiguous(Exception):
    """Internal marker: a conjunct cannot be classified statically."""


def _has_subquery(expr: ast.Expression) -> bool:
    return any(
        isinstance(node, _SUBQUERY_NODES) for node in ast.walk_expression(expr)
    )


def _conjunct_deps(
    expr: ast.Expression, binding_columns: dict[str, tuple[str, ...]]
) -> frozenset[str]:
    """The FROM bindings *expr* depends on.

    Raises :class:`_Ambiguous` when static classification is unsafe: the
    conjunct contains a subquery (which may correlate against anything),
    an unqualified column owned by several bindings, or a qualified
    reference to a binding column that does not exist (so the naive
    path's error must be reproduced at full binding depth).
    """
    if _has_subquery(expr):
        raise _Ambiguous
    deps: set[str] = set()
    for node in ast.walk_expression(expr):
        if not isinstance(node, ast.ColumnRef):
            continue
        if node.table:
            table = node.table.lower()
            if table in binding_columns:
                if node.column.lower() not in binding_columns[table]:
                    raise _Ambiguous
                deps.add(table)
            # else: outer-context reference, no local dependency
        else:
            column = node.column.lower()
            owners = [
                binding
                for binding, columns in binding_columns.items()
                if column in columns
            ]
            if len(owners) > 1:
                raise _Ambiguous
            if owners:
                deps.add(owners[0])
            # else: outer-context reference
    return frozenset(deps)


def _ref_binding(
    ref: ast.Expression, binding_columns: dict[str, tuple[str, ...]]
) -> tuple[str, int] | None:
    """Resolve a ColumnRef to ``(binding, column_index)``, or None."""
    if not isinstance(ref, ast.ColumnRef):
        return None
    column = ref.column.lower()
    if ref.table:
        binding = ref.table.lower()
        columns = binding_columns.get(binding)
        if columns is None or column not in columns:
            return None
        return binding, columns.index(column)
    owners = [
        (binding, columns.index(column))
        for binding, columns in binding_columns.items()
        if column in columns
    ]
    if len(owners) == 1:
        return owners[0]
    return None


_PLAN_CACHE: dict = {}
_CLASSIFY_CACHE: dict = {}


def classify_select(
    select: ast.Select,
    source_columns: tuple[tuple[str, tuple[str, ...]], ...],
) -> SelectClassification:
    """The (cached) per-source conjunct classification for *select*.

    Pure AST analysis — nothing is compiled. Keyed like the plan cache
    (AST + column layouts + literal-type fingerprint).
    """
    key = (select, source_columns, select_fingerprint(select))
    classified = _CLASSIFY_CACHE.get(key)
    if classified is not None:
        return classified

    binding_columns = {binding: columns for binding, columns in source_columns}
    order = {binding: i for i, (binding, __) in enumerate(source_columns)}
    last = len(source_columns) - 1

    filters: list[list] = [[] for __ in source_columns]
    const_probes: list[list] = [[] for __ in source_columns]
    joins: list[list] = [[] for __ in source_columns]
    residuals: list[list] = [[] for __ in source_columns]
    constant_gates: list = []

    conjuncts = (
        list(ast.split_conjuncts(select.where))
        if select.where is not None
        else []
    )
    for conjunct in conjuncts:
        try:
            deps = _conjunct_deps(conjunct, binding_columns)
        except _Ambiguous:
            residuals[last].append(Residual(conjunct, ambiguous=True))
            continue

        if not deps:
            constant_gates.append(conjunct)
            continue

        if len(deps) == 1:
            binding = next(iter(deps))
            probe = _as_const_probe(conjunct, binding, binding_columns)
            if probe is not None:
                const_probes[order[binding]].append(probe)
            else:
                filters[order[binding]].append(conjunct)
            continue

        deepest = max(order[binding] for binding in deps)
        join = _as_equi_join(conjunct, binding_columns, order, deepest)
        if join is not None:
            joins[deepest].append(join)
        else:
            residuals[deepest].append(Residual(conjunct))

    classified = SelectClassification(
        sources=tuple(
            SourceConjuncts(
                binding=binding,
                filters=tuple(filters[i]),
                const_probes=tuple(const_probes[i]),
                joins=tuple(joins[i]),
                residuals=tuple(residuals[i]),
            )
            for i, (binding, __) in enumerate(source_columns)
        ),
        constant_gates=tuple(constant_gates),
    )
    if len(_CLASSIFY_CACHE) >= _PLAN_CACHE_CAP:
        _CLASSIFY_CACHE.clear()
    _CLASSIFY_CACHE[key] = classified
    return classified


def plan_select(
    select: ast.Select,
    source_columns: tuple[tuple[str, tuple[str, ...]], ...],
) -> Plan:
    """The (cached) plan for *select* over sources with these columns.

    The cache key includes the per-binding column layouts because the
    same AST can resolve against different providers — two rules'
    ``select * from inserted`` conditions share an AST shape but carry
    their own table's columns.
    """
    key = (select, source_columns, select_fingerprint(select))
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        STATS.plan_cache_hits += 1
        return plan
    started = time.perf_counter()
    plan = _build_plan(select, source_columns)
    if len(_PLAN_CACHE) >= _PLAN_CACHE_CAP:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = plan
    STATS.plans_built += 1
    STATS.plan_seconds += time.perf_counter() - started
    return plan


def _build_plan(
    select: ast.Select,
    source_columns: tuple[tuple[str, tuple[str, ...]], ...],
) -> Plan:
    classified = classify_select(select, source_columns)

    sources = []
    for source in classified.sources:
        sources.append(
            SourcePlan(
                binding=source.binding,
                filters=tuple(
                    compile_predicate(conjunct) for conjunct in source.filters
                ),
                const_probes=tuple(
                    (probe.column, compile_predicate(probe.value))
                    for probe in source.const_probes
                ),
                join_cols=(
                    tuple(join.probe_column for join in source.joins)
                    if source.joins
                    else None
                ),
                join_values=tuple(
                    compile_predicate(join.build) for join in source.joins
                ),
                residuals=tuple(
                    compile_predicate(residual.conjunct)
                    for residual in source.residuals
                ),
            )
        )

    constant_gates = tuple(
        compile_predicate(gate) for gate in classified.constant_gates
    )

    items = None
    if select.items and not select.group_by:
        has_aggregate = any(
            isinstance(node, ast.FuncCall)
            and node.name in ast.AGGREGATE_FUNCTIONS
            for item in select.items
            for node in ast.walk_expression(item.expr)
        )
        if not has_aggregate:
            items = tuple(
                compile_predicate(item.expr) for item in select.items
            )

    return Plan(
        sources=tuple(sources),
        constant_gates=constant_gates,
        items=items,
    )


def _as_const_probe(conjunct, binding, binding_columns) -> ConstProbe | None:
    """``col = <row-independent expr>`` → a :class:`ConstProbe`."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    for ref_side, value_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        resolved = _ref_binding(ref_side, binding_columns)
        if resolved is None or resolved[0] != binding:
            continue
        try:
            value_deps = _conjunct_deps(value_side, binding_columns)
        except _Ambiguous:
            continue
        if value_deps:
            continue
        return ConstProbe(conjunct, resolved[1], value_side)
    return None


def _as_equi_join(
    conjunct, binding_columns, order, deepest
) -> JoinConjunct | None:
    """``a.x = b.y`` → a :class:`JoinConjunct` for the *deepest* binding
    (the probe target); ``build`` is the shallower binding's key
    expression."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    left = _ref_binding(conjunct.left, binding_columns)
    right = _ref_binding(conjunct.right, binding_columns)
    if left is None or right is None or left[0] == right[0]:
        return None
    if order[left[0]] == deepest:
        local, remote_expr = left, conjunct.right
    elif order[right[0]] == deepest:
        local, remote_expr = right, conjunct.left
    else:
        return None
    return JoinConjunct(conjunct, local[1], remote_expr)


# ----------------------------------------------------------------------
# Plan execution
# ----------------------------------------------------------------------


def build_equality_index(rows, cols: tuple[int, ...]) -> dict:
    """Hash *rows* (value tuples) by the values at *cols*.

    Keys are :func:`~repro.engine.values.sort_key`-wrapped so that
    cross-type numeric equality (``1 = 1.0``) matches exactly the rows
    ``sql_compare`` would accept. Rows with a NULL in any key column are
    excluded — NULL never compares equal. Buckets preserve input (tid)
    order, which is what keeps planned results byte-identical to the
    naive nested loop.
    """
    sort_key = V.sort_key
    index: dict = {}
    for row in rows:
        key = []
        for col in cols:
            value = row[col]
            if value is None:
                key = None
                break
            key.append(sort_key(value))
        if key is None:
            continue
        index.setdefault(tuple(key), []).append(row)
    return index


def _probe_key(values) -> tuple | None:
    """The index key for probe *values*, or None when any value is NULL."""
    key = []
    for value in values:
        if value is None:
            return None
        key.append(V.sort_key(value))
    return tuple(key)


def _persistent_index(provider, table_name: str, cols: tuple[int, ...]):
    """The provider-backed persistent index, or None when unavailable."""
    getter = getattr(provider, "equality_index", None)
    if getter is None:
        return None
    return getter(table_name, cols)


def _shard_table(provider, table_name: str):
    """The sharded base TableData behind *table_name*, or None.

    None when the provider cannot expose base storage for the name (an
    overlay, a transition table) or when the table is flat — in either
    case the caller falls back to the ordinary scan/index paths.
    """
    getter = getattr(provider, "shard_table", None)
    if getter is None:
        return None
    data = getter(table_name)
    if data is None or data.shard_count == 0:
        return None
    return data


def execute_planned(
    provider,
    select: ast.Select,
    sources: list[tuple[str, tuple[str, ...], list[tuple]]],
    outer_context: RowContext | None,
    evaluator: Evaluator,
    config=None,
) -> tuple[list[RowContext], list[list[tuple]], Plan]:
    """Run *select*'s plan; returns (matched contexts, raw rows, plan).

    The matched contexts and per-source raw rows are exactly what the
    naive cross-product filter produces, in the same order.

    When *config* enables partitioning and a scanned table is sharded,
    a const probe whose columns pin the partition key resolves through
    the single shard the probe value hashes to (``shard_probes``) —
    sound because :func:`~repro.engine.partition.stable_shard` is
    equality-consistent, so every row the probe can match lives in that
    shard, and the shard-local bucket holds them in the same tid order
    as the global index.
    """
    source_columns = tuple((binding, columns) for binding, columns, __ in sources)
    plan = plan_select(select, source_columns)
    table_names = tuple(ref.name.lower() for ref in select.tables)

    matched: list[RowContext] = []
    matched_rows: list[list[tuple]] = []

    base = RowContext(outer=outer_context)
    for gate in plan.constant_gates:
        if not V.sql_is_truthy(gate(base, evaluator)):
            return matched, matched_rows, plan

    n = len(sources)
    pools: list = [None] * n
    join_indexes: list = [None] * n

    partitioned = config is not None and config.partitions > 1

    filter_context = RowContext(outer=outer_context)
    for i, source_plan in enumerate(plan.sources):
        binding, columns, rows = sources[i]
        table_data = (
            _shard_table(provider, table_names[i]) if partitioned else None
        )

        if source_plan.const_probes:
            probe_values = [
                value(base, evaluator) for __, value in source_plan.const_probes
            ]
            key = _probe_key(probe_values)
            if key is None:
                rows = []
            else:
                cols = tuple(col for col, __ in source_plan.const_probes)
                index = None
                if (
                    table_data is not None
                    and table_data.partition_column in cols
                    and len(rows) == len(table_data)
                ):
                    at = cols.index(table_data.partition_column)
                    shard = table_data.shard_of_value(probe_values[at])
                    index = table_data.shard_equality_index(shard, cols)
                    STATS.shard_probes += 1
                if index is None:
                    index = _persistent_index(provider, table_names[i], cols)
                if index is None:
                    index = build_equality_index(rows, cols)
                    STATS.transient_index_builds += 1
                rows = index.get(key, [])
                STATS.index_probes += 1

        if source_plan.filters:
            truthy = V.sql_is_truthy
            filters = source_plan.filters
            kept = []
            for row in rows:
                filter_context.bind(binding, columns, row)
                for predicate in filters:
                    if not truthy(predicate(filter_context, evaluator)):
                        break
                else:
                    kept.append(row)
            STATS.rows_scanned += len(rows)
            rows = kept

        if source_plan.join_cols is not None:
            if not source_plan.filters and not source_plan.const_probes:
                index = _persistent_index(
                    provider, table_names[i], source_plan.join_cols
                )
                if index is None:
                    index = build_equality_index(rows, source_plan.join_cols)
                    STATS.transient_index_builds += 1
            else:
                index = build_equality_index(rows, source_plan.join_cols)
                STATS.transient_index_builds += 1
            join_indexes[i] = index
        else:
            pools[i] = rows

    # Left-deep nested enumeration in FROM order. Probe levels pull their
    # candidates from a hash bucket (a tid-ordered subsequence of the
    # scan), so the emitted order matches the naive cross product.
    truthy = V.sql_is_truthy
    context = RowContext(outer=outer_context)
    raw: list = []

    def enumerate_level(level: int) -> None:
        if level == n:
            snapshot = RowContext(outer=outer_context)
            captured = list(raw)
            for (name, columns, __), row in zip(sources, captured):
                snapshot.bind(name, columns, row)
            matched.append(snapshot)
            matched_rows.append(captured)
            return
        source_plan = plan.sources[level]
        binding, columns, __ = sources[level]
        if source_plan.join_cols is not None:
            key = _probe_key(
                [value(context, evaluator) for value in source_plan.join_values]
            )
            candidates = () if key is None else join_indexes[level].get(key, ())
            STATS.hash_join_probes += 1
        else:
            candidates = pools[level]
        residuals = source_plan.residuals
        for row in candidates:
            context.bind(binding, columns, row)
            raw.append(row)
            for predicate in residuals:
                if not truthy(predicate(context, evaluator)):
                    break
            else:
                enumerate_level(level + 1)
            raw.pop()

    enumerate_level(0)
    return matched, matched_rows, plan


def clear_caches() -> None:
    """Drop the plan and predicate memo tables (tests and benchmarks)."""
    _PLAN_CACHE.clear()
    _PREDICATE_CACHE.clear()
    _CLASSIFY_CACHE.clear()
