"""Refined triggering graph + stratification (chase-style termination).

The triggering graph of Theorem 5.1 is purely syntactic: an edge
``ri → rj`` exists whenever ``ri`` *could* write an event ``rj`` is
subscribed to. Chase-termination work (Meier/Schmidt/Lausen, "On Chase
Termination Beyond Stratification") sharpens this with a semantic
firing relation: the edge is kept only when ``ri``'s writes can
actually make ``rj``'s condition true. This module builds that
*refined* graph using the constant-folding/interval engine of
:mod:`repro.lint.folding` and the attribute-level write summaries of
:mod:`repro.analysis.dataflow`, then partitions rules into *strata*
(the condensation of the refined graph) and certifies cycles whose
rules are collectively non-increasing via a fixpoint that generalizes
the paper's delete-only and monotonic-drift special cases.

Pruning rules (each is justified for the *tail* of a hypothetical
infinite run — finite contributions such as the initial user
transition never matter for termination):

* **dead condition** — ``src``'s condition is unsatisfiable: the rule
  never executes its actions, so it performs nothing.
* **dead actions** — an UPDATE/DELETE action whose WHERE is
  unsatisfiable matches no rows and performs no events; if the events
  a ``src → dst`` edge relies on come only from dead actions, the edge
  goes.
* **refuted transition conjunct** — ``dst``'s condition has a
  top-level ``exists (select * from inserted|new_updated where W)``
  conjunct with ``W`` confined to the transition row. If ``src``'s
  literal writes provably violate ``W`` (substitute and show
  unsatisfiability), and no other rule can smuggle satisfying rows
  into that slice (attribution guards below), then ``src``'s firing
  cannot supply the rows the conjunct needs, and every activation of
  ``dst`` is attributable to some *kept* edge instead.

Attribution guards: for an ``inserted`` conjunct no rule may UPDATE
the ``W``-columns of the table (pending inserted rows would mutate);
rows can only enter the slice via inserts, and every inserter has its
own edge to ``dst`` (insert-triggered by validation). For a
``new_updated`` conjunct ``src`` must be the *only* updater of the
table, so the slice holds ``src``'s post-images exclusively; the last
update applied to a row fixes its assigned columns, so refuting every
update action refutes every reachable post-image.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.dataflow import rule_dataflow
from repro.analysis.derived import DerivedDefinitions
from repro.analysis.termination import TriggeringGraph
from repro.lang import ast
from repro.lint.folding import fold_constant, is_folded, unsatisfiable
from repro.rules.events import TriggerEvent

__all__ = [
    "PrunedEdge",
    "Discharge",
    "StratificationAnalysis",
    "StratificationAnalyzer",
    "substitute_columns",
]


@dataclass(frozen=True)
class PrunedEdge:
    """A triggering-graph edge removed by refinement, with the reason."""

    source: str
    target: str
    reason: str


@dataclass(frozen=True)
class Discharge:
    """A successful component certification: the removed rules and why."""

    rules: frozenset[str]
    detail: str


# ----------------------------------------------------------------------
# Symbolic helpers (shared with the critical-instance analyzer)
# ----------------------------------------------------------------------


def substitute_columns(expr, values, binding: str | None = None):
    """Replace column references with literal values.

    A reference is replaced when its column (lowercased) appears in
    *values* and it is unqualified or qualified with *binding*. Returns
    the rewritten expression, or ``None`` when *expr* contains a node
    kind we cannot rewrite soundly (subqueries, aggregates).
    """
    if isinstance(expr, ast.Literal):
        return expr
    if isinstance(expr, ast.ColumnRef):
        qualifier = expr.table.lower() if expr.table else None
        if qualifier is not None and binding is not None and qualifier != binding:
            return expr
        column = expr.column.lower()
        if column in values:
            return ast.Literal(values[column])
        return expr
    if isinstance(expr, ast.BinaryOp):
        left = substitute_columns(expr.left, values, binding)
        right = substitute_columns(expr.right, values, binding)
        if left is None or right is None:
            return None
        return ast.BinaryOp(expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        operand = substitute_columns(expr.operand, values, binding)
        if operand is None:
            return None
        return ast.UnaryOp(expr.op, operand)
    if isinstance(expr, ast.IsNull):
        operand = substitute_columns(expr.operand, values, binding)
        if operand is None:
            return None
        return replace(expr, operand=operand)
    if isinstance(expr, ast.Between):
        parts = [
            substitute_columns(part, values, binding)
            for part in (expr.operand, expr.low, expr.high)
        ]
        if any(part is None for part in parts):
            return None
        return replace(expr, operand=parts[0], low=parts[1], high=parts[2])
    if isinstance(expr, ast.InList):
        operand = substitute_columns(expr.operand, values, binding)
        items = [substitute_columns(item, values, binding) for item in expr.items]
        if operand is None or any(item is None for item in items):
            return None
        return replace(expr, operand=operand, items=tuple(items))
    return None


@dataclass(frozen=True)
class ConfinedConjunct:
    """``exists (select * from <transition> t where W)`` with ``W``
    confined to the transition row ``t``."""

    kind: str  # "inserted" | "new_updated" | "deleted" | "old_updated"
    where: object
    binding: str
    columns: frozenset[str]


def confined_transition_conjuncts(rule) -> tuple[ConfinedConjunct, ...]:
    """The rule condition's top-level confined transition conjuncts."""
    if rule.condition is None:
        return ()
    found: list[ConfinedConjunct] = []
    for conjunct in ast.split_conjuncts(rule.condition):
        if not isinstance(conjunct, ast.Exists) or conjunct.negated:
            continue
        select = conjunct.subquery
        if len(select.tables) != 1 or not select.is_star:
            continue
        if select.group_by or select.having is not None:
            continue
        table_ref = select.tables[0]
        kind = table_ref.name.lower()
        if kind not in ast.TRANSITION_TABLE_NAMES:
            continue
        if select.where is None:
            continue
        binding = table_ref.binding_name.lower()
        columns: set[str] = set()
        confined = True
        for node in ast.walk_expression(select.where):
            if isinstance(
                node,
                (ast.Exists, ast.InSubquery, ast.ScalarSubquery, ast.FuncCall),
            ):
                confined = False
                break
            if isinstance(node, ast.ColumnRef):
                qualifier = node.table.lower() if node.table else None
                if qualifier is not None and qualifier != binding:
                    confined = False
                    break
                columns.add(node.column.lower())
        if confined:
            found.append(
                ConfinedConjunct(
                    kind, select.where, binding, frozenset(columns)
                )
            )
    return tuple(found)


# ----------------------------------------------------------------------
# Per-rule write summaries
# ----------------------------------------------------------------------


_UNFOLDED = object()


def _fold_literal(expr):
    """Fold *expr* to a closed constant value, or ``_UNFOLDED``."""
    folded = fold_constant(expr)
    if is_folded(folded):
        return folded
    return _UNFOLDED


@dataclass
class _WriteSummary:
    """What one rule's live actions can write, symbolically."""

    #: events performed by actions that can actually run
    events: frozenset[TriggerEvent]
    #: table → list of {column: literal} insert rows (partial when a
    #: value does not fold); missing tables → no live inserts
    insert_rows: dict[str, list[dict[str, object]]]
    #: tables receiving an INSERT ... SELECT (rows unknowable)
    opaque_insert_tables: frozenset[str]
    #: table → list of {column: literal} update assignments (partial)
    update_assignments: dict[str, list[dict[str, object]]]


def summarize_writes(rule) -> _WriteSummary:
    """Summarize *rule*'s effective writes, skipping dead actions."""
    if rule.condition is not None and unsatisfiable(rule.condition):
        return _WriteSummary(frozenset(), {}, frozenset(), {})
    events: set[TriggerEvent] = set()
    insert_rows: dict[str, list[dict[str, object]]] = {}
    opaque: set[str] = set()
    update_assignments: dict[str, list[dict[str, object]]] = {}
    for action in rule.actions:
        if isinstance(action, ast.Insert):
            table = action.table.lower()
            events.add(TriggerEvent.insert(table))
            if action.query is not None:
                opaque.add(table)
                continue
            columns = [
                column.lower()
                for column in rule.schema.table(table).column_names
            ]
            for row in action.rows:
                values: dict[str, object] = {}
                for column, expr in zip(columns, row):
                    literal = _fold_literal(expr)
                    if literal is not _UNFOLDED:
                        values[column] = literal
                insert_rows.setdefault(table, []).append(values)
        elif isinstance(action, ast.Delete):
            if action.where is not None and unsatisfiable(action.where):
                continue
            events.add(TriggerEvent.delete(action.table))
        elif isinstance(action, ast.Update):
            if action.where is not None and unsatisfiable(action.where):
                continue
            table = action.table.lower()
            values = {}
            for assignment in action.assignments:
                events.add(TriggerEvent.update(table, assignment.column))
                literal = _fold_literal(assignment.value)
                if literal is not _UNFOLDED:
                    values[assignment.column.lower()] = literal
            update_assignments.setdefault(table, []).append(values)
    return _WriteSummary(
        frozenset(events), insert_rows, frozenset(opaque), update_assignments
    )


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------


@dataclass
class StratificationAnalysis:
    """The refined graph, its pruned edges, and the rule strata."""

    refined: TriggeringGraph
    pruned_edges: tuple[PrunedEdge, ...] = ()
    strata: dict[str, int] = field(default_factory=dict)

    def certify_component(self, component, analyzer) -> Discharge | None:
        """Try to discharge a cyclic component of the *base* graph.

        Works on the refined subgraph and iterates the delete-only and
        monotonic heuristics to a fixpoint: each round removes every
        qualifying rule that still sits on a refined cycle, which can
        unlock further qualifications (the generalized non-increasing
        argument). Returns the removed rules, or ``None``.
        """
        members = frozenset(component)
        pruned_inside = sum(
            1
            for edge in self.pruned_edges
            if edge.source in members and edge.target in members
        )
        remaining = set(members)
        sub = self.refined.restricted_to(members)
        removed: set[str] = set()
        while True:
            cyclic = sub.cyclic_components()
            if not cyclic:
                if removed:
                    detail = (
                        f"{pruned_inside} refined-away edges + "
                        "non-increasing fixpoint removed "
                        + ", ".join(sorted(removed))
                    )
                else:
                    detail = (
                        "refined triggering graph is acyclic here "
                        f"({pruned_inside} edges pruned)"
                    )
                return Discharge(frozenset(removed), detail)
            scope = frozenset(remaining)
            candidates = analyzer.auto_certifiable_rules(
                scope
            ) | analyzer.auto_certifiable_monotonic_rules(scope)
            on_cycles: set[str] = set()
            for scc in cyclic:
                on_cycles |= scc
            progress = candidates & on_cycles
            if not progress:
                return None
            removed |= progress
            remaining -= progress
            sub = sub.restricted_to(frozenset(remaining))


class StratificationAnalyzer:
    """Builds the refined triggering graph and the strata over it."""

    def __init__(self, definitions: DerivedDefinitions) -> None:
        self.definitions = definitions
        self.ruleset = definitions.ruleset
        self.base = TriggeringGraph(definitions)

    def analyze(self) -> StratificationAnalysis:
        summaries = {
            name: summarize_writes(self.ruleset.rule(name))
            for name in self.base.nodes
        }
        conjuncts = {
            name: confined_transition_conjuncts(self.ruleset.rule(name))
            for name in self.base.nodes
        }
        # Attribution guards need global write facts (raw dataflow — a
        # dead action today could be resurrected by an edit; the guard
        # stays conservative).
        updated_columns: set[tuple[str, str]] = set()
        table_updaters: dict[str, set[str]] = {}
        for name in self.base.nodes:
            for write in rule_dataflow(self.ruleset.rule(name)).writes:
                if write.kind == "U":
                    updated_columns.add((write.table, write.column))
                    table_updaters.setdefault(write.table, set()).add(name)

        successors: dict[str, frozenset[str]] = {}
        pruned: list[PrunedEdge] = []
        for source in self.base.nodes:
            summary = summaries[source]
            kept: set[str] = set()
            for target in sorted(self.base.successors[source]):
                target_rule = self.ruleset.rule(target)
                live = summary.events & target_rule.triggered_by
                if not live:
                    pruned.append(
                        PrunedEdge(
                            source,
                            target,
                            "triggering events come only from dead "
                            "actions or a dead condition",
                        )
                    )
                    continue
                reason = self._refuted_conjunct(
                    source,
                    summary,
                    target_rule,
                    conjuncts[target],
                    updated_columns,
                    table_updaters,
                )
                if reason is not None:
                    pruned.append(PrunedEdge(source, target, reason))
                    continue
                kept.add(target)
            successors[source] = frozenset(kept)

        refined = TriggeringGraph.from_successors(
            self.base.nodes, successors, self.definitions
        )
        components = refined.strong_components()
        strata: dict[str, int] = {}
        for stratum, component in enumerate(reversed(components)):
            for rule in component:
                strata[rule] = stratum
        return StratificationAnalysis(refined, tuple(pruned), strata)

    # ------------------------------------------------------------------

    def _refuted_conjunct(
        self,
        source: str,
        summary: _WriteSummary,
        target_rule,
        target_conjuncts,
        updated_columns,
        table_updaters,
    ) -> str | None:
        """A reason string when some confined conjunct of the target's
        condition provably rejects every row *source* can put into the
        slice it ranges over (with the attribution guards satisfied)."""
        table = target_rule.table
        for conjunct in target_conjuncts:
            if conjunct.kind == "inserted":
                if any(
                    (table, column) in updated_columns
                    for column in conjunct.columns
                ):
                    continue  # pending rows could mutate under us
                if table in summary.opaque_insert_tables:
                    continue
                rows = summary.insert_rows.get(table, [])
                if all(
                    self._row_violates(conjunct, values) for values in rows
                ):
                    return (
                        f"inserted-rows of {source} cannot satisfy "
                        f"`exists(... from inserted ...)` of {target_rule.name}"
                    )
            elif conjunct.kind == "new_updated":
                if table_updaters.get(table, set()) - {source}:
                    continue  # another updater could supply rows
                assignments = summary.update_assignments.get(table, [])
                if all(
                    self._row_violates(conjunct, values)
                    for values in assignments
                ):
                    return (
                        f"updated-rows of {source} cannot satisfy "
                        f"`exists(... from new_updated ...)` of "
                        f"{target_rule.name}"
                    )
        return None

    @staticmethod
    def _row_violates(conjunct: ConfinedConjunct, values) -> bool:
        """True when ``W`` is provably false for a slice row carrying
        *values* (unassigned columns stay free, so the proof must hold
        for every completion)."""
        substituted = substitute_columns(
            conjunct.where, values, conjunct.binding
        )
        if substituted is None:
            return False
        return unsatisfiable(substituted) is not None
