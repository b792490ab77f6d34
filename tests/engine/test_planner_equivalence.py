"""Randomized naive/planned executor equivalence.

The planner (:mod:`repro.engine.plan`) must produce byte-identical
results — columns, rows, and row order — to the naive cross-product
executor on every well-typed query. These sweeps generate seeded random
schemas, instances (with NULLs), and WHERE clauses spanning the planner's
classification space: pushed single-table filters, equality-with-constant
probes, cross-table equi-joins, residual comparisons, OR/NOT mixes,
IS NULL, IN lists, BETWEEN, and correlated subqueries — plus
transition-table overlays served through :class:`OverlayProvider`.

Queries are kept well-typed (integer columns, integer literals): error
behavior on ill-typed predicates is the one documented divergence
between the two paths.
"""

import random

import pytest

from tests.seeding import derive_seed

from repro.config import ExecutionConfig
from repro.engine import plan
from repro.engine.database import Database
from repro.engine.query import (
    DatabaseProvider,
    OverlayProvider,
    execute_select,
)
from repro.lang.parser import parse_statement
from repro.schema.catalog import schema_from_spec

#: the naive cross-product reference executor
NAIVE = ExecutionConfig(matching="naive")


def _random_instance(rng, tables, rows_per_table=12, null_rate=0.2):
    """A database over *tables* (name -> columns) with NULL-bearing rows."""
    schema = schema_from_spec(tables)
    database = Database(schema)
    for name, columns in tables.items():
        database.load(
            name,
            [
                tuple(
                    None if rng.random() < null_rate else rng.randrange(6)
                    for __ in columns
                )
                for __ in range(rows_per_table)
            ],
        )
    return database


def _random_predicate(rng, bindings, depth=0):
    """A random well-typed predicate over *bindings* (name -> columns)."""
    if depth < 2 and rng.random() < 0.4:
        op = rng.choice(["and", "or"])
        left = _random_predicate(rng, bindings, depth + 1)
        right = _random_predicate(rng, bindings, depth + 1)
        clause = f"({left} {op} {right})"
        if rng.random() < 0.2:
            clause = f"not {clause}"
        return clause

    def any_col():
        binding = rng.choice(list(bindings))
        return f"{binding}.{rng.choice(bindings[binding])}"

    kind = rng.randrange(6)
    if kind == 0:  # equality with constant (const-probe candidate)
        return f"{any_col()} = {rng.randrange(6)}"
    if kind == 1:  # cross-binding equality (equi-join candidate)
        if len(bindings) >= 2:
            first, second = rng.sample(list(bindings), 2)
            return (
                f"{first}.{rng.choice(bindings[first])} = "
                f"{second}.{rng.choice(bindings[second])}"
            )
        return f"{any_col()} = {any_col()}"
    if kind == 2:  # comparison (pushed filter or residual)
        op = rng.choice(["<", "<=", ">", ">=", "<>"])
        if rng.random() < 0.5:
            return f"{any_col()} {op} {rng.randrange(6)}"
        return f"{any_col()} {op} {any_col()}"
    if kind == 3:
        negated = "not " if rng.random() < 0.5 else ""
        return f"{any_col()} is {negated}null"
    if kind == 4:
        items = ", ".join(
            str(rng.randrange(6)) for __ in range(rng.randrange(1, 4))
        )
        negated = "not " if rng.random() < 0.3 else ""
        return f"{any_col()} {negated}in ({items})"
    low = rng.randrange(4)
    return f"{any_col()} between {low} and {low + rng.randrange(3)}"


def _assert_equivalent(provider, text):
    select = parse_statement(text)
    naive = execute_select(provider, select, config=NAIVE)
    planned = execute_select(provider, select)
    assert naive.columns == planned.columns, text
    assert naive.rows == planned.rows, text


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_single_table_filters(self, seed):
        rng = random.Random(derive_seed("planner-filters", seed))
        database = _random_instance(rng, {"t": ["a", "b", "c"]})
        provider = DatabaseProvider(database)
        bindings = {"t": ["a", "b", "c"]}
        for __ in range(12):
            where = _random_predicate(rng, bindings)
            _assert_equivalent(provider, f"select t.a, t.c from t where {where}")

    @pytest.mark.parametrize("seed", range(12))
    def test_two_table_joins(self, seed):
        rng = random.Random(derive_seed("planner-joins", seed))
        database = _random_instance(rng, {"r": ["a", "b"], "s": ["c", "d"]})
        provider = DatabaseProvider(database)
        bindings = {"r": ["a", "b"], "s": ["c", "d"]}
        for __ in range(10):
            where = _random_predicate(rng, bindings)
            _assert_equivalent(
                provider, f"select r.a, s.d from r, s where {where}"
            )
            _assert_equivalent(provider, f"select * from r, s where {where}")

    @pytest.mark.parametrize("seed", range(8))
    def test_three_table_joins_with_aliases(self, seed):
        rng = random.Random(derive_seed("planner-aliases", seed))
        database = _random_instance(
            rng, {"r": ["a", "b"], "s": ["c", "d"], "t": ["e", "f"]},
            rows_per_table=8,
        )
        provider = DatabaseProvider(database)
        bindings = {"x": ["a", "b"], "y": ["c", "d"], "z": ["e", "f"]}
        for __ in range(6):
            where = _random_predicate(rng, bindings)
            _assert_equivalent(
                provider,
                f"select x.b, y.c, z.f from r x, s y, t z where {where}",
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_aggregates_and_distinct(self, seed):
        rng = random.Random(derive_seed("planner-aggregates", seed))
        database = _random_instance(rng, {"r": ["a", "b"], "s": ["c", "d"]})
        provider = DatabaseProvider(database)
        bindings = {"r": ["a", "b"], "s": ["c", "d"]}
        for __ in range(6):
            where = _random_predicate(rng, bindings)
            _assert_equivalent(
                provider,
                f"select count(*), sum(r.a), min(s.d) from r, s where {where}",
            )
            _assert_equivalent(
                provider, f"select distinct r.b from r, s where {where}"
            )
            _assert_equivalent(
                provider,
                f"select r.b, count(*) from r, s where {where} group by r.b",
            )

    def test_correlated_subqueries(self):
        rng = random.Random(derive_seed("planner-subqueries"))
        database = _random_instance(rng, {"r": ["a", "b"], "s": ["c", "d"]})
        provider = DatabaseProvider(database)
        for text in (
            "select r.a from r where exists "
            "(select * from s where s.c = r.a)",
            "select r.a from r where r.b in (select s.d from s)",
            "select r.a from r where r.b not in (select s.d from s)",
            "select r.a, (select count(*) from s where s.c = r.b) from r",
            "select r.a from r where not exists "
            "(select * from s where s.c = r.a and s.d > 2)",
        ):
            _assert_equivalent(provider, text)

    def test_null_three_valued_logic_corner_cases(self):
        schema = schema_from_spec({"t": ["a", "b"]})
        database = Database(schema)
        database.load(
            "t", [(None, 1), (1, None), (None, None), (2, 2), (0, 3)]
        )
        provider = DatabaseProvider(database)
        for text in (
            "select * from t where t.a = 1",
            "select * from t where t.a = t.b",
            "select * from t where not (t.a = 1)",
            "select * from t where t.a = 1 or t.b = 1",
            "select * from t where t.a = 1 and t.b is null",
            "select * from t where t.a in (1, 2)",
            "select * from t where t.a not in (1, 2)",
            "select * from t where t.a between 0 and 2",
            "select * from t where null = null",
            "select * from t where t.a is null or t.b > 1",
        ):
            _assert_equivalent(provider, text)


class TestOverlayEquivalence:
    """Transition-table overlays go through the same two paths."""

    @pytest.mark.parametrize("seed", range(8))
    def test_overlay_joins_base_table(self, seed):
        rng = random.Random(derive_seed("planner-overlay", seed))
        database = _random_instance(rng, {"t": ["a", "b"], "u": ["c", "d"]})
        inserted_rows = [
            (rng.randrange(6), rng.randrange(6)) for __ in range(4)
        ] + [(None, rng.randrange(6))]
        provider = OverlayProvider(
            DatabaseProvider(database),
            {"inserted": (("a", "b"), inserted_rows)},
        )
        bindings = {"i": ["a", "b"], "u": ["c", "d"]}
        for __ in range(8):
            where = _random_predicate(rng, bindings)
            _assert_equivalent(
                provider,
                f"select i.a, u.d from inserted i, u where {where}",
            )

    def test_overlay_shadows_base_table(self):
        rng = random.Random(derive_seed("planner-shadow"))
        database = _random_instance(rng, {"t": ["a", "b"]})
        provider = OverlayProvider(
            DatabaseProvider(database),
            {"t": (("a", "b"), [(1, 2), (None, 4), (1, None)])},
        )
        _assert_equivalent(provider, "select * from t where t.a = 1")
        _assert_equivalent(provider, "select t.b from t where t.a = t.b")

    def test_overlay_never_uses_persistent_index(self):
        """Probing an overlay must not consult the base table's index."""
        rng = random.Random(derive_seed("planner-index-isolation"))
        database = _random_instance(rng, {"t": ["a", "b"]})
        # Warm the base table's persistent index on column a.
        base = DatabaseProvider(database)
        _assert_equivalent(base, "select * from t where t.a = 1")
        overlay_rows = [(1, 99), (2, 98)]
        provider = OverlayProvider(base, {"t": (("a", "b"), overlay_rows)})
        result = execute_select(
            provider, parse_statement("select t.b from t where t.a = 1")
        )
        assert result.rows == ((99,),)


class TestPlannerCacheIsolation:
    def test_equal_asts_with_different_literal_types_do_not_collide(self):
        """Literal(1) == Literal(True) in Python; plans must not merge."""
        schema = schema_from_spec({"t": ["id", "flag:bool"]})
        database = Database(schema)
        database.load("t", [(1, True), (0, False)])
        provider = DatabaseProvider(database)
        plan.clear_caches()
        int_query = parse_statement("select t.id from t where t.id = 1")
        bool_query = parse_statement("select t.id from t where t.id = true")
        assert execute_select(provider, int_query).rows == ((1,),)
        assert execute_select(provider, bool_query).rows == ()
        # And in the opposite warm-up order.
        plan.clear_caches()
        assert execute_select(provider, bool_query).rows == ()
        assert execute_select(provider, int_query).rows == ((1,),)

    def test_same_ast_different_overlay_layouts(self):
        """One AST planned against two column layouts stays distinct."""
        schema = schema_from_spec({"t": ["a", "b"]})
        database = Database(schema)
        database.load("t", [(1, 2)])
        select = parse_statement("select * from inserted where a = 1")
        provider_ab = OverlayProvider(
            DatabaseProvider(database), {"inserted": (("a", "b"), [(1, 7)])}
        )
        provider_ba = OverlayProvider(
            DatabaseProvider(database), {"inserted": (("b", "a"), [(1, 7)])}
        )
        assert execute_select(provider_ab, select).rows == ((1, 7),)
        # Same AST, but column a is now at index 1: (1, 7) has a=7.
        assert execute_select(provider_ba, select).rows == ()
