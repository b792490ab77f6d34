"""SELECT executor tests."""

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.query import (
    DatabaseProvider,
    OverlayProvider,
    QueryResult,
    execute_select,
)
from repro.errors import QueryError
from repro.lang.parser import parse_statement
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def provider():
    schema = schema_from_spec(
        {"emp": ["id", "dept", "salary"], "dept": ["id", "budget"]}
    )
    database = Database(schema)
    database.load("emp", [(1, 10, 100), (2, 10, 200), (3, 20, 300)])
    database.load("dept", [(10, 1000), (20, 2000)])
    return DatabaseProvider(database)


def run(provider, source) -> QueryResult:
    return execute_select(provider, parse_statement(source))


class TestProjection:
    def test_select_star(self, provider):
        result = run(provider, "select * from emp")
        assert result.columns == ("id", "dept", "salary")
        assert len(result) == 3

    def test_select_columns(self, provider):
        result = run(provider, "select salary, id from emp where id = 1")
        assert result.columns == ("salary", "id")
        assert list(result.rows) == [(100, 1)]

    def test_computed_column_with_alias(self, provider):
        result = run(provider, "select salary * 2 as double_pay from emp where id = 1")
        assert result.columns == ("double_pay",)
        assert list(result.rows) == [(200,)]

    def test_default_column_names(self, provider):
        result = run(provider, "select salary + 1, salary from emp where id = 1")
        assert result.columns == ("column1", "salary")


class TestFiltering:
    def test_where_filters(self, provider):
        result = run(provider, "select id from emp where salary > 150")
        assert sorted(result.rows) == [(2,), (3,)]

    def test_unknown_predicate_drops_row(self, provider):
        # NULL comparison is UNKNOWN, row dropped.
        result = run(provider, "select id from emp where salary > null")
        assert list(result.rows) == []

    def test_no_rows_match(self, provider):
        assert list(run(provider, "select * from emp where id = 99").rows) == []


class TestJoin:
    def test_cross_product(self, provider):
        result = run(provider, "select e.id, d.id from emp e, dept d")
        assert len(result) == 6

    def test_equijoin(self, provider):
        result = run(
            provider,
            "select e.id, d.budget from emp e, dept d where e.dept = d.id",
        )
        assert sorted(result.rows) == [(1, 1000), (2, 1000), (3, 2000)]

    def test_self_join(self, provider):
        result = run(
            provider,
            "select a.id, b.id from emp a, emp b "
            "where a.dept = b.dept and a.id < b.id",
        )
        assert list(result.rows) == [(1, 2)]

    def test_star_with_join_qualifies_columns(self, provider):
        result = run(provider, "select * from emp e, dept d where e.dept = d.id")
        assert "e.id" in result.columns and "d.budget" in result.columns

    def test_duplicate_binding_rejected(self, provider):
        with pytest.raises(QueryError, match="duplicate table binding"):
            run(provider, "select * from emp, emp")


class TestDistinct:
    def test_distinct_removes_duplicates(self, provider):
        result = run(provider, "select distinct dept from emp")
        assert sorted(result.rows) == [(10,), (20,)]

    def test_distinct_star(self, provider):
        result = run(provider, "select distinct * from emp")
        assert len(result) == 3


class TestAggregates:
    def test_count_star(self, provider):
        assert run(provider, "select count(*) from emp").scalar() == 3

    def test_count_star_with_filter(self, provider):
        result = run(provider, "select count(*) from emp where dept = 10")
        assert result.scalar() == 2

    def test_sum_min_max_avg(self, provider):
        result = run(
            provider,
            "select sum(salary), min(salary), max(salary), avg(salary) from emp",
        )
        assert list(result.rows) == [(600, 100, 300, 200.0)]

    def test_aggregate_arithmetic(self, provider):
        assert run(provider, "select count(*) + 1 from emp").scalar() == 4

    def test_aggregate_over_empty_set(self, provider):
        result = run(provider, "select count(*), sum(salary) from emp where id = 99")
        assert list(result.rows) == [(0, None)]

    def test_count_distinct(self, provider):
        assert run(provider, "select count(distinct dept) from emp").scalar() == 2

    def test_bare_column_with_aggregate_rejected(self, provider):
        with pytest.raises(QueryError, match="GROUP BY"):
            run(provider, "select dept, count(*) from emp")

    def test_aggregate_over_join(self, provider):
        result = run(
            provider,
            "select count(*) from emp e, dept d where e.dept = d.id",
        )
        assert result.scalar() == 3


class TestSubqueries:
    def test_where_with_in_subquery(self, provider):
        result = run(
            provider,
            "select id from emp where dept in (select id from dept where budget > 1500)",
        )
        assert list(result.rows) == [(3,)]

    def test_correlated_exists(self, provider):
        result = run(
            provider,
            "select d.id from dept d where exists "
            "(select * from emp e where e.dept = d.id and e.salary > 250)",
        )
        assert list(result.rows) == [(20,)]

    def test_scalar_subquery_in_projection(self, provider):
        result = run(
            provider,
            "select id, (select max(budget) from dept) from emp where id = 1",
        )
        assert list(result.rows) == [(1, 2000)]


class TestOverlayProvider:
    def test_overlay_shadows_base(self, provider):
        overlay = OverlayProvider(
            provider, {"emp": (("id",), [(42,)])}
        )
        result = execute_select(overlay, parse_statement("select * from emp"))
        assert list(result.rows) == [(42,)]

    def test_overlay_passes_through_other_tables(self, provider):
        overlay = OverlayProvider(provider, {"inserted": (("id",), [(1,)])})
        result = execute_select(overlay, parse_statement("select * from dept"))
        assert len(result) == 2
        result = execute_select(overlay, parse_statement("select * from inserted"))
        assert list(result.rows) == [(1,)]


class TestQueryResult:
    def test_scalar_requires_1x1(self, provider):
        with pytest.raises(QueryError, match="1x1"):
            run(provider, "select id from emp").scalar()

    def test_iteration(self, provider):
        rows = list(run(provider, "select id from emp where dept = 10"))
        assert sorted(rows) == [(1,), (2,)]


class TestQueryResultImmutability:
    """Regression: rows used to be a list callers could alias/mutate."""

    def test_rows_is_a_tuple(self, provider):
        result = run(provider, "select * from emp")
        assert isinstance(result.rows, tuple)
        assert all(isinstance(row, tuple) for row in result.rows)

    def test_rows_cannot_be_mutated(self, provider):
        result = run(provider, "select id from emp")
        with pytest.raises((TypeError, AttributeError)):
            result.rows.append((99,))

    def test_all_paths_return_tuples(self, provider):
        for source in (
            "select * from emp",
            "select id from emp where dept = 10",
            "select count(*) from emp",
            "select dept, count(*) from emp group by dept",
            "select distinct dept from emp",
            "select id from emp where dept = 10",
        ):
            for matching in ("naive", "planned"):
                result = execute_select(
                    provider,
                    parse_statement(source),
                    config=ExecutionConfig(matching=matching),
                )
                assert isinstance(result.rows, tuple), (source, matching)

    def test_subquery_sees_immutable_rows(self, provider):
        result = run(
            provider,
            "select id from emp where dept in (select id from dept)",
        )
        assert isinstance(result.rows, tuple)
        assert len(result.rows) == 3
