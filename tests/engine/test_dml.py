"""DML executor tests: set-oriented semantics and delta logging."""

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.dml import execute_statement, execute_script
from repro.engine.query import DatabaseProvider, OverlayProvider
from repro.errors import ExecutionError, RollbackSignal
from repro.lang.parser import parse_statement
from repro.schema.catalog import schema_from_spec
from repro.transitions.delta import DeltaLog


@pytest.fixture
def database():
    schema = schema_from_spec({"t": ["id", "v"], "u": ["x"]})
    db = Database(schema)
    db.load("t", [(1, 10), (2, 20), (3, 30)])
    return db


def run(database, source, log=None, provider=None):
    return execute_statement(
        database, parse_statement(source), provider=provider, log=log
    )


class TestInsert:
    def test_insert_values(self, database):
        result = run(database, "insert into t values (4, 40)")
        assert result.affected == 1
        assert (4, 40) in database.table("t").value_tuples()

    def test_insert_multiple_rows(self, database):
        result = run(database, "insert into t values (4, 40), (5, 50)")
        assert result.affected == 2

    def test_insert_select(self, database):
        result = run(database, "insert into u (select id from t where v > 15)")
        assert result.affected == 2
        assert sorted(database.table("u").value_tuples()) == [(2,), (3,)]

    def test_insert_arity_mismatch(self, database):
        with pytest.raises(ExecutionError, match="expects 2 values"):
            run(database, "insert into t values (1)")

    def test_insert_logs_primitives(self, database):
        log = DeltaLog()
        run(database, "insert into t values (4, 40)", log=log)
        assert len(log) == 1
        assert log.all()[0].kind == "I"
        assert log.all()[0].new == (4, 40)

    def test_insert_expression_values(self, database):
        run(database, "insert into t values (2 + 2, 5 * 8)")
        assert (4, 40) in database.table("t").value_tuples()


class TestDelete:
    def test_delete_with_predicate(self, database):
        result = run(database, "delete from t where v > 15")
        assert result.affected == 2
        assert database.table("t").value_tuples() == [(1, 10)]

    def test_delete_all(self, database):
        assert run(database, "delete from t").affected == 3
        assert len(database.table("t")) == 0

    def test_delete_nothing(self, database):
        assert run(database, "delete from t where v > 999").affected == 0

    def test_delete_logs_old_values(self, database):
        log = DeltaLog()
        run(database, "delete from t where id = 1", log=log)
        primitive = log.all()[0]
        assert primitive.kind == "D"
        assert primitive.old == (1, 10)

    def test_delete_with_alias(self, database):
        result = run(database, "delete from t x where x.v = 10")
        assert result.affected == 1

    def test_delete_with_subquery(self, database):
        database.load("u", [(1,)])
        result = run(database, "delete from t where id in (select x from u)")
        assert result.affected == 1


class TestPartitionPrunedTargets:
    """A partition-key conjunct prunes a target scan to one shard; every
    other conjunct must still be checked per row, wherever it stands."""

    @pytest.fixture
    def sharded(self):
        schema = schema_from_spec({"t": ["id", "v"]})
        db = Database(schema)
        db.load("t", [(i % 2, i) for i in range(8)])
        db.declare_partition_key("t", "id")
        db.apply_partitioning(4)
        return db

    @pytest.mark.parametrize(
        "where",
        ["v > 5 and id = 1", "id = 1 and v > 5", "v > 2 and v < 7 and id = 1"],
    )
    def test_residual_conjuncts_around_the_key(self, sharded, where):
        # The reference leg runs on a copy under the default config
        # (partitions=1), which scans the flat tid map without pruning.
        flat = sharded.copy()
        config = ExecutionConfig(partitions=4)
        statement = parse_statement(f"delete from t where {where}")
        execute_statement(sharded, statement, config=config)
        execute_statement(flat, statement)
        assert sharded.canonical() == flat.canonical()
        assert len(sharded.table("t")) < 8


class TestUpdate:
    def test_update_with_predicate(self, database):
        result = run(database, "update t set v = v + 1 where id < 3")
        assert result.affected == 2
        assert database.table("t").value_tuples() == [(1, 11), (2, 21), (3, 30)]

    def test_update_reads_pre_statement_state(self, database):
        # Set everything to the current maximum: the max must be computed
        # once, not re-evaluated as rows change.
        run(database, "update t set v = (select max(v) from t)")
        assert all(v == 30 for __, v in database.table("t").value_tuples())

    def test_update_multiple_columns(self, database):
        run(database, "update t set id = id + 100, v = 0 where id = 1")
        assert (101, 0) in database.table("t").value_tuples()

    def test_update_logs_old_and_new(self, database):
        log = DeltaLog()
        run(database, "update t set v = 99 where id = 1", log=log)
        primitive = log.all()[0]
        assert primitive.kind == "U"
        assert primitive.old == (1, 10)
        assert primitive.new == (1, 99)

    def test_update_row_values_visible_in_assignment(self, database):
        run(database, "update t set v = id * 1000")
        assert database.table("t").value_tuples() == [
            (1, 1000),
            (2, 2000),
            (3, 3000),
        ]


class TestSelectStatement:
    def test_select_returns_query_result(self, database):
        result = run(database, "select id from t where v = 10")
        assert result.kind == "select"
        assert list(result.query_result.rows) == [(1,)]


class TestRollback:
    def test_rollback_raises_signal(self, database):
        with pytest.raises(RollbackSignal) as excinfo:
            run(database, "rollback 'bad data'")
        assert excinfo.value.message == "bad data"

    def test_script_stops_at_rollback(self, database):
        statements = [
            parse_statement("insert into t values (9, 9)"),
            parse_statement("rollback"),
            parse_statement("insert into t values (8, 8)"),
        ]
        with pytest.raises(RollbackSignal):
            execute_script(database, statements)
        values = database.table("t").value_tuples()
        assert (9, 9) in values  # statement before rollback did run
        assert (8, 8) not in values  # statement after rollback did not


class TestTransitionTableProvider:
    def test_dml_can_read_overlay_tables(self, database):
        provider = OverlayProvider(
            DatabaseProvider(database),
            {"inserted": (("id", "v"), [(2, 20)])},
        )
        result = run(
            database,
            "delete from t where id in (select id from inserted)",
            provider=provider,
        )
        assert result.affected == 1
        assert (2, 20) not in database.table("t").value_tuples()
