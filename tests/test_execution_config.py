"""The unified ExecutionConfig session API.

One frozen value object carries every execution option and is the only
way to pass them (``config=``). These tests pin the config's defaults
and validation, the naive reference path that ``matching="naive"``
selects for conditions, statements and subqueries alike, and the CLI's
``--matching`` surface.
"""

from __future__ import annotations

import json

import pytest

from repro import DEFAULT_CONFIG, ExecutionConfig
from repro.config import resolve_config
from repro.engine import plan
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.query import DatabaseProvider, execute_select
from repro.lang.parser import parse_expression, parse_statement
from repro.rules.ruleset import RuleSet
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec({"t": ["id", "v"]})


@pytest.fixture
def ruleset(schema):
    return RuleSet.parse(
        """
        create rule r on t when inserted
        if exists (select * from t where v > 5)
        then delete from t where v > 5
        """,
        schema,
    )


class TestConfigValue:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.matching == "planned"
        assert config.incremental is True
        assert config.durable is False
        assert config.wal is None
        assert config == DEFAULT_CONFIG

    def test_rejects_unknown_matching_mode(self):
        with pytest.raises(ValueError, match="matching must be one of"):
            ExecutionConfig(matching="treat")

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionConfig().matching = "naive"

    def test_with_options(self):
        config = ExecutionConfig().with_options(matching="rete")
        assert config.matching == "rete"
        assert config.incremental is True

    def test_wants_wal(self):
        assert not ExecutionConfig().wants_wal
        assert ExecutionConfig(durable=True).wants_wal
        assert ExecutionConfig(wal="x.wal").wants_wal


class TestResolveConfig:
    def test_no_arguments_yields_default(self):
        assert resolve_config(None) is DEFAULT_CONFIG

    def test_explicit_config_passes_through(self):
        config = ExecutionConfig(matching="naive")
        assert resolve_config(config) is config


class TestNaiveMatching:
    """``matching="naive"`` selects the naive reference path everywhere."""

    NAIVE = ExecutionConfig(matching="naive", incremental=False)

    def test_rule_processor(self, ruleset, schema):
        processor = RuleProcessor(ruleset, Database(schema), config=self.NAIVE)
        assert processor.incremental is False
        assert processor.config.matching == "naive"
        processor.execute_user("insert into t values (1, 9)")
        processor.run()
        assert processor.database.table("t").value_tuples() == []

    def test_evaluator(self, schema):
        database = Database(schema)
        database.load("t", [(1, 9)])
        provider = DatabaseProvider(database)
        expr = parse_expression("exists (select * from t where v > 5)")
        evaluator = Evaluator(provider, config=self.NAIVE)
        assert evaluator.evaluate(expr, RowContext()) is True

    def test_execute_select(self, schema):
        database = Database(schema)
        database.load("t", [(1, 9), (2, 1)])
        provider = DatabaseProvider(database)
        select = parse_statement("select * from t where v > 5")
        result = execute_select(provider, select, config=self.NAIVE)
        assert result.rows == ((1, 9),)

    def test_execute_statement(self, schema):
        """The statement and its subquery both run on the naive
        executor, so the planner's counters do not move."""
        database = Database(schema)
        database.load("t", [(1, 9), (2, 1)])
        before = plan.STATS.snapshot()
        execute_statement(
            database,
            parse_statement(
                "delete from t where id in (select id from t where v > 5)"
            ),
            config=self.NAIVE,
        )
        delta = plan.STATS.delta_since(before)
        for counter in (
            "plans_built",
            "plan_cache_hits",
            "predicates_compiled",
            "predicate_cache_hits",
        ):
            assert delta[counter] == 0, counter
        assert database.table("t").value_tuples() == [(2, 1)]


class TestCliMatching:
    @pytest.fixture
    def files(self, tmp_path):
        def write(name: str, content: str) -> str:
            path = tmp_path / name
            path.write_text(content)
            return str(path)

        return write

    def run_cli(self, files, matching: str, capsys) -> dict:
        from repro.cli import main

        code = main(
            [
                files(
                    "r.txt",
                    "create rule r on t when inserted\n"
                    "if exists (select * from t where v > 5)\n"
                    "then delete from t where v > 5\n",
                ),
                "--schema",
                files("s.txt", "t: id, v"),
                "--run",
                "insert into t values (1, 9)",
                "--run",
                "insert into t values (2, 1)",
                "--matching",
                matching,
                "--json",
            ]
        )
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_all_modes_agree_and_report_stats(self, files, capsys):
        payloads = {
            matching: self.run_cli(files, matching, capsys)
            for matching in ("naive", "planned", "rete")
        }
        finals = {
            matching: payload["execution"]["final_tables"]
            for matching, payload in payloads.items()
        }
        assert finals["naive"] == finals["planned"] == finals["rete"]
        assert finals["rete"] == {"t": [[2, 1]]}
        execution = payloads["rete"]["execution"]
        # The stats are process-global accumulators (like the planner's),
        # so assert growth, not absolute values.
        assert execution["rete_stats"]["rules_supported"] >= 1
        assert execution["rete_stats"]["terminal_hits"] >= 1
        assert "planner_stats" in execution
        # The analysis report's own stats section is untouched.
        assert "confluence_passes" in payloads["rete"]["stats"]
