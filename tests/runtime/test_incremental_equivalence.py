"""Incremental vs. from-scratch triggering equivalence.

The incremental substrate (cached per-rule net effects advanced by
:meth:`NetEffect.fold`, the per-table touch index, copy-on-write
snapshots) must be semantics-preserving by construction: for any
workload, a processor with ``incremental=True`` and one with
``incremental=False`` (the seed's from-scratch path) must agree on
every observable of a run — the rules considered, the observable
stream, the final canonical database, and the full ``state_key()``
sequence — including across rollback and ``begin_transaction``
boundaries. This randomized harness drives seeded sessions both ways
over generated workloads (the same generation the validation oracle's
sampling uses) and asserts exact agreement.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.errors import RuleProcessingLimitExceeded
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import RandomStrategy
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.workloads.generator import (
    GeneratorConfig,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)
from tests.seeding import derive_seed


def drive(processor: RuleProcessor, statements, max_steps: int = 40) -> dict:
    """Run one session manually, recording everything comparable.

    Uses the step-by-step API (not :meth:`run`) so the ``state_key()``
    sequence after every consideration is captured too.
    """
    record: dict = {
        "keys": [],
        "considered": [],
        "exhausted": False,
    }
    for statement in statements:
        processor.execute_user(statement)
    record["keys"].append(processor.state_key())
    steps = 0
    while True:
        eligible = processor.eligible_rules()
        if not eligible:
            break
        if steps >= max_steps:
            record["exhausted"] = True
            break
        chosen = processor.strategy.choose(eligible)
        outcome = processor.consider(chosen, eligible=eligible)
        record["considered"].append(
            (outcome.rule, outcome.condition_was_true, outcome.rolled_back)
        )
        record["keys"].append(processor.state_key())
        steps += 1
    record["observables"] = tuple(processor.observables)
    record["final_database"] = processor.database.canonical()
    record["rolled_back"] = processor.rolled_back
    return record


def both_ways(ruleset, database, statements, seed, max_steps=40):
    records = []
    for incremental in (False, True):
        processor = RuleProcessor(
            ruleset,
            database.copy(),
            strategy=RandomStrategy(seed),
            config=ExecutionConfig(incremental=incremental),
        )
        records.append(drive(processor, statements, max_steps=max_steps))
    return records


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_generated_sessions_agree(self, seed):
        config = GeneratorConfig(
            n_tables=3,
            n_rules=6,
            p_cross_table=0.7,
            p_observable=0.3,
            rows_per_table=4,
            statements_per_transition=3,
        )
        site = derive_seed("incremental-sessions", seed)
        ruleset = RandomRuleSetGenerator(config, seed=site).generate()
        instances = RandomInstanceGenerator(config)
        database = instances.generate_database(ruleset.schema, seed=site)
        statements = instances.generate_transition(ruleset.schema, seed=site)

        scratch, incremental = both_ways(ruleset, database, statements, site)
        assert scratch == incremental

    @pytest.mark.parametrize("seed", range(6))
    def test_two_assertion_points_agree(self, seed):
        """Quiescence advances every marker; the next assertion point's
        transitions must compose identically in both modes."""
        config = GeneratorConfig(n_tables=3, n_rules=5, rows_per_table=3)
        site = derive_seed("incremental-two-points", seed)
        ruleset = RandomRuleSetGenerator(config, seed=100 + site).generate()
        instances = RandomInstanceGenerator(config)
        database = instances.generate_database(ruleset.schema, seed=site)
        first = instances.generate_transition(ruleset.schema, seed=site)
        second = instances.generate_transition(ruleset.schema, seed=site + 77)

        results = []
        for incremental in (False, True):
            processor = RuleProcessor(
                ruleset,
                database.copy(),
                strategy=RandomStrategy(site),
                max_steps=40,
                config=ExecutionConfig(incremental=incremental),
            )
            outcome = {"keys": []}
            try:
                for statement in first:
                    processor.execute_user(statement)
                processor.run()
                processor.begin_transaction()
                for statement in second:
                    processor.execute_user(statement)
                result = processor.run()
                outcome["second"] = (
                    result.outcome,
                    result.rules_considered,
                    tuple(result.observables),
                )
            except RuleProcessingLimitExceeded:
                outcome["second"] = "exhausted"
            outcome["keys"].append(processor.state_key())
            outcome["final"] = processor.database.canonical()
            results.append(outcome)
        assert results[0] == results[1]


class TestRollbackEquivalence:
    @pytest.fixture
    def schema(self):
        return schema_from_spec({"t": ["id", "v"], "audit": ["id", "event"]})

    def test_rollback_and_fresh_transaction_agree(self, schema):
        source = """
        create rule guard on t when inserted
        if exists (select * from inserted where v > 10)
        then rollback 'v too large'

        create rule note on t when inserted
        then insert into audit (select id, 1 from inserted)
        precedes guard
        """
        ruleset = RuleSet.parse(source, schema)

        records = []
        for incremental in (False, True):
            processor = RuleProcessor(
                ruleset,
                Database(schema),
                config=ExecutionConfig(incremental=incremental),
            )
            keys = []
            # First transaction: triggers the rollback path.
            processor.execute_user("insert into t values (1, 99)")
            keys.append(processor.state_key())
            first = processor.run()
            keys.append(processor.state_key())
            # Second transaction across the rolled-back boundary.
            processor.begin_transaction()
            processor.execute_user("insert into t values (2, 3)")
            keys.append(processor.state_key())
            second = processor.run()
            keys.append(processor.state_key())
            records.append(
                {
                    "first": (first.outcome, first.rules_considered),
                    "second": (second.outcome, second.rules_considered),
                    "observables": tuple(processor.observables),
                    "final": processor.database.canonical(),
                    "keys": keys,
                }
            )
        assert records[0] == records[1]
        assert records[0]["first"][0] == "rolled_back"
        assert records[0]["second"][0] == "quiescent"


class TestExplorationEquivalence:
    def test_explored_graphs_agree(self):
        schema = schema_from_spec(
            {"orders": ["id", "item"], "stock": ["item", "on_hand"]}
        )
        source = """
        create rule a on orders when inserted
        then update stock set on_hand = on_hand + 1
        create rule b on orders when inserted
        then update stock set on_hand = 2
        create rule c on orders when inserted
        then delete from orders where id = 1
        """
        ruleset = RuleSet.parse(source, schema)

        graphs = []
        for incremental in (False, True):
            database = Database(schema)
            database.load("stock", [(0, 0), (1, 5)])
            processor = RuleProcessor(
                ruleset,
                database,
                config=ExecutionConfig(incremental=incremental),
            )
            processor.execute_user("insert into orders values (1, 0)")
            graphs.append(explore(processor))

        scratch, incremental = graphs
        assert scratch.initial == incremental.initial
        assert scratch.edges == incremental.edges
        assert scratch.final_states == incremental.final_states
        assert scratch.final_databases == incremental.final_databases
        assert scratch.observable_streams == incremental.observable_streams
        assert scratch.paths_to_final() == incremental.paths_to_final()
