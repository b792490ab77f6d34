"""Rete vs. planned vs. naive condition-matching equivalence.

The incremental match network (:mod:`repro.engine.rete`) answers rule
conditions from materialized terminal memories advanced by delta-log
folding. Its contract is exact: for every supported condition it must
return the same verdict the planned executor computes from scratch, and
for unsupported conditions it must decline (``None``) so the planned
path answers. This harness drives seeded sessions under all three
``matching`` modes over generated workloads and asserts full observable
agreement — rules considered, observables, state keys, final canonical
database — plus the network-specific disciplines: COW memory sharing
across ``explore()`` forks, retraction correctness across rollback and
``begin_transaction`` boundaries, alpha/beta node sharing, and planned
fallback for out-of-scope conditions.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.rete import ReteInstance, ReteNetwork
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import RandomStrategy
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.transitions.delta import DeltaLog
from repro.workloads.generator import (
    GeneratorConfig,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)
from repro.workloads.powernet import power_network_workload
from tests.seeding import derive_seed

MODES = ("naive", "planned", "rete")


def config_for(matching: str) -> ExecutionConfig:
    return ExecutionConfig(matching=matching)


def drive(processor: RuleProcessor, statements, max_steps: int = 40) -> dict:
    """Run one session step-by-step, recording everything comparable."""
    record: dict = {"keys": [], "considered": [], "exhausted": False}
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


def all_ways(ruleset, database, statements, seed, max_steps=40) -> dict:
    records = {}
    for matching in MODES:
        processor = RuleProcessor(
            ruleset,
            database.copy(),
            strategy=RandomStrategy(seed),
            config=config_for(matching),
        )
        records[matching] = drive(processor, statements, max_steps=max_steps)
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
        site = derive_seed("rete-sessions", seed)
        ruleset = RandomRuleSetGenerator(config, seed=site).generate()
        instances = RandomInstanceGenerator(config)
        database = instances.generate_database(ruleset.schema, seed=site)
        statements = instances.generate_transition(ruleset.schema, seed=site)

        records = all_ways(ruleset, database, statements, site)
        assert records["rete"] == records["planned"]
        assert records["naive"] == records["planned"]

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_transaction_sessions_agree(self, seed):
        """Quiescence → begin_transaction → more work: the network's
        memories must survive the marker advance, and a second
        transition must fold onto them correctly."""
        config = GeneratorConfig(n_tables=3, n_rules=5, rows_per_table=3)
        site = derive_seed("rete-two-points", seed)
        ruleset = RandomRuleSetGenerator(config, seed=200 + site).generate()
        instances = RandomInstanceGenerator(config)
        database = instances.generate_database(ruleset.schema, seed=site)
        first = instances.generate_transition(ruleset.schema, seed=site)
        second = instances.generate_transition(ruleset.schema, seed=site + 55)

        results = []
        for matching in MODES:
            processor = RuleProcessor(
                ruleset,
                database.copy(),
                strategy=RandomStrategy(site),
                max_steps=40,
                config=config_for(matching),
            )
            outcome: dict = {}
            from repro.errors import RuleProcessingLimitExceeded

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
            outcome["key"] = processor.state_key()
            outcome["final"] = processor.database.canonical()
            results.append(outcome)
        assert results[0] == results[1] == results[2]


class TestPowernetEquivalence:
    def test_overload_run_agrees_across_modes(self):
        workload = power_network_workload()
        records = []
        for matching in MODES:
            processor = RuleProcessor(
                workload.ruleset,
                workload.database.copy(),
                max_steps=500,
                config=config_for(matching),
            )
            for statement in workload.overload_transition():
                processor.execute_user(statement)
            result = processor.run()
            records.append(
                (
                    result.outcome,
                    result.rules_considered,
                    tuple(result.observables),
                    processor.database.canonical(),
                )
            )
        assert records[0] == records[1] == records[2]
        assert records[0][0] == "quiescent"


class TestRollbackRetraction:
    @pytest.fixture
    def schema(self):
        return schema_from_spec({"t": ["id", "v"], "audit": ["id", "event"]})

    def test_rollback_and_next_transaction_agree(self, schema):
        """Rollback restores the database without truncating the log;
        the network must invalidate and rebuild, not fold the
        restore-invisible suffix twice."""
        source = """
        create rule guard on t when inserted
        if exists (select * from t where v > 10)
        then rollback 'v too large'

        create rule note on t when inserted
        if exists (select * from t where v > 0)
        then insert into audit (select id, 1 from inserted)
        precedes guard
        """
        ruleset = RuleSet.parse(source, schema)

        records = []
        for matching in MODES:
            processor = RuleProcessor(
                ruleset, Database(schema), config=config_for(matching)
            )
            keys = []
            processor.execute_user("insert into t values (1, 99)")
            keys.append(processor.state_key())
            first = processor.run()
            keys.append(processor.state_key())
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
        assert records[0] == records[1] == records[2]
        assert records[0]["first"][0] == "rolled_back"
        assert records[0]["second"][0] == "quiescent"

    def test_delete_retracts_terminal_tokens(self, schema):
        """A delete that empties the condition's support must flip the
        verdict back to false (TREAT retraction, not rebuild)."""
        source = """
        create rule watch on t when inserted, deleted
        if exists (select * from t where v > 5)
        then insert into audit values (1, 1)
        """
        ruleset = RuleSet.parse(source, schema)
        processor = RuleProcessor(
            ruleset, Database(schema), config=config_for("rete")
        )
        rete = processor._rete
        assert rete is not None

        processor.execute_user("insert into t values (1, 9)")
        assert rete.verdict("watch") is True
        processor.execute_user("delete from t where id = 1")
        assert rete.verdict("watch") is False
        processor.execute_user("insert into t values (2, 2)")
        assert rete.verdict("watch") is False
        processor.execute_user("update t set v = 6 where id = 2")
        assert rete.verdict("watch") is True


class TestExplorationEquivalence:
    def test_explored_graphs_agree(self):
        schema = schema_from_spec(
            {"orders": ["id", "item"], "stock": ["item", "on_hand"]}
        )
        source = """
        create rule a on orders when inserted
        if exists (select * from stock where on_hand < 9)
        then update stock set on_hand = on_hand + 1
        create rule b on orders when inserted
        if exists (select * from orders, stock
                   where orders.item = stock.item and stock.on_hand > 0)
        then update stock set on_hand = 2
        create rule c on orders when inserted
        then delete from orders where id = 1
        """
        ruleset = RuleSet.parse(source, schema)

        graphs = []
        for matching in ("planned", "rete"):
            database = Database(schema)
            database.load("stock", [(0, 0), (1, 5)])
            processor = RuleProcessor(
                ruleset, database, config=config_for(matching)
            )
            processor.execute_user("insert into orders values (1, 0)")
            graphs.append(explore(processor))

        planned, rete = graphs
        assert planned.initial == rete.initial
        assert planned.edges == rete.edges
        assert planned.final_states == rete.final_states
        assert planned.final_databases == rete.final_databases
        assert planned.observable_streams == rete.observable_streams
        assert planned.paths_to_final() == rete.paths_to_final()


class TestForkSharing:
    def setup_workload(self):
        schema = schema_from_spec({"t": ["a", "b"], "v": ["x"]})
        source = """
        create rule r on t when inserted, deleted, updated
        if exists (select * from t where b > 5)
        then insert into v values (1)
        """
        ruleset = RuleSet.parse(source, schema)
        database = Database(schema)
        database.load("t", [(1, 9), (2, 3)])
        return ruleset, database

    def test_fork_shares_memories_until_written(self):
        ruleset, database = self.setup_workload()
        log = DeltaLog()
        rete = ReteInstance(ReteNetwork(ruleset), database, log)
        assert rete.verdict("r") is True

        child_db = database.copy()
        child_log = log.fork()
        child = rete.fork(child_db, child_log)
        (alpha_key,) = rete.network.alphas
        # The memory object itself is aliased across the fork...
        assert child._memories[alpha_key] is rete._memories[alpha_key]
        assert child.verdict("r") is True

        # ...until one side writes: the child COW-copies before its
        # first mutation and the parent's memory is untouched.
        from repro.engine.dml import execute_statement
        from repro.lang.parser import parse_statement

        execute_statement(
            child_db, parse_statement("delete from t"), log=child_log
        )
        assert child.verdict("r") is False
        assert child._memories[alpha_key] is not rete._memories[alpha_key]
        assert rete.verdict("r") is True

    def test_divergent_forks_stay_correct_under_explore(self):
        """explore() forks the processor at every branch point; every
        fork's verdicts must track its own database, not a sibling's."""
        schema = schema_from_spec({"t": ["a"], "v": ["x"]})
        source = """
        create rule grow on t when inserted, deleted
        if exists (select * from t where a > 0)
        then insert into v values (1)
        create rule shrink on t when inserted
        then delete from t where a > 0
        """
        ruleset = RuleSet.parse(source, schema)
        graphs = []
        for matching in ("planned", "rete"):
            processor = RuleProcessor(
                ruleset, Database(schema), config=config_for(matching)
            )
            processor.execute_user("insert into t values (1)")
            graphs.append(explore(processor))
        planned, rete = graphs
        assert planned.edges == rete.edges
        assert planned.final_databases == rete.final_databases


class TestNetworkStructure:
    def test_identical_conditions_share_nodes(self):
        schema = schema_from_spec({"t": ["a", "b"], "u": ["a", "c"]})
        source = """
        create rule r1 on t when inserted
        if exists (select * from t, u where t.a = u.a and u.c > 0)
        then delete from t where a < 0
        create rule r2 on u when inserted
        if exists (select * from t, u where t.a = u.a and u.c > 0)
        then delete from u where c < 0
        create rule r3 on t when deleted
        if exists (select * from t where t.b > 1)
        then delete from t where b > 1
        """
        ruleset = RuleSet.parse(source, schema)
        network = ReteNetwork(ruleset)
        assert sorted(network.rules) == ["r1", "r2", "r3"]
        # r1/r2 share their whole chain; r3 adds one more alpha. The
        # shared chain's t-alpha (unfiltered) and r3's t-alpha
        # (filtered on b) are distinct nodes.
        assert len(network.alphas) == 3
        assert len(network.betas) == 1

    def test_unsupported_conditions_fall_back_to_planned(self):
        schema = schema_from_spec({"t": ["a", "b"], "v": ["x"]})
        source = """
        create rule agg on t when inserted
        if (select count(a) from t) > 2
        then insert into v values (1)
        create rule transition on t when inserted
        if exists (select * from inserted where a > 0)
        then insert into v values (2)
        create rule plain on t when inserted
        if exists (select * from t where b > 5)
        then insert into v values (3)
        """
        ruleset = RuleSet.parse(source, schema)
        network = ReteNetwork(ruleset)
        # Scalar-subquery comparisons and transition-table reads are out
        # of network scope; the plain exists is in scope.
        assert sorted(network.rules) == ["plain"]

        processor = RuleProcessor(
            ruleset, Database(schema), config=config_for("rete")
        )
        assert processor._rete.verdict("agg") is None
        assert processor._rete.verdict("transition") is None

        records = []
        for matching in ("planned", "rete"):
            p = RuleProcessor(
                ruleset, Database(schema), config=config_for(matching)
            )
            p.execute_user("insert into t values (1, 9)")
            p.execute_user("insert into t values (2, 1)")
            p.execute_user("insert into t values (3, 1)")
            result = p.run()
            records.append(
                (
                    result.outcome,
                    result.rules_considered,
                    p.database.canonical(),
                )
            )
        assert records[0] == records[1]
