"""Parallel scheduler: admission soundness and serial equivalence.

The :class:`~repro.runtime.parallel.ParallelScheduler` may only batch
two rules into one round when it holds a proof — different static partitions,
or a positive Definition 6.5 commute verdict plus disjoint write
tables. These tests pin the admission rules (including that unknown or
negative verdicts serialize), the rollback fallback, and byte-identical
parallel-vs-serial behavior on the case studies, the drain workload and
randomized generated rule sets.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.errors import RuleProcessingLimitExceeded
from repro.runtime import parallel
from repro.runtime.parallel import ParallelScheduler
from repro.runtime.processor import RuleProcessor
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.workloads.generator import (
    GeneratorConfig,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)
from repro.workloads.partitioned import partitioned_workload
from repro.workloads.powernet import power_network_workload
from tests.seeding import derive_seed

SERIAL = ExecutionConfig()
PARALLEL = ExecutionConfig(scheduler="parallel", partitions=2)


@pytest.fixture(autouse=True)
def fresh_scheduler_stats():
    parallel.STATS.reset()
    yield
    parallel.STATS.reset()


def drive(ruleset, database, statements, config, max_steps=200):
    processor = RuleProcessor(
        ruleset, database.copy(), config=config, max_steps=max_steps
    )
    for statement in statements:
        processor.execute_user(statement)
    result = processor.run()
    return {
        "outcome": result.outcome,
        "steps": len(result.steps),
        "observables": tuple(str(action) for action in result.observables),
        "final": processor.database.canonical(),
    }


def both_ways(ruleset, database, statements, max_steps=200):
    return (
        drive(ruleset, database, statements, SERIAL, max_steps),
        drive(ruleset, database, statements, PARALLEL, max_steps),
    )


class TestEquivalence:
    def test_powernet_agrees(self):
        workload = power_network_workload()
        serial, batched = both_ways(
            workload.ruleset,
            workload.database,
            workload.overload_transition(),
            max_steps=500,
        )
        assert serial == batched
        assert serial["outcome"] == "quiescent"

    def test_powernet_actually_batched(self):
        workload = power_network_workload()
        drive(
            workload.ruleset,
            workload.database,
            workload.overload_transition(),
            PARALLEL,
            max_steps=500,
        )
        assert parallel.STATS.batches >= 1
        assert parallel.STATS.parallel_considerations >= 2
        assert parallel.STATS.rollback_fallbacks == 0

    def test_drain_workload_agrees_and_merges(self):
        workload = partitioned_workload(
            rows=2000, seed=derive_seed("drain"), hot_rows_per_region=10
        )
        serial, batched = both_ways(
            workload.ruleset,
            workload.database,
            workload.drain_transition(),
            max_steps=2000,
        )
        assert serial == batched
        assert parallel.STATS.batches >= 1
        assert parallel.STATS.merged_primitives >= 1

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_sessions_agree(self, seed):
        config = GeneratorConfig(
            n_tables=4,
            n_rules=8,
            p_cross_table=0.5,
            p_observable=0.2,
            rows_per_table=4,
            statements_per_transition=3,
        )
        site = derive_seed("parallel-sessions", seed)
        ruleset = RandomRuleSetGenerator(config, seed=site).generate()
        instances = RandomInstanceGenerator(config)
        database = instances.generate_database(ruleset.schema, seed=site)
        statements = instances.generate_transition(ruleset.schema, seed=site)
        try:
            serial = drive(ruleset, database, statements, SERIAL, 60)
        except RuleProcessingLimitExceeded:
            with pytest.raises(RuleProcessingLimitExceeded):
                drive(ruleset, database, statements, PARALLEL, 60)
            return
        batched = drive(ruleset, database, statements, PARALLEL, 60)
        assert serial == batched


def build_processor(source, tables, config=PARALLEL, load=None):
    schema = schema_from_spec(tables)
    ruleset = RuleSet.parse(source, schema)
    database = Database(schema)
    for table, rows in (load or {}).items():
        database.load(table, rows)
    return RuleProcessor(ruleset, database, config=config, max_steps=100)


INDEPENDENT_DOMAINS = """
create rule left on ta when inserted
then insert into ta_out values (1)

create rule right on tb when inserted
then insert into tb_out values (2)
"""

INDEPENDENT_TABLES = {
    "ta": ["x"],
    "tb": ["x"],
    "ta_out": ["x"],
    "tb_out": ["x"],
}

SHARED_WRITERS = """
create rule first on t when inserted
if exists (select * from t where x > 0)
then update t set x = x - 1 where x > 0

create rule second on t when inserted, updated
if exists (select * from t where x > 0)
then update t set x = x - 1 where x > 0
"""


class TestAdmission:
    def test_cross_partition_rules_are_independent(self):
        processor = build_processor(
            INDEPENDENT_DOMAINS, INDEPENDENT_TABLES
        )
        scheduler = ParallelScheduler(processor)
        assert scheduler._independent("left", "right")
        # No verdict was even consulted: partition disjointness proves it.
        assert parallel.STATS.commute_checks == 0

    def test_cross_partition_rules_batch_together(self):
        processor = build_processor(
            INDEPENDENT_DOMAINS, INDEPENDENT_TABLES
        )
        processor.execute_user("insert into ta values (1)")
        processor.execute_user("insert into tb values (1)")
        result = processor.run()
        assert result.outcome == "quiescent"
        assert parallel.STATS.batches == 1
        assert parallel.STATS.parallel_considerations == 2

    def test_shared_table_writers_serialize(self):
        processor = build_processor(SHARED_WRITERS, {"t": ["x"]})
        processor.execute_user("insert into t values (2)")
        result = processor.run()
        assert result.outcome == "quiescent"
        assert parallel.STATS.batches == 0
        assert parallel.STATS.parallel_considerations == 0
        assert parallel.STATS.commute_serializations >= 1

    def test_unknown_verdict_serializes(self):
        """Same partition + no commute proof = never concurrent, even
        when the pair would in fact commute."""
        processor = build_processor(
            """
            create rule one on t when inserted
            then insert into u values (1)

            create rule two on t when inserted
            then insert into v values (2)
            """,
            {"t": ["x"], "u": ["x"], "v": ["x"]},
        )
        scheduler = ParallelScheduler(processor)
        scheduler._analyzer.commute = lambda first, second: False
        assert not scheduler._independent("one", "two")
        assert parallel.STATS.commute_serializations == 1
        assert scheduler._admit(("one", "two"), limit=10) == ["one"]

    def test_commuting_pair_with_overlapping_writes_serializes(self):
        """A positive verdict alone is not enough: the net-effect merge
        needs disjoint write tables, so overlap serializes."""
        processor = build_processor(
            """
            create rule one on t when inserted
            then insert into u values (1)

            create rule two on t when inserted
            then insert into u values (2)
            """,
            {"t": ["x"], "u": ["x"]},
        )
        scheduler = ParallelScheduler(processor)
        scheduler._analyzer.commute = lambda first, second: True
        assert not scheduler._independent("one", "two")
        assert parallel.STATS.commute_serializations == 1

    def test_admission_caps_at_limit(self):
        processor = build_processor(
            INDEPENDENT_DOMAINS, INDEPENDENT_TABLES
        )
        scheduler = ParallelScheduler(processor)
        assert scheduler._admit(("left", "right"), limit=1) == ["left"]


class TestRollbackFallback:
    SOURCE = """
    create rule steady on tb when inserted
    then insert into tb_out values (1)

    create rule abort on ta when inserted
    then rollback 'no'
    """

    TABLES = {"ta": ["x"], "tb": ["x"], "tb_out": ["x"]}

    def run_one(self, config):
        processor = build_processor(self.SOURCE, self.TABLES, config=config)
        processor.execute_user("insert into ta values (1)")
        processor.execute_user("insert into tb values (1)")
        result = processor.run()
        return result, processor.database.canonical()

    def test_batch_with_rollback_falls_back_to_serial(self):
        serial_result, serial_final = self.run_one(SERIAL)
        parallel.STATS.reset()
        batched_result, batched_final = self.run_one(PARALLEL)
        assert parallel.STATS.rollback_fallbacks == 1
        assert batched_result.outcome == "rolled_back"
        assert batched_result.outcome == serial_result.outcome
        assert batched_final == serial_final


class TestConfigSurface:
    def test_parallel_scheduler_without_partitions(self):
        """scheduler="parallel" with flat tables is valid: batching
        still applies, pruning simply never engages."""
        workload = power_network_workload()
        record = drive(
            workload.ruleset,
            workload.database,
            workload.overload_transition(),
            ExecutionConfig(scheduler="parallel"),
            max_steps=500,
        )
        assert record["outcome"] == "quiescent"

    def test_stats_to_dict_shape(self):
        payload = parallel.STATS.to_dict()
        assert set(payload) == set(parallel.SchedulerStats.FIELDS)
        assert payload["merge_seconds"] == 0.0
