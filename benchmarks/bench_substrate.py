"""Substrate microbenchmarks and the incremental-substrate regression gate.

Not a paper experiment — these keep the performance of the layers the
experiments stand on visible (a regression here silently inflates every
E-number's wall time). Reported: DML and query throughput, rule
processing steps, and execution-graph exploration rate.

Gate mode (``python benchmarks/bench_substrate.py --gate``, also run as
pytest tests) pits the incremental substrate (cached per-rule net
effects, per-table touch index, COW snapshots, chunk-shared logs)
against the from-scratch path (``ExecutionConfig(incremental=False)``)
on fixed seeded workloads and asserts:

* **equivalence** — byte-identical ``ProcessingResult``s, observable
  streams, final canonical databases, ``state_key()``s, and explored
  graphs (edges, final states, streams) between the two modes;
* **triggering work** — the from-scratch path rescans at least
  ``--min-trigger-ratio`` (default 5) times as many primitives as the
  incremental path folds, on a 50-rule / 1k-op workload;
* **exploration wall-clock** — ``explore()`` on the scalability
  scenario is at least ``--min-explore-speedup`` (default 3) times
  faster incrementally.

The metrics are written to ``BENCH_substrate.json`` (``--out``) for CI
artifact upload.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.lang.parser import parse_rules, parse_statement
from repro.rules.ruleset import RuleSet
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import RandomStrategy
from repro.schema.catalog import schema_from_spec

GATE_SCHEMA_VERSION = 1


@pytest.fixture
def schema():
    return schema_from_spec(
        {"orders": ["id", "item", "qty"], "stock": ["item", "on_hand"]}
    )


def test_substrate_insert_throughput(benchmark, schema):
    statement = parse_statement("insert into orders values (1, 2, 3)")

    def run():
        database = Database(schema)
        for __ in range(500):
            execute_statement(database, statement)
        return len(database.table("orders"))

    assert benchmark(run) == 500


def test_substrate_update_scan(benchmark, schema):
    database = Database(schema)
    database.load("stock", [(item, item % 10) for item in range(300)])
    # Filter on the immutable key so repeated benchmark iterations keep
    # matching the same row set.
    statement = parse_statement(
        "update stock set on_hand = on_hand + 1 where item < 150"
    )

    def run():
        return execute_statement(database, statement).affected

    assert benchmark(run) == 150


def test_substrate_join_query(benchmark, schema):
    database = Database(schema)
    database.load("orders", [(i, i % 20, 1) for i in range(100)])
    database.load("stock", [(item, 5) for item in range(20)])
    statement = parse_statement(
        "select o.id, s.on_hand from orders o, stock s "
        "where o.item = s.item and s.on_hand > 0"
    )

    def run():
        return execute_statement(database, statement).query_result

    assert len(benchmark(run).rows) == 100


def test_substrate_group_by_query(benchmark, schema):
    database = Database(schema)
    database.load("orders", [(i, i % 10, i % 3) for i in range(200)])
    statement = parse_statement(
        "select item, count(*), sum(qty) from orders group by item"
    )

    def run():
        return execute_statement(database, statement).query_result

    assert len(benchmark(run).rows) == 10


def test_substrate_rule_processing(benchmark, schema):
    source = """
    create rule reserve on orders when inserted
    then update stock set on_hand = on_hand - 1
         where item in (select item from inserted)
    precedes refill

    create rule refill on stock when updated(on_hand)
    if exists (select * from new_updated where on_hand < 1)
    then update stock set on_hand = on_hand + 10 where on_hand < 1
    """
    ruleset = RuleSet.parse(source, schema)

    def run():
        database = Database(schema)
        database.load("stock", [(item, 1) for item in range(5)])
        processor = RuleProcessor(ruleset, database)
        for order in range(10):
            processor.execute_user(
                f"insert into orders values ({order}, {order % 5}, 1)"
            )
        return len(processor.run().steps)

    assert benchmark(run) > 0


def test_substrate_exploration_rate(benchmark, schema):
    source = """
    create rule a on orders when inserted then update stock set on_hand = 1
    create rule b on orders when inserted then update stock set on_hand = 2
    create rule c on orders when inserted then update stock set on_hand = 3
    """
    ruleset = RuleSet.parse(source, schema)

    def run():
        database = Database(schema)
        database.load("stock", [(0, 0)])
        processor = RuleProcessor(ruleset, database)
        processor.execute_user("insert into orders values (1, 0, 1)")
        return explore(processor).state_count

    assert benchmark(run) > 5


# ======================================================================
# Gate mode: incremental vs. from-scratch substrate
# ======================================================================


def _triggering_workload(n_rules: int = 50):
    """A 50-rule workload whose processing loop exposes triggering cost.

    ``feed`` takes the bulk user transition; most rules are *spectators*
    on feed-family tables (``when deleted`` — never actually triggered,
    but the from-scratch path refolds the full log suffix for each of
    them on every loop iteration to find that out). A small countdown
    cascade on ``work`` keeps the processing loop iterating.
    """
    spec = {
        "feed": ["id", "v"],
        "work": ["id", "n"],
        "sink": ["id", "n"],
    }
    for t in range(10):
        spec[f"t{t}"] = ["id", "v"]
    schema = schema_from_spec(spec)

    rules = [
        # The cascade: counts work.n down to zero, one step per
        # consideration, logging each step into sink.
        "create rule step on work when updated(n), inserted "
        "if exists (select * from work where n > 0) "
        "then update work set n = n - 1 where n > 0;\n"
        "     insert into sink (select id, n from new_updated)",
    ]
    for index in range(n_rules - 1):
        table = ("feed", f"t{index % 10}")[index % 2]
        rules.append(
            f"create rule spectator_{index} on {table} when deleted "
            f"then insert into sink (select id, 0 from deleted)"
        )
    ruleset = RuleSet.parse("\n\n".join(rules), schema)
    return schema, ruleset


def run_triggering_gate(n_rules: int = 50, n_ops: int = 1000) -> dict:
    """Run the triggering workload in both modes; assert equivalence and
    return the work counters."""
    schema, ruleset = _triggering_workload(n_rules)

    outcomes = {}
    for incremental in (False, True):
        database = Database(schema)
        database.load("work", [(1, 30)])
        processor = RuleProcessor(
            ruleset,
            database,
            max_steps=50_000,
            config=ExecutionConfig(incremental=incremental),
        )
        for op in range(n_ops - 1):
            processor.execute_user(f"insert into feed values ({op}, {op % 7})")
        processor.execute_user("insert into work values (2, 30)")
        started = time.perf_counter()
        result = processor.run()
        elapsed = time.perf_counter() - started
        outcomes[incremental] = {
            "result": result,
            "result_repr": repr((result.outcome, result.steps, result.observables)),
            "final_database": processor.database.canonical(),
            "state_key": processor.state_key(),
            "stats": processor.stats,
            "seconds": elapsed,
        }

    scratch, incremental = outcomes[False], outcomes[True]
    assert scratch["result_repr"] == incremental["result_repr"], (
        "ProcessingResults diverge between substrate modes"
    )
    assert scratch["final_database"] == incremental["final_database"]
    assert scratch["state_key"] == incremental["state_key"]

    scanned = scratch["stats"].primitives_scanned
    folded = incremental["stats"].primitives_folded
    ratio = scanned / max(1, folded)
    return {
        "n_rules": n_rules,
        "n_ops": n_ops,
        "steps": len(scratch["result"].steps),
        "primitives_rescanned_cold": scanned,
        "primitives_folded_incremental": folded,
        "triggering_work_ratio": round(ratio, 2),
        "touch_skips": incremental["stats"].touch_skips,
        "verdict_hits": incremental["stats"].verdict_hits,
        "cold_seconds": round(scratch["seconds"], 4),
        "incremental_seconds": round(incremental["seconds"], 4),
        "processor_steps_per_second": round(
            len(scratch["result"].steps) / max(1e-9, incremental["seconds"]), 1
        ),
        "equivalent": True,
    }


def _exploration_scenario():
    """The E10-style scalability scenario for ``explore()``.

    Branching comes from four independent unordered rules; fork cost in
    the from-scratch substrate comes from a 2000-row ballast table no
    rule touches and a long user-transition prefix in the log, both
    recopied per fork without COW/chunk sharing.
    """
    schema = schema_from_spec(
        {
            "orders": ["id", "item", "qty"],
            "stock": ["item", "on_hand"],
            "ballast": ["id", "v"],
        }
    )
    source = """
    create rule a on orders when inserted then update stock set on_hand = 1 where item = 0
    create rule b on orders when inserted then update stock set on_hand = 2 where item = 1
    create rule c on orders when inserted then update stock set on_hand = 3 where item = 2
    create rule d on orders when inserted then update stock set on_hand = 4 where item = 3
    """
    ruleset = RuleSet.parse(source, schema)

    def build(incremental: bool) -> RuleProcessor:
        database = Database(schema)
        database.load("stock", [(item, 0) for item in range(8)])
        database.load("ballast", [(i, i % 13) for i in range(2000)])
        processor = RuleProcessor(
            ruleset, database, config=ExecutionConfig(incremental=incremental)
        )
        for op in range(200):
            processor.execute_user(
                f"insert into ballast values ({10_000 + op}, {op % 13})"
            )
        processor.run()  # quiesce the prefix: ballast writes trigger nothing
        processor.execute_user("insert into orders values (1, 0, 1)")
        return processor

    return build


def run_explore_gate() -> dict:
    """Explore the scalability scenario in both modes; assert identical
    graphs and return wall-clock numbers."""
    build = _exploration_scenario()

    graphs = {}
    for incremental in (False, True):
        processor = build(incremental)
        started = time.perf_counter()
        graph = explore(processor)
        elapsed = time.perf_counter() - started
        graphs[incremental] = (graph, elapsed, processor.stats)

    scratch, cold_seconds, __ = graphs[False]
    incremental, warm_seconds, stats = graphs[True]

    assert scratch.initial == incremental.initial
    assert scratch.edges == incremental.edges, (
        "explored edge sets diverge between substrate modes"
    )
    assert scratch.final_states == incremental.final_states
    assert scratch.final_databases == incremental.final_databases
    assert scratch.observable_streams == incremental.observable_streams
    assert scratch.paths_to_final() == incremental.paths_to_final()
    assert not scratch.truncated and not incremental.truncated

    speedup = cold_seconds / max(1e-9, warm_seconds)
    return {
        "states": incremental.state_count,
        "paths_to_final": incremental.paths_to_final(),
        "forks": stats.forks,
        "cold_seconds": round(cold_seconds, 4),
        "incremental_seconds": round(warm_seconds, 4),
        "explore_speedup": round(speedup, 2),
        "forks_per_second": round(stats.forks / max(1e-9, warm_seconds), 1),
        "states_per_second": round(
            incremental.state_count / max(1e-9, warm_seconds), 1
        ),
        "equivalent": True,
    }


def run_sampled_equivalence_gate(runs: int = 8) -> dict:
    """Random-order runs of the triggering workload agree mode-for-mode."""
    schema, ruleset = _triggering_workload(n_rules=12)
    checked = 0
    for seed in range(runs):
        records = []
        for incremental in (False, True):
            database = Database(schema)
            database.load("work", [(1, 6)])
            processor = RuleProcessor(
                ruleset,
                database,
                strategy=RandomStrategy(seed),
                config=ExecutionConfig(incremental=incremental),
            )
            for op in range(40):
                processor.execute_user(
                    f"insert into feed values ({op}, {op % 5})"
                )
            processor.execute_user("delete from feed where v = 3")
            result = processor.run()
            records.append(
                (
                    repr((result.outcome, result.steps, result.observables)),
                    processor.database.canonical(),
                    processor.state_key(),
                )
            )
        assert records[0] == records[1], f"divergence at seed {seed}"
        checked += 1
    return {"sampled_runs": checked, "equivalent": True}


def run_gate(
    min_trigger_ratio: float = 5.0,
    min_explore_speedup: float = 3.0,
    out_path: str | None = None,
) -> dict:
    """The full substrate gate; raises AssertionError on any regression."""
    triggering = run_triggering_gate()
    exploration = run_explore_gate()
    sampled = run_sampled_equivalence_gate()

    payload = {
        "schema_version": GATE_SCHEMA_VERSION,
        "gate": {
            "min_trigger_ratio": min_trigger_ratio,
            "min_explore_speedup": min_explore_speedup,
        },
        "triggering": triggering,
        "exploration": exploration,
        "sampled_equivalence": sampled,
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert triggering["triggering_work_ratio"] >= min_trigger_ratio, (
        f"triggering work ratio {triggering['triggering_work_ratio']} "
        f"below gate minimum {min_trigger_ratio}"
    )
    assert exploration["explore_speedup"] >= min_explore_speedup, (
        f"explore() speedup {exploration['explore_speedup']} "
        f"below gate minimum {min_explore_speedup}"
    )
    return payload


def test_gate_triggering_equivalence_and_work_ratio():
    metrics = run_triggering_gate()
    assert metrics["equivalent"]
    assert metrics["triggering_work_ratio"] >= 5.0


def test_gate_exploration_equivalence():
    metrics = run_explore_gate()
    assert metrics["equivalent"]


def test_gate_sampled_equivalence():
    assert run_sampled_equivalence_gate()["equivalent"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Incremental-substrate regression gate"
    )
    parser.add_argument("--gate", action="store_true", help="run the gate")
    parser.add_argument(
        "--out",
        default="BENCH_substrate.json",
        help="where to write the metrics JSON (default: BENCH_substrate.json)",
    )
    parser.add_argument("--min-trigger-ratio", type=float, default=5.0)
    parser.add_argument("--min-explore-speedup", type=float, default=3.0)
    args = parser.parse_args(argv)

    payload = run_gate(
        min_trigger_ratio=args.min_trigger_ratio,
        min_explore_speedup=args.min_explore_speedup,
        out_path=args.out,
    )
    print(json.dumps(payload, indent=2))
    print(f"\ngate passed; metrics written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
