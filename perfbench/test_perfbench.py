"""Tests of the benchmark itself, at small sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cases
import layers
import run
from spans import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: counts that must repeat exactly for one seed (choosing-metrics §8)
EXACT_COUNTS = (
    "runtime.considerations",
    "runtime.firings",
    "rules.choose_pairs",
    "transitions.primitives_folded",
    "engine.wal_bytes",
    "engine.wal_frames",
    "analysis.pairs_judged",
)

SMALL = {
    "iot-wide": lambda seed, workdir: cases.IotWide(
        seed, workdir, rows=2_000, regions=8
    ),
    "drain-rows": lambda seed, workdir: cases.DrainRows(
        seed, workdir, rows=4_000
    ),
    "server-ingest": lambda seed, workdir: cases.ServerIngest(
        seed, workdir, rows=2_000
    ),
}


def _traced(name: str, seed: int, tmp_path: Path):
    workdir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    return run.run_traced(SMALL[name](seed, str(workdir)), 0.0)


@pytest.mark.parametrize("name", ["iot-wide", "drain-rows"])
def test_counts_repeat_exactly_for_one_seed(name, tmp_path):
    first, _, first_runner = _traced(name, 7, tmp_path)
    second, _, second_runner = _traced(name, 7, tmp_path)
    assert first_runner.failed == second_runner.failed == 0
    for metric in EXACT_COUNTS:
        assert first[metric] == second[metric], metric
    assert first["runtime.considerations"]["value"] > 0
    assert first["rules.choose_pairs"]["value"] > 0


def test_drain_rows_writes_the_wal_inside_the_transaction(tmp_path):
    metrics, _, _ = _traced("drain-rows", 3, tmp_path)
    assert metrics["engine.wal_bytes"]["value"] > 0
    assert metrics["engine.wal_checkpoint_s"]["value"] > 0
    assert metrics["semantics.oracle_s"]["value"] == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer_and_covers_the_transaction(
    name, tmp_path
):
    metrics, detail, runner = _traced(name, 5, tmp_path)
    assert runner.failed == 0, runner.errors
    assert set(metrics) == {entry["name"] for entry in BENCHMARK["per_layer"]}
    for entry in BENCHMARK["per_layer"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    assert 0.95 <= metrics["trace.coverage"]["value"] <= 1.0
    assert detail["coverage"]["roots"] >= 1
    # folding happens inside the triggering check (and, on the server,
    # in commit); it is charged to the fold layer, not to triggering
    assert metrics["transitions.fold_s"]["value"] > 0


def test_server_ingest_end_to_end_metrics(tmp_path):
    workload = SMALL["server-ingest"](2, str(tmp_path))
    metrics, detail, runner = run.run_end_to_end(workload, 0.0)
    assert runner.failed == 0, runner.errors
    assert runner.checks["serial_replay"]
    assert runner.checks["recovered_equals_live"]
    assert list(metrics) == [entry["name"] for entry in BENCHMARK["end_to_end"]]
    for entry in BENCHMARK["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert metrics[entry["name"]]["value"] > 0
    assert detail["samples"]["transactions"] == 20 * run.MIN_ITERATIONS


def test_iot_wide_checks_the_declarative_oracle(tmp_path):
    workload = SMALL["iot-wide"](4, str(tmp_path))
    _, _, runner = run.run_end_to_end(workload, 0.0)
    assert runner.failed == 0, runner.errors
    assert runner.checks["declarative_final"]
    assert runner.checks["recovered_equals_live"]


def test_a_wrong_state_counts_as_a_failed_check(tmp_path, monkeypatch):
    workload = SMALL["drain-rows"](1, str(tmp_path))
    original = cases.DrainRows.round

    def corrupted(self, tracer, probe):
        round_ = original(self, tracer, probe)
        round_.database.insert_row("inventory", (-1, 0, 0))
        return round_

    monkeypatch.setattr(cases.DrainRows, "round", corrupted)
    _, _, runner = run.run_end_to_end(workload, 0.0)
    assert runner.failed == run.MIN_ITERATIONS
    assert runner.checks["recovered_equals_live"] is False


class _Thing:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    @classmethod
    def build(cls):
        return cls()


def test_self_times_partition_the_root_and_opaque_spans_hide_children():
    tracer = Tracer()
    tracer.phase = "txn"
    original_outer = _Thing.outer
    tracer.wrap(_Thing, "outer", "outer")
    tracer.wrap(_Thing, "inner", "inner")
    tracer.wrap(_Thing, "build", "build")
    with tracer.span("root", root=True):
        assert _Thing.build().outer() == 2
    with tracer.span("hidden", opaque=True):
        _Thing().outer()
    tracer.uninstall()
    assert _Thing.outer is original_outer
    assert isinstance(vars(_Thing)["build"], classmethod)

    totals = tracer.totals("txn")
    assert totals.layer("inner").calls == 1
    assert totals.layer("outer").calls == 1
    covered = sum(
        totals.layer(name).self_seconds for name in ("outer", "inner", "build")
    )
    assert covered == pytest.approx(
        totals.root_seconds - totals.root_self_seconds
    )
    assert [span.parent for span in tracer.spans if span.name == "inner"] == [
        "outer"
    ]


def test_coverage_counts_only_spans_with_their_own_metric():
    tracer = Tracer()
    tracer.phase = "txn"
    tracer.wrap(_Thing, "outer", "runtime.server.session")  # a total
    tracer.wrap(_Thing, "inner", "rules.choose")
    with tracer.span("root", root=True):
        _Thing().outer()
    tracer.uninstall()
    txn = tracer.totals("txn")
    inputs = layers.LayerInputs(
        phases={"txn": txn}, ops={"txn": 1}, round_stats={},
        analysis_stats={}, overhead_seconds=0.0,
    )
    assert layers.coverage(inputs) == pytest.approx(
        txn.layer("rules.choose").self_seconds / txn.root_seconds
    )
    assert layers.coverage(inputs) < 1.0


def test_per_layer_table_matches_benchmark_json():
    assert [entry["name"] for entry in BENCHMARK["per_layer"]] == [
        metric.name for metric in layers.METRICS
    ]
    assert [entry["name"] for entry in BENCHMARK["end_to_end"]] == list(
        run.UNITS
    )


def test_exits_nonzero_without_the_repository_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iot-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
