"""Rule processing and static analysis run on the calling thread.

The batch scheduler, partition-pruned scans and pair judging are
pure-Python loops: under the GIL a thread pool only interleaves them, so none of
them may start a thread. (Threads remain where they overlap I/O: the
server sessions, group commit and the workload drivers.)
"""

from __future__ import annotations

import threading

from repro.analysis.analyzer import RuleAnalyzer
from repro.config import ExecutionConfig
from repro.runtime import parallel
from repro.runtime.processor import RuleProcessor
from repro.workloads.iot import iot_workload
from repro.workloads.partitioned import partitioned_workload


def _shard_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-shard")
    ]


def test_batch_run_and_analysis_start_no_thread(monkeypatch):
    started: list[str] = []
    original_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    before = threading.active_count()
    batches_before = parallel.STATS.batches

    workload = partitioned_workload(rows=2_000)
    processor = RuleProcessor(
        workload.ruleset,
        workload.database.copy(),
        config=ExecutionConfig(scheduler="parallel", partitions=4),
        max_steps=2_000,
    )
    for statement in workload.drain_transition():
        processor.execute_user(statement)
    assert processor.run().outcome == "quiescent"
    assert parallel.STATS.batches > batches_before

    ruleset = iot_workload(rows=200, regions=16).ruleset
    assert len(list(ruleset)) >= 48
    report = RuleAnalyzer(ruleset).analyze()
    assert report.confluence.pairs_examined > 0

    assert started == []
    assert threading.active_count() == before
    assert _shard_threads() == []
