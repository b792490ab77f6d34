"""The benchmark's three workloads.

Each one is built by an existing generator in :mod:`repro.workloads`
from the benchmark's seed and driven only through the public API. A
workload exposes the same steps to ``run.py``:

* :meth:`Workload.setup` — build the instance, load rows, parse rules
  and statements (the timed set-up);
* :meth:`Workload.round` — one measured round: a single transaction on
  ``iot-wide`` and ``drain-rows``, one drive of the whole seeded stream
  through the server on ``server-ingest``;
* :meth:`Workload.durable_log` — the WAL the round wrote, for recovery;
* :meth:`Workload.checks` — the workload's output check against an
  oracle that does not share the code under test.

Why these three (see ``BENCHMARK.json`` for the one-line version):
``iot-wide`` is the rule-count axis, where ``Choose`` and triggering
dominate; ``drain-rows`` is the row axis and the durable write path,
where ``Choose`` and analysis do almost nothing, so a change to those
layers should leave it unchanged; ``server-ingest`` is the only
workload of many small concurrent transactions, exercising snapshot
forks, validation, publication, group commit and retries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis.analyzer import RuleAnalyzer
from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.wal import WalWriter
from repro.lang import parser
from repro.runtime import server as server_module
from repro.runtime.processor import RuleProcessor
from repro.semantics import declarative
from repro.workloads import (
    drive_streaming,
    iot_workload,
    partitioned_workload,
    streaming_workload,
)

from reference import Probe, Timing

#: step budget for one cascade (the workloads need a few thousand)
MAX_STEPS = 100_000


@dataclass
class Round:
    """What one measured round did."""

    #: the round's timed stretches (one transaction, or the slices of
    #: one drive), each between two reference loops
    timings: list[Timing]
    #: one latency per transaction that returned, session open through
    #: commit return (retries included on the server)
    latencies: list[float]
    #: wall seconds to reference seconds for each latency (the scale of
    #: the stretch it ran in)
    scales: list[float]
    attempted: int
    committed: int
    #: the live state after the round
    database: Database | None
    #: counts and times read from the public stats objects
    stats: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: the WAL the round wrote (None when the session is in-memory)
    wal_path: str | None = None
    #: the session's delta log (single-session workloads)
    log: object = None
    #: the server's committed history (server-ingest)
    history: list | None = None

    @property
    def failed(self) -> int:
        return self.attempted - self.committed

    @property
    def elapsed(self) -> float:
        """Wall time of the whole round."""
        return sum(timing.seconds for timing in self.timings)

    @property
    def normalised(self) -> float:
        """The round's time in reference seconds."""
        return sum(timing.normalised for timing in self.timings)


def _wal_stats(writer) -> dict:
    stats = writer.stats
    return {
        "wal_bytes": stats.bytes_written,
        "wal_frames": stats.frames_emitted,
        "wal_syncs": stats.syncs,
    }


def _processor_stats(processor: RuleProcessor, result) -> dict:
    stats = processor.stats
    return {
        "considerations": stats.considerations,
        "firings": sum(step.condition_was_true for step in result.steps),
        "primitives_folded": stats.primitives_folded,
        "touch_skips": stats.touch_skips,
    }


class Workload:
    """One seeded workload; subclasses fill in the steps."""

    name = ""
    #: measured rounds between two set-ups
    rounds_per_iteration = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._rounds = 0

    def _wal_path(self) -> str:
        self._rounds += 1
        return os.path.join(self.workdir, f"{self.name}-{self._rounds}.wal")

    @property
    def ruleset(self):
        return self.workload.ruleset

    @property
    def schema(self):
        return self.workload.schema

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tracer, probe: Probe) -> Round:
        """One measured round, its stretches timed by *probe*."""
        raise NotImplementedError

    def durable_log(self, round_: Round, tracer) -> str:
        return round_.wal_path

    def checks(self, round_: Round, tracer) -> dict[str, bool]:
        """Oracle checks beyond recovery (``run.py`` checks recovery
        for every workload)."""
        return {}

    def analyze(self):
        """One static analysis of the rule set on a fresh analyzer."""
        analyzer = RuleAnalyzer(self.ruleset)
        report = analyzer.analyze()
        stats = analyzer.engine.stats
        return report, {
            "pairs_judged": stats.pairs_judged,
            "lemma_judgments": stats.lemma_judgments,
        }


class _SingleSession(Workload):
    """A workload whose round is one transaction on one processor."""

    def _config(self, wal_path: str | None) -> ExecutionConfig:
        raise NotImplementedError

    def round(self, tracer, probe: Probe) -> Round:
        database = self.workload.database.copy()
        wal_path = self._wal_path() if self.durable else None
        errors: list[str] = []
        session: dict = {}

        def transaction() -> bool:
            with tracer.span("bench.txn", root=True):
                try:
                    processor = session["processor"] = RuleProcessor(
                        self.ruleset,
                        database,
                        config=self._config(wal_path),
                        max_steps=MAX_STEPS,
                    )
                    for statement in self.statements:
                        processor.execute_user(statement)
                    result = session["result"] = processor.run()
                    if result.outcome == "quiescent":
                        processor.commit()
                        return True
                    errors.append(f"cascade ended {result.outcome}")
                except Exception as error:  # a failed operation, counted
                    errors.append(f"{type(error).__name__}: {error}")
            return False

        committed, timing = probe.timed(transaction)
        processor = session.get("processor")
        stats = {}
        if "result" in session:
            stats.update(_processor_stats(processor, session["result"]))
        if processor is not None and processor.wal is not None:
            stats.update(_wal_stats(processor.wal))
            processor.close()
        return Round(
            log=processor.log if processor is not None else None,
            timings=[timing],
            latencies=[timing.seconds] if committed else [],
            scales=[timing.scale] if committed else [],
            attempted=1,
            committed=int(committed),
            database=database,
            stats=stats,
            errors=errors,
            wal_path=wal_path,
        )


class IotWide(_SingleSession):
    """``iot_workload`` at 24 regions and 20,000 rows: 72 rules, one
    4,096-row batch, default (planned, serial, in-memory) execution.

    The batch is large enough that every region raises an alert for
    every seed, so the cascade has the same shape whatever the seed;
    with the generator's 1,024-row default the number of alerting
    regions, and so the cascade length, varies by seed. The cost of a
    cascade grows with about the fourth power of the region count (at
    64 regions one takes 14-27 s), and a run needs several cascades to
    take a median over; ``run.py --scaling`` records the curve."""

    name = "iot-wide"
    durable = False
    #: a cascade costs about as much as the set-up and the check
    #: together, so each iteration samples it twice
    rounds_per_iteration = 2

    def __init__(
        self, seed: int, workdir: str, *, rows: int = 20_000,
        regions: int = 24, batch_rows: int = 4096,
    ) -> None:
        super().__init__(seed, workdir)
        self.rows = rows
        self.regions = regions
        self.batch_rows = batch_rows

    def sizes(self) -> dict:
        return {"rows": self.rows, "regions": self.regions,
                "rules": 3 * self.regions, "batch_rows": self.batch_rows}

    def setup(self) -> None:
        self.workload = iot_workload(
            rows=self.rows, regions=self.regions,
            batch_rows=self.batch_rows, seed=self.seed,
        )
        self.statements = tuple(
            parser.parse_statement(source)
            for source in self.workload.ingest_transition()
        )

    def _config(self, wal_path):
        return ExecutionConfig()

    def durable_log(self, round_: Round, tracer) -> str:
        """Ship the committed transaction's delta log into a WAL: the
        pre-transaction state as a checkpoint, then every primitive the
        cascade logged, then the commit marker. Recovering it must give
        the live state, which checks that the delta log is a complete
        redo record of the transaction."""
        path = self._wal_path()
        writer = WalWriter(path, schema=self.schema)
        try:
            writer.checkpoint(self.workload.database)
            writer.begin(1)
            for primitive in round_.log.all():
                writer.primitive(1, primitive)
            writer.commit(1)
        finally:
            writer.close()
        return path

    def checks(self, round_: Round, tracer) -> dict[str, bool]:
        with tracer.span("semantics.oracle", opaque=True):
            outcome = declarative.declarative_outcome(
                self.ruleset,
                self.workload.database,
                self.statements,
                max_firings=MAX_STEPS,
            )
        return {
            "declarative_quiescent": outcome.quiescent,
            "declarative_final": outcome.final == round_.database.canonical(),
        }


class DrainRows(_SingleSession):
    """``partitioned_workload`` at 100,000 rows: 16 rules, the whole
    drain as one durable transaction over 4 partitions."""

    name = "drain-rows"
    durable = True

    def __init__(
        self, seed: int, workdir: str, *, rows: int = 100_000,
    ) -> None:
        super().__init__(seed, workdir)
        self.rows = rows

    def sizes(self) -> dict:
        return {"rows": self.rows, "regions": 4, "partitions": 4, "rules": 16}

    def setup(self) -> None:
        self.workload = partitioned_workload(
            rows=self.rows, regions=4, seed=self.seed
        )
        self.statements = tuple(
            parser.parse_statement(source)
            for source in self.workload.drain_transition()
        )

    def _config(self, wal_path):
        return ExecutionConfig(partitions=4, durable=True, wal=wal_path)


class ServerIngest(Workload):
    """``streaming_workload`` through ``RuleServer``: 64 rules, 200
    batches of 100 rows from 2 closed-loop clients, serializable column
    validation, group commit, a durable WAL on the real file system."""

    name = "server-ingest"
    workers = 2
    #: the drive of the stream is timed in this many consecutive slices
    SLICES = 4

    def __init__(
        self, seed: int, workdir: str, *, rows: int = 20_000,
    ) -> None:
        super().__init__(seed, workdir)
        self.rows = rows

    def sizes(self) -> dict:
        return {"rows": self.rows, "batch_rows": 100, "streams": 8,
                "regions": 4, "rules": 64, "clients": self.workers}

    def _open(self, wal_path: str):
        return server_module.RuleServer(
            self.ruleset,
            self.workload.database.copy(),
            config=ExecutionConfig(wal=wal_path),
            record_history=True,
        )

    def setup(self) -> None:
        """Build the stream (parsing every batch statement) and open the
        store once, so work moved into server start-up shows here."""
        self.workload = streaming_workload(
            rows=self.rows, batch_rows=100, seed=self.seed
        )
        path = self._wal_path()
        self._open(path).close()
        os.remove(path)

    def round(self, tracer, probe: Probe) -> Round:
        """Drive the stream in ``SLICES`` consecutive slices, each
        between two reference loops: a 2-second drive is too long for
        the loops at its ends to tell the machine's speed during it."""
        wal_path = self._wal_path()
        server = self._open(wal_path)
        batches = self.workload.batches
        size = -(-len(batches) // self.SLICES)
        errors: list[str] = []
        timings: list = []
        latencies: list[float] = []
        scales: list[float] = []
        try:
            for start in range(0, len(batches), size):
                report, timing = probe.timed(
                    lambda: drive_streaming(
                        server, batches[start:start + size],
                        workers=self.workers,
                    )
                )
                timings.append(timing)
                latencies.extend(report.latencies)
                scales.extend([timing.scale] * len(report.latencies))
        except Exception as error:  # a failed operation, counted
            errors.append(f"{type(error).__name__}: {error}")
        finally:
            server.close()
        group = server.wal.stats
        stats = {
            "validate_s": server.stats.validate_seconds,
            "publish_s": server.stats.publish_seconds,
            "conflicts": server.stats.conflicts,
            "retries": server.stats.retries,
            "group_batches": group.batches,
            "group_commits": group.commits,
        }
        stats.update(_wal_stats(server.wal.writer))
        return Round(
            timings=timings,
            latencies=latencies,
            scales=scales,
            attempted=len(batches),
            committed=server.commit_count,
            database=server.database,
            stats=stats,
            errors=errors,
            wal_path=wal_path,
            history=server.history,
        )

    def checks(self, round_: Round, tracer) -> dict[str, bool]:
        with tracer.span("runtime.server.replay", opaque=True):
            replayed = server_module.serial_replay(
                self.ruleset, self.workload.database.copy(), round_.history
            )
        return {
            "serial_replay": replayed.canonical() == round_.database.canonical()
        }


WORKLOADS = {
    workload.name: workload for workload in (IotWide, DrainRows, ServerIngest)
}
