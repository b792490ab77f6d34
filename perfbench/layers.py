"""Which public calls the traced run wraps, and the per-layer metrics
derived from them.

The wrapped call sites are the ones the runtime itself uses: methods are
wrapped on their class, and module-level functions in the module that
calls them (``repro.runtime.processor.execute_statement`` is the
processor's own reference). So the trace follows whatever
``RuleProcessor.run()`` and the server actually call.

Each per-layer metric belongs to one benchmark phase and is reported per
operation of that phase: per set-up, per analysis, per transaction round
(one transaction on ``iot-wide``/``drain-rows``, one drive of the whole
stream on ``server-ingest``) and per verification. Times are self times
(children excluded), so the layers of one transaction add up to it.
A layer a workload does not use reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from spans import PhaseTotals, Tracer


def _choose_counts(args, result, token):
    return {"pairs": len(args[1]) ** 2}


def _trigger_counts(args, result, token):
    return {"triggered": len(result) if result is not None else 0}


def _consider_counts(args, result, token):
    return {"fired": int(result is not None and result.condition_was_true)}


def _stats_before(args):
    return args[0].stats.snapshot()


def _run_counts(args, result, before):
    """``ProcessorStats`` deltas across one ``RuleProcessor.run()``."""
    delta = args[0].stats.delta_since(before)
    return {
        "touch_skips": delta["touch_skips"],
        "primitives_folded": delta["primitives_folded"],
    }


def _action_or_user(parent: str | None) -> str:
    return "engine.action" if parent == "runtime.consider" else "engine.user_exec"


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro.analysis.analyzer import RuleAnalyzer
    from repro.analysis.engine import AnalysisEngine
    from repro.engine.database import Database
    from repro.engine.wal import GroupCommitWal, WalWriter
    from repro.lang import parser
    from repro.rules.ruleset import RuleSet
    from repro.runtime import processor as processor_module
    from repro.runtime import server as server_module
    from repro.transitions.net_effect import NetEffect
    from repro.workloads import streaming as streaming_module

    # lang / engine load (set-up)
    for module in (parser, processor_module, server_module, streaming_module):
        tracer.wrap(module, "parse_statement", "lang.parse")
    tracer.wrap(RuleSet, "parse", "lang.parse")
    tracer.wrap(Database, "load", "engine.load")

    # static analysis
    tracer.wrap(RuleAnalyzer, "analyze", "analysis.analyze")
    tracer.wrap(RuleAnalyzer, "analyze_termination", "analysis.termination")
    tracer.wrap(RuleAnalyzer, "analyze_confluence", "analysis.confluence")
    tracer.wrap(
        RuleAnalyzer, "analyze_observable_determinism", "analysis.observable"
    )
    tracer.wrap(AnalysisEngine, "pair_pruning_counts", "analysis.pair_pruning")

    # the rule cascade: what RuleProcessor.run() and its callers call
    processor_class = processor_module.RuleProcessor
    tracer.wrap(
        processor_class, "run", "runtime.run",
        before=_stats_before, count=_run_counts,
    )
    tracer.wrap(processor_class, "__init__", "runtime.open")
    tracer.wrap(processor_class, "execute_user", "engine.user_exec")
    tracer.wrap(
        processor_class, "triggered_rules", "runtime.trigger",
        count=_trigger_counts,
    )
    tracer.wrap(RuleSet, "choose", "rules.choose", count=_choose_counts)
    tracer.wrap(
        processor_class, "consider", "runtime.consider",
        count=_consider_counts,
    )
    tracer.wrap(processor_module, "execute_statement", _action_or_user)
    # folding primitives into net effects: the incremental fold runs
    # inside the triggering check, the from-scratch one in commit
    tracer.wrap(NetEffect, "fold", "transitions.fold")
    tracer.wrap(NetEffect, "from_primitives", "transitions.fold")
    tracer.wrap(processor_class, "pending_net_effect", "transitions.fold")
    tracer.wrap(
        processor_module, "transition_table_overlays", "transitions.fold"
    )

    # write-ahead log
    tracer.wrap(WalWriter, "checkpoint", "engine.wal_checkpoint")
    for name in ("begin", "primitive", "abort"):
        tracer.wrap(WalWriter, name, "engine.wal_append")
    for name in ("commit", "commit_marker", "sync_now"):
        tracer.wrap(WalWriter, name, "engine.wal_commit")

    # the concurrent server
    server_class = server_module.RuleServer
    session_class = server_module.Session
    tracer.wrap(
        server_class, "run_transaction", "runtime.server.transaction",
        root=True,
    )
    tracer.wrap(server_class, "session", "runtime.server.open")
    tracer.wrap(session_class, "execute", "runtime.server.session")
    tracer.wrap(session_class, "run", "runtime.server.session")
    tracer.wrap(session_class, "commit", "runtime.server.commit")
    tracer.wrap(GroupCommitWal, "wait", "runtime.server.commit_wait")

    # verification (the benchmark's own oracle calls are spans it opens)
    tracer.wrap(Database, "canonical", "engine.canonical")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: which end-to-end metric it should move, and where
    moves: str
    value: Callable[["LayerInputs"], float]
    #: the transaction-phase span whose self time this metric reports;
    #: ``trace.coverage`` sums exactly these metrics
    span: str | None = None


@dataclass
class LayerInputs:
    """Everything a per-layer metric is computed from, already divided
    by the operation count of its phase."""

    phases: dict[str, PhaseTotals]
    ops: dict[str, int]
    #: counts from the public stats objects, per transaction round
    #: (absent when the workload does not use that layer)
    round_stats: dict[str, float]
    #: EngineStats of one analysis
    analysis_stats: dict[str, float]
    overhead_seconds: float

    def self_s(self, phase: str, layer: str) -> float:
        return self.phases[phase].layer(layer).self_seconds / self.ops[phase]

    def total_s(self, phase: str, layer: str) -> float:
        return self.phases[phase].layer(layer).seconds / self.ops[phase]

    def calls(self, phase: str, layer: str) -> float:
        return self.phases[phase].layer(layer).calls / self.ops[phase]

    def count(self, phase: str, layer: str, key: str) -> float:
        counts = self.phases[phase].layer(layer).counts
        return counts.get(key, 0) / self.ops[phase]

    def stat(self, key: str) -> float:
        return self.round_stats.get(key, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


_TXN = "txn"


def _txn_self(name: str, span: str, moves: str) -> Metric:
    """A transaction-phase self time, counted by ``trace.coverage``."""
    return Metric(name, "s", "lower", moves,
                  lambda m: m.self_s(_TXN, span), span=span)


def coverage(inputs: "LayerInputs") -> float:
    """Share of transaction time (server-ingest: of summed commit
    latency) that the reported self-time metrics account for, counting
    only self time spent under a root (the server's WAL committer
    thread works outside any transaction; its time reaches the
    transactions as ``commit_wait``). A span without its own metric (a
    root's own code, a session's glue, a retry's back-off) is not
    covered."""
    txn = inputs.phases[_TXN]
    if txn.root_seconds <= 0:
        return 0.0
    covered = sum(
        txn.layer(metric.span).rooted_self_seconds
        for metric in METRICS
        if metric.span is not None
    )
    return covered / txn.root_seconds


METRICS: tuple[Metric, ...] = (
    Metric("lang.parse_s", "s", "lower", "setup_s",
           lambda m: m.self_s("setup", "lang.parse")),
    Metric("engine.load_s", "s", "lower", "setup_s",
           lambda m: m.self_s("setup", "engine.load")),
    Metric("analysis.termination_s", "s", "lower", "analyze_s on iot-wide",
           lambda m: m.self_s("analyze", "analysis.termination")),
    Metric("analysis.confluence_s", "s", "lower", "analyze_s on iot-wide",
           lambda m: m.self_s("analyze", "analysis.confluence")),
    Metric("analysis.observable_s", "s", "lower", "analyze_s on iot-wide",
           lambda m: m.self_s("analyze", "analysis.observable")),
    Metric("analysis.pair_pruning_s", "s", "lower", "analyze_s on iot-wide",
           lambda m: m.self_s("analyze", "analysis.pair_pruning")),
    Metric("analysis.pairs_judged", "count", "lower", "analyze_s on iot-wide",
           lambda m: m.analysis_stats["pairs_judged"]),
    Metric("analysis.lemma_judgments", "count", "lower",
           "analyze_s on iot-wide",
           lambda m: m.analysis_stats["lemma_judgments"]),
    _txn_self("rules.choose_s", "rules.choose", "txn_s on iot-wide"),
    Metric("rules.choose_calls", "count", "lower", "txn_s on iot-wide",
           lambda m: m.calls(_TXN, "rules.choose")),
    Metric("rules.choose_pairs", "count", "lower", "txn_s on iot-wide",
           lambda m: m.count(_TXN, "rules.choose", "pairs")),
    _txn_self("runtime.trigger_s", "runtime.trigger",
              "txn_s on iot-wide, commit latency on server-ingest"),
    Metric("runtime.trigger_calls", "count", "lower", "txn_s on iot-wide",
           lambda m: m.calls(_TXN, "runtime.trigger")),
    Metric("runtime.triggered_total", "count", "lower", "txn_s on iot-wide",
           lambda m: m.count(_TXN, "runtime.trigger", "triggered")),
    Metric("runtime.touch_skips", "count", "higher", "txn_s on iot-wide",
           lambda m: m.count(_TXN, "runtime.run", "touch_skips")),
    _txn_self("runtime.consider_self_s", "runtime.consider",
              "txn_s on iot-wide and drain-rows"),
    Metric("runtime.considerations", "count", "lower",
           "txn_s on iot-wide and drain-rows",
           lambda m: m.calls(_TXN, "runtime.consider")),
    Metric("runtime.firings", "count", "lower",
           "txn_s on iot-wide and drain-rows",
           lambda m: m.count(_TXN, "runtime.consider", "fired")),
    Metric("runtime.fire_ratio", "ratio", "higher",
           "txn_s on iot-wide and drain-rows",
           lambda m: _ratio(m.count(_TXN, "runtime.consider", "fired"),
                            m.calls(_TXN, "runtime.consider"))),
    _txn_self("runtime.run_self_s", "runtime.run", "txn_s"),
    _txn_self("runtime.open_s", "runtime.open", "txn_s on drain-rows"),
    _txn_self("engine.action_s", "engine.action", "txn_s on drain-rows"),
    Metric("engine.action_statements", "count", "lower",
           "txn_s on drain-rows",
           lambda m: m.calls(_TXN, "engine.action")),
    _txn_self("engine.user_exec_s", "engine.user_exec", "txn_s on drain-rows"),
    _txn_self("transitions.fold_s", "transitions.fold",
              "txn_s on iot-wide and drain-rows"),
    Metric("transitions.primitives_folded", "count", "lower",
           "txn_s on iot-wide and drain-rows",
           lambda m: m.count(_TXN, "runtime.run", "primitives_folded")),
    _txn_self("engine.wal_checkpoint_s", "engine.wal_checkpoint",
              "txn_s and recovery_s on drain-rows"),
    _txn_self("engine.wal_append_s", "engine.wal_append",
              "txn_s on drain-rows, commit_p50_ms on server-ingest"),
    _txn_self("engine.wal_commit_s", "engine.wal_commit",
              "txn_s on drain-rows, commit_p50_ms on server-ingest"),
    Metric("engine.wal_bytes", "bytes", "lower",
           "recovery_s on drain-rows and server-ingest",
           lambda m: m.stat("wal_bytes")),
    Metric("engine.wal_frames", "count", "lower",
           "recovery_s on drain-rows and server-ingest",
           lambda m: m.stat("wal_frames")),
    Metric("engine.wal_syncs", "count", "lower",
           "commit_p50_ms and commits_per_s on server-ingest",
           lambda m: m.stat("wal_syncs")),
    _txn_self("runtime.server.open_s", "runtime.server.open",
              "commit_p50_ms on server-ingest"),
    Metric("runtime.server.session_s", "s", "lower",
           "commits_per_s and commit_p95_ms on server-ingest",
           lambda m: m.total_s(_TXN, "runtime.server.session")),
    _txn_self("runtime.server.commit_self_s", "runtime.server.commit",
              "commits_per_s and commit_p95_ms on server-ingest"),
    Metric("runtime.server.validate_s", "s", "lower",
           "commits_per_s and commit_p95_ms on server-ingest",
           lambda m: m.stat("validate_s")),
    Metric("runtime.server.publish_s", "s", "lower",
           "commits_per_s and commit_p95_ms on server-ingest",
           lambda m: m.stat("publish_s")),
    _txn_self("runtime.server.commit_wait_s", "runtime.server.commit_wait",
              "commits_per_s and commit_p95_ms on server-ingest"),
    Metric("runtime.server.conflicts", "count", "lower",
           "commits_per_s and commit_p95_ms on server-ingest",
           lambda m: m.stat("conflicts")),
    Metric("runtime.server.retries", "count", "lower",
           "commits_per_s and commit_p95_ms on server-ingest",
           lambda m: m.stat("retries")),
    Metric("runtime.server.group_batches", "count", "lower",
           "commits_per_s on server-ingest",
           lambda m: m.stat("group_batches")),
    Metric("runtime.server.commits_per_batch", "ratio", "higher",
           "commits_per_s on server-ingest",
           lambda m: _ratio(m.stat("group_commits"),
                            m.stat("group_batches"))),
    Metric("engine.canonical_s", "s", "lower", "verify_s",
           lambda m: m.self_s("verify", "engine.canonical")),
    Metric("semantics.oracle_s", "s", "lower", "verify_s on iot-wide",
           lambda m: m.self_s("verify", "semantics.oracle")),
    Metric("runtime.server.replay_s", "s", "lower",
           "verify_s on server-ingest",
           lambda m: m.self_s("verify", "runtime.server.replay")),
    Metric("engine.recover_s", "s", "lower", "recovery_s",
           lambda m: m.self_s("verify", "engine.recover")),
    Metric("trace.coverage", "share", "higher",
           "share of txn_s (server-ingest: of summed commit latency) "
           "accounted for by the self-time metrics above",
           coverage),
    Metric("trace.overhead_s", "s", "lower",
           "traced minus untraced round time (reference seconds)",
           lambda m: m.overhead_seconds),
)


def layer_metrics(inputs: LayerInputs) -> dict[str, dict]:
    return {
        metric.name: {"value": metric.value(inputs), "unit": metric.unit}
        for metric in METRICS
    }
