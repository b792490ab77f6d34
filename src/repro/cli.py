"""Command-line analyzer: ``starburst-analyze``.

Reads a schema spec and a rule file, runs the three analyses, and prints
the report the paper's interactive environment would show: verdicts,
isolated problem rules, and repair suggestions.

Usage::

    starburst-analyze --schema schema.txt rules.txt
    starburst-analyze --schema schema.txt rules.txt --tables stock,orders
    starburst-analyze --schema schema.txt rules.txt --json --stats
    starburst-analyze --schema schema.txt rules.txt --certify-commutes a,b \\
        --certify-termination shed_overload --order high,low
    starburst-analyze --schema schema.txt rules.txt \\
        --data data.txt --run "insert into orders values (1, 2)" --explore

The schema file holds lines of the form ``table: col1, col2, ...``
(append ``:string``/``:float``/``:bool`` to a column for non-integer
types). A data file holds lines ``table: (v, v, ...), (v, v, ...)``
with integer, float, quoted-string, true/false, or null values.

With ``--run`` the rules are also *executed*: the statements form the
initial transition, rule processing runs to quiescence with a full
trace, and the final table contents are printed. Adding ``--explore``
additionally enumerates every execution order (the Section 4 execution
graph) and reports the observed termination/confluence/determinism of
this concrete instance.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from repro.analysis.analyzer import RuleAnalyzer
from repro.config import ExecutionConfig
from repro.engine import plan
from repro.engine import rete
from repro.engine.database import Database
from repro.errors import ReproError
from repro.lang.parser import Parser
from repro.rules.ruleset import RuleSet
from repro.runtime import parallel
from repro.runtime.exec_graph import ExecutionGraph, explore
from repro.runtime.processor import ProcessingResult, RuleProcessor
from repro.runtime.trace import render_trace, trace_run
from repro.schema.catalog import Schema, schema_from_spec
from repro.stats import render_stats


def load_schema(path: str) -> Schema:
    spec: dict[str, list[str]] = {}
    with open(path) as handle:
        for raw_line in handle:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            table, __, columns = line.partition(":")
            spec[table.strip()] = [
                column.strip() for column in columns.split(",") if column.strip()
            ]
    return schema_from_spec(spec)


def load_data(path: str, schema: Schema) -> Database:
    """Load ``table: (v, ...), (v, ...)`` lines into a fresh database."""
    database = Database(schema)
    with open(path) as handle:
        for raw_line in handle:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            table, __, rows_text = line.partition(":")
            # Reuse the expression parser for the row tuples: a VALUES
            # clause has exactly the right shape.
            parser = Parser(f"insert into {table.strip()} values {rows_text}")
            statement = parser.parse_statement()
            from repro.engine.dml import execute_statement

            execute_statement(database, statement)
    return database


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starburst-analyze",
        description=(
            "Static analysis of Starburst-style production rules: "
            "termination, confluence, observable determinism "
            "(Aiken/Widom/Hellerstein, SIGMOD 1992)."
        ),
    )
    parser.add_argument("rules", help="file of create-rule statements")
    parser.add_argument(
        "--schema", required=True, help="schema spec file (table: col, col, ...)"
    )
    parser.add_argument(
        "--tables",
        help="comma-separated tables: also analyze partial confluence w.r.t. them",
    )
    parser.add_argument(
        "--certify-commutes",
        action="append",
        default=[],
        metavar="RULE,RULE",
        help="declare that a pair of rules actually commutes (repeatable)",
    )
    parser.add_argument(
        "--certify-termination",
        action="append",
        default=[],
        metavar="RULE",
        help="declare that cycles through RULE make progress (repeatable)",
    )
    parser.add_argument(
        "--order",
        action="append",
        default=[],
        metavar="HIGHER,LOWER",
        help="add a priority ordering (repeatable)",
    )
    parser.add_argument(
        "--dataflow",
        action="store_true",
        help="judge Lemma 6.1 with the attribute-level dataflow "
        "refinement (column-precise read/write overlap tests; "
        "strictly pruning and sound)",
    )
    parser.add_argument(
        "--termination",
        choices=("tg", "stratified", "critical"),
        default="tg",
        help="termination analysis depth — 'tg' (plain Theorem 5.1 "
        "triggering-graph acyclicity, the default), 'stratified' "
        "(refined-graph edge pruning plus the stratification "
        "fixpoint), or 'critical' (additionally the critical-instance "
        "abstraction and a concrete non-termination witness search)",
    )
    parser.add_argument(
        "--witness-out",
        metavar="FILE.json",
        help="with --termination critical: write any non-termination "
        "witnesses (seed statements + looping trace, replayable via "
        "`repro replay-witness`) as JSON to FILE.json",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print violations and repair suggestions",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full analysis report as JSON on stdout "
        "(AnalysisReport.to_dict(); suppresses the human-readable output)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the analysis engine's cache and timing counters "
        "(pairs judged, memo hits, invalidations, per-phase wall-clock) "
        "plus the query planner's counters (plans built/cached, index "
        "builds and probes, hash-join probes)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase wall time (parse, plan, triggering, pair "
        "analysis, and with --run execution/exploration) for perf triage",
    )
    parser.add_argument(
        "--report",
        metavar="FILE.md",
        help="write a full markdown analysis report to FILE.md",
    )
    parser.add_argument(
        "--dot",
        metavar="FILE.dot",
        help="write the triggering graph (with priorities and cycle "
        "highlighting) as Graphviz DOT to FILE.dot",
    )
    parser.add_argument(
        "--data",
        help="data file (table: (v, ...), ...) loaded before --run",
    )
    parser.add_argument(
        "--run",
        action="append",
        default=[],
        metavar="STATEMENT",
        help="execute STATEMENT as part of the initial transition, then "
        "process rules with a full trace (repeatable)",
    )
    parser.add_argument(
        "--explore",
        action="store_true",
        help="with --run: also enumerate every execution order and report "
        "the instance's observed behavior",
    )
    parser.add_argument(
        "--matching",
        choices=("rete", "planned", "naive"),
        default="planned",
        help="with --run: how rule conditions are matched at "
        "consideration time — 'rete' (incremental discrimination "
        "network, planned fallback for unsupported conditions), "
        "'planned' (compiled predicates, the default), or 'naive' "
        "(tree-walking reference evaluator and naive statement "
        "execution)",
    )
    parser.add_argument(
        "--durable",
        metavar="FILE.wal",
        help="with --run: log the transaction to a write-ahead log at "
        "FILE.wal and commit at quiescence; `repro recover FILE.wal` "
        "replays it after a crash",
    )
    parser.add_argument(
        "--scheduler",
        choices=("serial", "parallel"),
        default="serial",
        help="with --run: rule scheduling — 'serial' (one rule per "
        "round, the default) or 'parallel' (rules with a static "
        "partition or Definition 6.5 commutativity certificate run "
        "as one batch round on copy-on-write forks; pairs without a "
        "proof serialize)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        metavar="P",
        help="with --run: hash-partition tables with declared partition "
        "keys into P shards (enables partition-pruned scans and "
        "single-shard probes; default 1 = flat)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    profile: dict[str, float] = {}
    try:
        started = time.perf_counter()
        schema = load_schema(args.schema)
        with open(args.rules) as handle:
            rules_text = handle.read()
        ruleset = RuleSet.parse(rules_text, schema)
        profile["parse"] = time.perf_counter() - started

        analyzer = RuleAnalyzer(ruleset, column_dataflow=args.dataflow)
        for pair in args.certify_commutes:
            first, __, second = pair.partition(",")
            analyzer.certify_commutes(first.strip(), second.strip())
        for rule in args.certify_termination:
            analyzer.certify_termination(rule.strip())
        for pair in args.order:
            higher, __, lower = pair.partition(",")
            analyzer.add_priority(higher.strip(), lower.strip())

        table_groups = []
        if args.tables:
            table_groups.append(
                [table.strip() for table in args.tables.split(",")]
            )
        started = time.perf_counter()
        report = analyzer.analyze(
            tables=table_groups,
            termination_mode=args.termination,
            rules_source=rules_text,
        )
        profile["pair_analysis"] = time.perf_counter() - started
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json:
        import json

        payload = report.to_dict()
        if args.run:
            try:
                run = _execute_run(ruleset, schema, args, profile, trace=False)
                payload.update(_run_sections(run))
            except ReproError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        if args.profile:
            payload["profile"] = _profile_section(profile)
        print(json.dumps(payload, indent=2))
    else:
        print(f"analyzed {len(ruleset)} rules over {len(schema)} tables")
        print(report.summary())

        if args.verbose:
            _print_details(report)

    layered = report.termination_report
    if args.witness_out:
        import json

        witnesses = layered.witnesses() if layered is not None else []
        with open(args.witness_out, "w") as handle:
            json.dump(
                [witness.to_dict() for witness in witnesses],
                handle,
                indent=2,
            )
            handle.write("\n")
        print(
            f"{len(witnesses)} non-termination witness(es) written to "
            f"{args.witness_out}",
            file=sys.stderr if args.json else sys.stdout,
        )

    if args.dot:
        from repro.analysis.graphviz import triggering_graph_dot

        termination = analyzer.termination_analyzer.analyze()
        suggested = frozenset(
            rule
            for rules in termination.auto_certifiable.values()
            for rule in rules
        )
        witness_rules: frozenset[str] = frozenset()
        strata = None
        if layered is not None:
            strata = layered.strata or None
            witness_rules = frozenset(
                rule
                for verdict in layered.verdicts
                if verdict.witness is not None
                for rule in verdict.component
            )
        with open(args.dot, "w") as handle:
            handle.write(
                triggering_graph_dot(
                    analyzer.termination_analyzer.graph,
                    priorities=ruleset.priorities,
                    certified=analyzer.termination_analyzer.certified_rules,
                    certified_pairs=analyzer.engine.certified_commutes,
                    suggested=suggested,
                    legend=True,
                    strata=strata,
                    witness_rules=witness_rules,
                )
            )
        print(
            f"triggering graph written to {args.dot}",
            file=sys.stderr if args.json else sys.stdout,
        )

    if args.report:
        from repro.analysis.report import render_markdown

        partial = []
        if args.tables:
            partial.append(
                [table.strip() for table in args.tables.split(",")]
            )
        with open(args.report, "w") as handle:
            handle.write(
                render_markdown(analyzer, report, partial_tables=partial)
            )
        print(
            f"markdown report written to {args.report}",
            file=sys.stderr if args.json else sys.stdout,
        )

    if args.run and not args.json:
        try:
            run = _execute_run(ruleset, schema, args, profile, trace=True)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        _print_run(run)

    # After --run, so execution-side counters (planner, rete) reflect
    # the run they describe rather than the pre-run state.
    if args.stats and not args.json:
        _print_stats(analyzer.engine.stats)

    if args.profile and not args.json:
        _print_profile(profile)

    all_good = (
        report.terminates
        and report.confluent
        and report.observably_deterministic
    )
    return 0 if all_good else 1


@dataclass
class RunResult:
    """What one ``--run`` produced; :func:`_print_run` renders it as
    text and :func:`_run_sections` as JSON."""

    processor: RuleProcessor
    result: ProcessingResult
    #: the per-step trace, or None when the run was not traced
    events: list | None
    final_tables: dict[str, list[tuple]]
    #: process-global executor counters as the run left them, before
    #: any exploration adds to them
    planner_stats: dict
    rete_stats: dict
    scheduler_stats: dict | None
    #: the WAL summary of a durable run, else None
    wal: dict | None
    #: the execution graph and the processor it explored (--explore)
    graph: ExecutionGraph | None = None
    explored: RuleProcessor | None = None


def _execute_run(
    ruleset: RuleSet, schema: Schema, args, profile: dict, *, trace: bool
) -> RunResult:
    """Load → configure → execute ``--run`` → process rules → finish the
    durable run → explore (with ``--explore``)."""
    database = (
        load_data(args.data, schema) if args.data else Database(schema)
    )
    config = ExecutionConfig(
        matching=args.matching,
        durable=args.durable is not None,
        wal=args.durable,
        scheduler=args.scheduler,
        partitions=args.partitions,
    )
    processor = RuleProcessor(ruleset, database.copy(), config=config)
    started = time.perf_counter()
    for statement in args.run:
        processor.execute_user(statement)
    # The step trace narrates one serial choice sequence; a batch round
    # has no single such sequence, so parallel runs report outcomes and
    # stats without the per-step narration.
    if trace and config.scheduler == "serial":
        result, events = trace_run(processor)
    else:
        result, events = processor.run(), None
    wal = _finish_durable(processor)
    profile["execution"] = time.perf_counter() - started
    profile["triggering"] = processor.stats.trigger_seconds

    run = RunResult(
        processor=processor,
        result=result,
        events=events,
        final_tables={
            table.name: processor.database.table(table.name).value_tuples()
            for table in schema
        },
        planner_stats=plan.STATS.to_dict(),
        rete_stats=rete.STATS.to_dict(),
        scheduler_stats=(
            parallel.STATS.to_dict()
            if config.scheduler == "parallel"
            else None
        ),
        wal=wal,
    )
    if args.explore:
        fresh = RuleProcessor(
            ruleset,
            database.copy(),
            config=config.with_options(durable=False, wal=None),
        )
        for statement in args.run:
            fresh.execute_user(statement)
        started = time.perf_counter()
        run.graph = explore(fresh)
        profile["exploration"] = time.perf_counter() - started
        run.explored = fresh
    return run


def _finish_durable(processor: RuleProcessor) -> dict | None:
    """Commit (or abort-close) the durable run; return the WAL summary.

    A rolled-back transaction already wrote its abort marker — closing
    without a commit leaves recovery at the previous durable state,
    which is exactly the rollback semantics.
    """
    if processor.wal is None:
        return None
    stats = processor.wal.stats
    frames = None if processor.rolled_back else processor.commit()
    processor.close()
    return {
        "path": processor.config.wal,
        "committed": frames is not None,
        "frames": frames if frames is not None else stats.frames_emitted,
        **stats.to_dict(),
    }


def _run_sections(run: RunResult) -> dict:
    """The JSON rendering of a run: an ``execution`` section (outcome,
    steps, final tables, processor substrate counters) and, with
    ``--explore``, an ``exploration`` section
    (``ExecutionGraph.stats()``) — so the runtime's observability lands
    in the same JSON surface as the analysis engine's counters."""
    execution = {
        "outcome": run.result.outcome,
        "steps": len(run.result.steps),
        "rules_considered": run.result.rules_considered,
        "observables": [str(action) for action in run.result.observables],
        "final_tables": run.final_tables,
        "stats": run.processor.stats.to_dict(),
        "planner_stats": run.planner_stats,
        "rete_stats": run.rete_stats,
    }
    if run.scheduler_stats is not None:
        execution["scheduler_stats"] = run.scheduler_stats
    if run.wal is not None:
        execution["wal"] = run.wal
    sections: dict = {"execution": execution}
    if run.graph is not None:
        sections["exploration"] = {
            **run.graph.stats(),
            "substrate_stats": run.explored.stats.to_dict(),
        }
    return sections


def _print_run(run: RunResult) -> None:
    """The text rendering of a run: trace, final state, durability and
    exploration summaries."""
    print("\n== rule processing trace ==")
    if run.events is None:
        print("(per-step trace unavailable under --scheduler parallel)")
    else:
        print(render_trace(run.events))
    print(f"outcome: {run.result.outcome} after {len(run.result.steps)} steps")
    print("final state:")
    for name, rows in run.final_tables.items():
        print(f"  {name}: {rows}")
    if run.wal is not None:
        print("\n== durability ==")
        state = "committed" if run.wal["committed"] else "aborted"
        print(f"WAL {run.wal['path']}: {state}")
        print(
            f"frames: {run.wal['frames']}  "
            f"primitives: {run.wal['primitives_logged']}  "
            f"bytes: {run.wal['bytes_written']}  "
            f"fsyncs: {run.wal['syncs']}"
        )

    graph = run.graph
    if graph is not None:
        print("\n== execution-graph exploration ==")
        print(f"states explored:     {graph.state_count}")
        print(f"states deduped:      {graph.states_deduped}")
        print(f"terminates:          {graph.terminates}")
        print(f"confluent:           {graph.is_confluent}")
        print(f"observable streams:  {len(graph.observable_streams)}")
        print(f"paths to final:      {graph.paths_to_final()}")
        if graph.streams_truncated:
            print("(stream enumeration truncated by budget)")


def _print_stats(stats) -> None:
    """Render every subsystem's counters through the one shared renderer.

    Sections appear in pipeline order: analysis engine, query planner,
    and — whenever a match network was compiled this process — the
    incremental matcher.
    """
    engine = stats.to_dict()
    timings = engine.pop("timings")
    data = {key: engine[key] for key in sorted(engine)}
    data["timings (s)"] = timings
    sections = {
        "analysis engine": data,
        "query planner": plan.STATS.to_dict(),
    }
    if rete.STATS.networks_compiled:
        sections["incremental match"] = rete.STATS.to_dict()
    if parallel.STATS.rounds:
        sections["parallel scheduler"] = parallel.STATS.to_dict()
    print(render_stats(sections))


def _profile_section(profile: dict) -> dict:
    """The per-phase wall-time report: measured phases plus the planner's
    accumulated planning time (every query planned by this process)."""
    section = {phase: round(seconds, 6) for phase, seconds in profile.items()}
    section["plan"] = round(plan.STATS.plan_seconds, 6)
    if rete.STATS.networks_compiled:
        section["rete_advance"] = round(rete.STATS.advance_seconds, 6)
    if parallel.STATS.rounds:
        section["parallel_merge"] = round(parallel.STATS.merge_seconds, 6)
    return section


def _print_profile(profile: dict) -> None:
    print("\n== per-phase wall time (s) ==")
    for phase, seconds in _profile_section(profile).items():
        print(f"  {phase}: {seconds}")


def _print_details(report) -> None:
    layered = report.termination_report
    if layered is not None and layered.verdicts:
        print(f"\nper-cycle termination verdicts [{layered.mode}]:")
        for verdict in layered.verdicts:
            members = ", ".join(sorted(verdict.component))
            stratum = (
                f", stratum {verdict.stratum}"
                if verdict.stratum is not None
                else ""
            )
            print(f"  {{{members}}}: {verdict.label()}{stratum}")
            if verdict.detail:
                print(f"    {verdict.detail}")
            if verdict.witness is not None:
                trace = " -> ".join(verdict.witness.trace)
                print(f"    witness trace: {trace}")
        if layered.pruned_edges:
            print("refined-graph edges pruned:")
            for source, target, reason in layered.pruned_edges:
                print(f"  {source} -> {target}: {reason}")

    termination = report.termination
    if not termination.guaranteed and (
        layered is None or not layered.terminates
    ):
        print("\ntriggering-graph cycles (certify a rule on each to proceed):")
        for component in termination.uncertified_components:
            members = ", ".join(sorted(component))
            print(f"  {{{members}}}")
            auto = termination.auto_certifiable.get(component, frozenset())
            if auto:
                print(
                    "    delete-only heuristic would certify: "
                    + ", ".join(sorted(auto))
                )

    confluence = report.confluence
    if confluence.violations:
        print("\nconfluence violations:")
        for violation in confluence.violations:
            print(f"  {violation.describe()}")
        print("suggestions:")
        for suggestion in confluence.suggestions():
            print(f"  - {suggestion.describe()}")

    od = report.observable_determinism
    if od.observable_rules and not od.observably_deterministic:
        print("\nobservable-determinism violations (Sig(Obs) analysis):")
        for violation in od.confluence.violations:
            print(f"  {violation.describe()}")


# ----------------------------------------------------------------------
# The ``repro`` multi-command entry point
# ----------------------------------------------------------------------


def build_repro_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Production-rule program tooling: static analysis and lint "
            "(Aiken/Widom/Hellerstein, SIGMOD 1992)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint = commands.add_parser(
        "lint",
        help="run the rule-program linter (diagnostic codes RPL001...)",
        description=(
            "Static diagnostics over a rule program: never-triggerable "
            "rules, dead writes, uncertified self-triggers, "
            "unsatisfiable conditions, shadowed priority edges, "
            "unknown/ambiguous column references, and suggested cycle "
            "certifications. Exits 1 when any error-severity finding "
            "is reported, 2 on parse/usage errors, 0 otherwise."
        ),
    )
    lint.add_argument("rules", help="file of create-rule statements")
    lint.add_argument(
        "--schema",
        required=True,
        help="schema spec file (table: col, col, ...)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--entry",
        metavar="TABLE,TABLE",
        help="tables user transactions may touch (Section 9); enables "
        "the never-triggerable-rule check RPL001",
    )
    lint.add_argument(
        "--certify-termination",
        action="append",
        default=[],
        metavar="RULE",
        help="treat RULE as termination-certified (silences RPL003 "
        "and RPL007 for its cycles; repeatable)",
    )
    lint.add_argument(
        "--select",
        metavar="CODE,CODE",
        help="run only the listed diagnostic codes (e.g. RPL004,RPL006)",
    )
    lint.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )

    analyze = commands.add_parser(
        "analyze",
        help="run the termination/confluence/determinism analyzer "
        "(same as starburst-analyze)",
        add_help=False,
    )
    analyze.add_argument("args", nargs=argparse.REMAINDER)

    replay = commands.add_parser(
        "replay-witness",
        help="re-execute a non-termination witness and verify it loops",
        description=(
            "Replay non-termination witnesses produced by "
            "starburst-analyze --termination critical --witness-out "
            "FILE.json. Each witness embeds its schema, seed "
            "statements, and looping trace; a state-cycle witness must "
            "return to an identical processor state after one cycle, a "
            "pumped-growth witness must keep growing the database by a "
            "constant non-zero delta per pump round. Exits 0 when every "
            "witness replays to a genuine loop, 1 when any fails to, "
            "2 on load errors."
        ),
    )
    replay.add_argument(
        "witness",
        help="witness JSON file (one witness object or a list of them)",
    )
    replay.add_argument(
        "--rules",
        help="rule file to replay against (default: the rules text "
        "embedded in the witness)",
    )
    replay.add_argument(
        "--schema",
        help="schema spec file (default: the spec embedded in the "
        "witness)",
    )
    replay.add_argument(
        "--periods",
        type=int,
        default=4,
        metavar="N",
        help="pump rounds to verify for pumped-growth witnesses "
        "(default 4)",
    )
    replay.add_argument(
        "--json",
        action="store_true",
        help="emit the replay results as JSON",
    )

    recover = commands.add_parser(
        "recover",
        help="replay the committed prefix of a write-ahead log",
        description=(
            "Recover the database state as of the last committed "
            "transaction in a WAL written by a durable run "
            "(starburst-analyze --run ... --durable FILE.wal). Torn or "
            "corrupt tails are truncated; uncommitted and aborted "
            "transactions are discarded. Exits 2 if the file is not a "
            "readable WAL."
        ),
    )
    recover.add_argument("wal", help="WAL file to replay")
    recover.add_argument(
        "--schema",
        help="schema spec file to verify against the log's header "
        "(the log is self-describing; this cross-checks it)",
    )
    recover.add_argument(
        "--json",
        action="store_true",
        help="emit the recovery report and recovered tables as JSON",
    )

    serve = commands.add_parser(
        "serve",
        help="run concurrent rule-processing sessions over one store",
        description=(
            "Drive N concurrent snapshot-isolated sessions through the "
            "MVCC rule server (first-committer-wins validation, "
            "optional group-commit WAL). By default the built-in "
            "seeded streaming-ingestion workload provides the traffic; "
            "with a rules file, --schema, and repeated --transaction "
            "flags the server runs your transactions instead. Exits 1 "
            "if --verify finds a divergence, 2 on usage errors."
        ),
    )
    serve.add_argument(
        "rules",
        nargs="?",
        help="file of create-rule statements (omit to serve the "
        "built-in streaming workload)",
    )
    serve.add_argument(
        "--schema",
        help="schema spec file (required with a rules file)",
    )
    serve.add_argument(
        "--data",
        help="data file (table: (v, ...), ...) loaded before serving",
    )
    serve.add_argument(
        "--transaction",
        action="append",
        default=[],
        metavar="STMT;STMT",
        help="one transaction: semicolon-separated statements, run as a "
        "session plus rule cascade plus commit (repeatable; dealt over "
        "the session threads)",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=8,
        metavar="N",
        help="concurrent session threads (default 8)",
    )
    serve.add_argument(
        "--rows",
        type=int,
        default=8_000,
        help="streaming workload: total event rows (default 8000)",
    )
    serve.add_argument(
        "--batch-rows",
        type=int,
        default=100,
        help="streaming workload: rows per ingestion batch (default 100)",
    )
    serve.add_argument(
        "--durable",
        metavar="FILE.wal",
        help="write committed sessions through a group-commit WAL at "
        "FILE.wal; `repro recover FILE.wal` replays them",
    )
    serve.add_argument(
        "--no-group-commit",
        action="store_true",
        help="with --durable: fsync every commit by itself instead of "
        "coalescing (the per-commit baseline)",
    )
    serve.add_argument(
        "--isolation",
        choices=("serializable", "snapshot"),
        default="serializable",
        help="what first-committer-wins validation checks (default "
        "serializable: reads and writes)",
    )
    serve.add_argument(
        "--granularity",
        choices=("column", "table"),
        default="column",
        help="conflict-footprint resolution (default column)",
    )
    serve.add_argument(
        "--max-delay",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="group commit: longest a commit waits for company "
        "(default 0.002)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        metavar="N",
        help="group commit: most commits per fsync (default 8)",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="after serving, replay the committed sessions serially in "
        "commit order (and recover the WAL, when durable) and check "
        "both land on the server's exact final state",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the serving report as JSON",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print the server's counters (commits, conflicts, "
        "retries, group-commit batch-size histogram, fsyncs)",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase wall time (parse, drive, commit_validate, "
        "commit_publish, commit_wait, verify)",
    )

    crosscheck = commands.add_parser(
        "crosscheck",
        help="differential-check the declarative semantics against "
        "every execution mode",
        description=(
            "Compute a workload's declarative outcome (per-stratum "
            "fixpoints, Flesca/Greco style) and run its transition "
            "through the execution-mode cross product — condition "
            "matching (naive/planned/rete) x scheduling "
            "(serial/parallel) x persistence (memory/durable/server). "
            "Certified-confluent workloads must match the declarative "
            "final exactly in every mode; others must contain it in "
            "the explore()-reachable set. Exits 1 on any divergence "
            "(with a minimized counterexample), 2 on usage errors."
        ),
    )
    crosscheck.add_argument(
        "workload",
        nargs="*",
        help="workloads to check: powernet, powernet_scaled, "
        "termination_zoo, streaming, partitioned, iot, fraud "
        "(default: all but the scaled ones)",
    )
    crosscheck.add_argument(
        "--rows",
        type=int,
        metavar="N",
        help="scale the instance (workload-specific default; iot/fraud "
        "default to 1,000,000 rows)",
    )
    crosscheck.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload generator seed (default 0)",
    )
    crosscheck.add_argument(
        "--modes",
        default="all",
        metavar="SPEC",
        help="'all' (18 modes), 'quick' (one per axis), or a comma "
        "list like planned-serial-memory,rete-parallel-durable",
    )
    crosscheck.add_argument(
        "--no-minimize",
        action="store_true",
        help="on divergence, skip counterexample minimization",
    )
    crosscheck.add_argument(
        "--json",
        action="store_true",
        help="emit the reports as JSON",
    )
    return parser


def _run_lint(args) -> int:
    from repro.lint import lint_ruleset

    try:
        schema = load_schema(args.schema)
        with open(args.rules) as handle:
            source = handle.read()
        ruleset = RuleSet.parse(source, schema)
        report = lint_ruleset(
            ruleset,
            source=source,
            path=args.rules,
            entry_tables=(
                [table.strip() for table in args.entry.split(",")]
                if args.entry
                else None
            ),
            certified_termination=[
                rule.strip() for rule in args.certify_termination
            ],
            only=(
                [code.strip().upper() for code in args.select.split(",")]
                if args.select
                else None
            ),
        )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "text":
        rendered = report.render_text()
    else:
        import json

        payload = (
            report.to_sarif()
            if args.format == "sarif"
            else report.to_json_dict()
        )
        rendered = json.dumps(payload, indent=2)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        print(
            f"lint report ({args.format}) written to {args.output}",
            file=sys.stderr,
        )
    else:
        print(rendered)
    return 1 if report.has_errors else 0


def _run_replay_witness(args) -> int:
    import json

    from repro.analysis.critical import Witness, replay_witness

    try:
        with open(args.witness) as handle:
            payload = json.load(handle)
        entries = payload if isinstance(payload, list) else [payload]
        witnesses = [Witness.from_dict(entry) for entry in entries]
        ruleset = None
        if args.rules:
            if args.schema:
                schema = load_schema(args.schema)
            elif witnesses:
                schema = schema_from_spec(witnesses[0].schema_spec)
            else:
                raise ReproError(
                    "--rules needs --schema when the witness file is empty"
                )
            with open(args.rules) as handle:
                ruleset = RuleSet.parse(handle.read(), schema)
    except (ReproError, OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    outcomes = []
    for witness in witnesses:
        result = replay_witness(
            witness, ruleset=ruleset, periods=args.periods
        )
        outcomes.append((witness, result))

    all_valid = all(result.valid for __, result in outcomes)
    if args.json:
        print(
            json.dumps(
                {
                    "witnesses": len(outcomes),
                    "all_valid": all_valid,
                    "results": [
                        {
                            "kind": witness.kind,
                            "component": list(witness.component),
                            "valid": result.valid,
                            "reason": result.reason,
                            "steps": result.steps,
                        }
                        for witness, result in outcomes
                    ],
                },
                indent=2,
            )
        )
    else:
        if not outcomes:
            print("no witnesses to replay")
        for witness, result in outcomes:
            members = ", ".join(witness.component)
            state = "LOOPS" if result.valid else "FAILED"
            print(
                f"{state}: {witness.kind} witness for {{{members}}} — "
                f"{result.reason} ({result.steps} considerations)"
            )
    return 0 if all_valid else 1


def _run_recover(args) -> int:
    from repro.engine.wal import recover_database

    try:
        schema = load_schema(args.schema) if args.schema else None
        result = recover_database(args.wal, schema=schema)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    database = result.database
    tables = {
        table.name: database.table(table.name).value_tuples()
        for table in database.schema
    }
    if args.json:
        import json

        print(
            json.dumps(
                {"report": result.report.to_dict(), "tables": tables},
                indent=2,
            )
        )
        return 0

    report = result.report
    print(f"recovered {args.wal}: {report.frames_read} frames")
    print(
        f"transactions: {report.transactions_committed} committed, "
        f"{report.transactions_aborted} aborted"
        + (", 1 in-flight discarded" if report.open_transaction_discarded else "")
    )
    if report.torn_tail:
        print(f"torn tail truncated ({report.tail_reason})")
    print(
        f"replayed {report.primitives_replayed} primitives "
        f"(+{report.checkpoint_rows} checkpoint rows) "
        f"in {report.replay_seconds:.4f}s"
    )
    print("recovered state:")
    for name, rows in tables.items():
        print(f"  {name}: {rows}")
    return 0


def _serve_drive_transactions(server, transactions, sessions: int):
    """Deal *transactions* (statement tuples) over *sessions* worker
    threads; returns a :class:`~repro.workloads.streaming.DriveReport`."""
    import queue as queue_module
    import threading

    from repro.workloads.streaming import DriveReport

    work: "queue_module.Queue" = queue_module.Queue()
    for transaction in transactions:
        work.put(transaction)
    report = DriveReport(
        workers=sessions,
        committed=0,
        rows_ingested=0,
        retries=0,
        elapsed_seconds=0.0,
    )
    lock = threading.Lock()
    failures: list[BaseException] = []

    def run() -> None:
        while True:
            try:
                transaction = work.get_nowait()
            except queue_module.Empty:
                return
            began = time.perf_counter()
            try:
                outcome = server.run_transaction(transaction)
            except BaseException as error:
                with lock:
                    failures.append(error)
                return
            latency = time.perf_counter() - began
            with lock:
                if outcome.committed:
                    report.committed += 1
                report.retries += outcome.retries
                report.latencies.append(latency)

    threads = [
        threading.Thread(target=run, name=f"repro-serve-{index}")
        for index in range(min(sessions, max(1, len(transactions))))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_seconds = time.perf_counter() - started
    if failures:
        raise failures[0]
    return report


def _run_serve(args) -> int:
    import json

    from repro.config import ServerOptions
    from repro.runtime.server import RuleServer, serial_replay
    from repro.workloads.streaming import (
        drive_streaming,
        streaming_workload,
    )

    profile: dict[str, float] = {}
    try:
        if args.rules and not args.schema:
            raise ReproError("serving a rules file requires --schema")
        if args.rules and not args.transaction:
            raise ReproError(
                "serving a rules file requires at least one --transaction"
            )
        started = time.perf_counter()
        if args.rules:
            schema = load_schema(args.schema)
            with open(args.rules) as handle:
                ruleset = RuleSet.parse(handle.read(), schema)
            build_database = lambda: (  # noqa: E731 — rebuilt for --verify
                load_data(args.data, schema)
                if args.data
                else Database(schema)
            )
            workload = None
        else:
            workload = streaming_workload(
                rows=args.rows, batch_rows=args.batch_rows
            )
            schema, ruleset = workload.schema, workload.ruleset
        profile["parse"] = time.perf_counter() - started

        options = ServerOptions(
            isolation=args.isolation,
            granularity=args.granularity,
            group_commit=not args.no_group_commit,
            max_delay=args.max_delay,
            max_batch=args.max_batch,
        )
        config = ExecutionConfig(
            durable=args.durable is not None, wal=args.durable
        )
        database = (
            workload.database if workload is not None else build_database()
        )
        server = RuleServer(
            ruleset,
            database,
            config=config,
            options=options,
            record_history=args.verify,
        )
        started = time.perf_counter()
        if workload is not None:
            report = drive_streaming(
                server, workload.batches, workers=args.sessions
            )
        else:
            transactions = [
                tuple(
                    statement.strip()
                    for statement in transaction.split(";")
                    if statement.strip()
                )
                for transaction in args.transaction
            ]
            report = _serve_drive_transactions(
                server, transactions, args.sessions
            )
        server.close()
        profile["drive"] = time.perf_counter() - started
        profile["commit_validate"] = server.stats.validate_seconds
        profile["commit_publish"] = server.stats.publish_seconds
        profile["commit_wait"] = server.stats.commit_wait_seconds

        verify_section = None
        if args.verify:
            started = time.perf_counter()
            if workload is not None:
                fresh = streaming_workload(
                    rows=args.rows, batch_rows=args.batch_rows
                )
                replay_ruleset, replay_database = (
                    fresh.ruleset,
                    fresh.database,
                )
            else:
                replay_ruleset, replay_database = ruleset, build_database()
            replayed = serial_replay(
                replay_ruleset, replay_database, server.history
            )
            final = database.canonical()
            verify_section = {
                "replay_equal": replayed.canonical() == final
            }
            if args.durable:
                recovered = Database.recover(args.durable, schema=schema)
                verify_section["recovery_equal"] = (
                    recovered.canonical() == final
                )
            profile["verify"] = time.perf_counter() - started
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    sections = server.stats_sections()
    if args.json:
        payload: dict = {"serve": report.to_dict(), **sections}
        if verify_section is not None:
            payload["verify"] = verify_section
        if args.profile:
            payload["profile"] = _profile_section(profile)
        print(json.dumps(payload, indent=2))
    else:
        summary = report.to_dict()
        print(
            f"served {summary['committed']} committed transactions over "
            f"{args.sessions} session threads in "
            f"{summary['elapsed_seconds']}s "
            f"({summary['commits_per_second']}/s)"
        )
        print(
            f"latency p50 {summary['p50_commit_seconds']}s  "
            f"p99 {summary['p99_commit_seconds']}s  "
            f"abort rate {summary['abort_rate']}"
        )
        if args.durable:
            print(f"WAL {args.durable}: committed sessions are durable")
        if verify_section is not None:
            for check, equal in verify_section.items():
                state = "equal" if equal else "DIVERGED"
                print(f"{check.removesuffix('_equal')}: {state}")
        if args.stats:
            print()
            print(render_stats(sections))
        if args.profile:
            _print_profile(profile)

    if verify_section is not None and not all(verify_section.values()):
        return 1
    return 0


#: crosscheck's default sweep — every registered workload that fits in
#: an interactive run (the scaled builds are opt-in by name)
_CROSSCHECK_DEFAULT = (
    "powernet",
    "termination_zoo",
    "streaming",
    "partitioned",
)


def _run_crosscheck(args) -> int:
    from repro.validate.crosscheck import (
        build_case,
        case_names,
        crosscheck_case,
        parse_modes,
    )

    try:
        modes = parse_modes(args.modes)
        names = tuple(args.workload) or _CROSSCHECK_DEFAULT
        for name in names:
            if name not in case_names():
                raise ValueError(
                    f"unknown workload {name!r}; choose from "
                    f"{', '.join(case_names())}"
                )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    reports = []
    for name in names:
        case = build_case(name, rows=args.rows, seed=args.seed)
        reports.append(
            crosscheck_case(case, modes, minimize=not args.no_minimize)
        )

    if args.json:
        import json

        print(
            json.dumps(
                [report.to_dict() for report in reports],
                indent=2,
                default=str,
            )
        )
    else:
        for report in reports:
            verdict = "ok" if report.passed else "DIVERGED"
            declarative = report.declarative
            print(
                f"{report.case}: {verdict} "
                f"[{report.classification.label}] "
                f"declarative={declarative.status} "
                f"firings={declarative.firings} "
                f"modes={len(report.modes)}"
            )
            for result in report.modes:
                flags = ""
                if result.recovered_matches is not None:
                    state = "ok" if result.recovered_matches else "DIVERGED"
                    flags = f" recovery={state}"
                print(
                    f"  {result.mode}: {result.status} "
                    f"{result.seconds:.3f}s{flags}"
                )
            if report.exploration:
                print(f"  explore: {report.exploration}")
            for divergence in report.divergences:
                print(
                    f"  divergence[{divergence['kind']}] "
                    f"{divergence['mode']}: {divergence['detail']}"
                )
            if report.counterexample:
                print(f"  counterexample: {report.counterexample}")

    return 0 if all(report.passed for report in reports) else 1


def repro_main(argv: list[str] | None = None) -> int:
    args = build_repro_parser().parse_args(argv)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "replay-witness":
        return _run_replay_witness(args)
    if args.command == "recover":
        return _run_recover(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "crosscheck":
        return _run_crosscheck(args)
    return main(args.args)


if __name__ == "__main__":
    raise SystemExit(main())
