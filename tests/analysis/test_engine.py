"""AnalysisEngine tests: memoization, precise invalidation, restricted
threading, report round-trips."""

import json

import pytest

from repro.analysis.analyzer import AnalysisReport, RuleAnalyzer
from repro.analysis.engine import AnalysisEngine
from repro.rules.events import TriggerEvent
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec(
        {"t": ["id", "v"], "u": ["id", "w"], "z": ["id", "q"]}
    )


# Three rules conflicting on u.w, two conflicting on z.q, no triggering
# between them: every unordered pair gets its own independent verdict.
CLUSTERED = """
create rule a on t when inserted then update u set w = 0
create rule b on t when inserted then update u set w = 1
create rule c on t when inserted then update u set w = 2
create rule x on t when inserted then update z set q = 0
create rule y on t when inserted then update z set q = 1
"""

# A triggering chain (for rule-edit adjacency invalidation tests).
CHAINED = """
create rule feed on t when inserted then insert into u values (1, 1)
create rule react on u when inserted then update u set w = 0
create rule other on t when inserted then update z set q = 1
"""


def confluence_dict(analysis):
    """Serialized confluence verdict, for ground-truth comparison."""
    from repro.analysis.analyzer import _confluence_to_dict

    return _confluence_to_dict(analysis)


def fresh_ground_truth(
    source, schema, *, certified=(), priorities=(), removed_priorities=()
):
    """What a from-scratch analyzer (no memo reuse) concludes."""
    analyzer = RuleAnalyzer(RuleSet.parse(source, schema))
    for first, second in certified:
        analyzer.certify_commutes(first, second)
    for higher, lower in priorities:
        analyzer.add_priority(higher, lower)
    for higher, lower in removed_priorities:
        analyzer.remove_priority(higher, lower)
    return analyzer.analyze_confluence()


class TestMemoization:
    def test_second_pass_is_all_memo_hits(self, schema):
        engine = AnalysisEngine(RuleSet.parse(CLUSTERED, schema))
        first = engine.analyze_confluence()
        judged = engine.stats.pairs_judged
        assert judged == 10  # C(5, 2) unordered pairs
        second = engine.analyze_confluence()
        assert engine.stats.pairs_judged == judged  # nothing recomputed
        assert engine.stats.pair_memo_hits == 10
        assert confluence_dict(first) == confluence_dict(second)

    def test_memoize_false_recomputes_every_pass(self, schema):
        engine = AnalysisEngine(
            RuleSet.parse(CLUSTERED, schema), memoize=False
        )
        engine.analyze_confluence()
        engine.analyze_confluence()
        assert engine.stats.pairs_judged == 20
        assert engine.stats.pair_memo_hits == 0

    def test_lemma_memo_shared_between_base_and_obs_views(self, schema):
        engine = AnalysisEngine(RuleSet.parse(CLUSTERED, schema))
        engine.analyze_confluence()
        lemma_before = engine.stats.lemma_judgments
        # No rule is observable, so the Obs view adds nothing: the raw
        # judgments reused here come from the shared per-view stores.
        engine.analyze_observable_determinism()
        assert engine.stats.lemma_judgments >= lemma_before


class TestCertificationInvalidation:
    def test_certify_flips_exactly_the_affected_pair(self, schema):
        engine = AnalysisEngine(RuleSet.parse(CLUSTERED, schema))
        engine.analyze_confluence()
        judged = engine.stats.pairs_judged

        engine.certify_commutes("a", "b")
        # With no priorities the fixpoint sets are singletons, so only
        # the (a, b) verdict depends on that certification.
        assert engine.stats.invalidations == 1

        analysis = engine.analyze_confluence()
        assert engine.stats.pairs_judged == judged + 1  # only (a, b)
        truth = fresh_ground_truth(
            CLUSTERED, schema, certified=[("a", "b")]
        )
        assert confluence_dict(analysis) == confluence_dict(truth)

    def test_revoke_restores_the_original_verdict(self, schema):
        engine = AnalysisEngine(RuleSet.parse(CLUSTERED, schema))
        baseline = engine.analyze_confluence()
        engine.certify_commutes("a", "b")
        engine.analyze_confluence()
        engine.revoke_certification("a", "b")
        restored = engine.analyze_confluence()
        assert confluence_dict(restored) == confluence_dict(baseline)

    def test_direct_certification_on_commutativity_still_invalidates(
        self, schema
    ):
        # bench_e7-style use: certifying on analyzer.commutativity
        # directly must not leave stale pair verdicts behind.
        engine = AnalysisEngine(RuleSet.parse(CLUSTERED, schema))
        engine.analyze_confluence()
        engine.commutativity.certify_commutes("x", "y")
        analysis = engine.analyze_confluence()
        truth = fresh_ground_truth(
            CLUSTERED, schema, certified=[("x", "y")]
        )
        assert confluence_dict(analysis) == confluence_dict(truth)

    def test_certification_reaches_an_already_built_obs_view(self, schema):
        source = """
        create rule wa on t when inserted then update u set w = 0
        create rule wb on t when inserted then update u set w = 1
        create rule watch on t when inserted then select * from u
        """
        engine = AnalysisEngine(RuleSet.parse(source, schema))
        before = engine.analyze_observable_determinism()
        assert not before.observably_deterministic
        # The certifications land after the Obs view was built; the
        # engine must mirror them in and drop the stale verdicts.
        engine.certify_commutes("wa", "wb")
        engine.certify_commutes("wa", "watch")
        engine.certify_commutes("wb", "watch")
        after = engine.analyze_observable_determinism()
        assert after.observably_deterministic


class TestPriorityInvalidation:
    def test_add_priority_flips_exactly_the_ordered_pair(self, schema):
        engine = AnalysisEngine(RuleSet.parse(CLUSTERED, schema))
        engine.analyze_confluence()
        judged = engine.stats.pairs_judged

        engine.add_priority("a", "b")
        analysis = engine.analyze_confluence()
        # (a, b) is now ordered — skipped entirely; no other verdict
        # involved a or b's priority standing (no triggering edges).
        assert engine.stats.pairs_judged == judged
        assert analysis.pairs_examined == 9
        truth = fresh_ground_truth(
            CLUSTERED, schema, priorities=[("a", "b")]
        )
        assert confluence_dict(analysis) == confluence_dict(truth)

    def test_remove_priority_restores_the_original_verdict(self, schema):
        engine = AnalysisEngine(RuleSet.parse(CLUSTERED, schema))
        baseline = engine.analyze_confluence()
        engine.add_priority("a", "b")
        engine.analyze_confluence()
        engine.remove_priority("a", "b")
        restored = engine.analyze_confluence()
        assert confluence_dict(restored) == confluence_dict(baseline)

    def test_priority_added_directly_on_ruleset_is_detected(self, schema):
        ruleset = RuleSet.parse(CLUSTERED, schema)
        engine = AnalysisEngine(ruleset)
        engine.analyze_confluence()
        ruleset.add_priority("b", "c")  # bypassing the engine API
        analysis = engine.analyze_confluence()
        truth = fresh_ground_truth(
            CLUSTERED, schema, priorities=[("b", "c")]
        )
        assert confluence_dict(analysis) == confluence_dict(truth)

    def test_priority_invalidates_dependent_fixpoint_verdicts(self, schema):
        # With a triggering chain, ordering feed > react changes the
        # (feed, other) fixpoint's candidate standing — its verdict must
        # be recomputed, not served stale.
        engine = AnalysisEngine(RuleSet.parse(CHAINED, schema))
        engine.analyze_confluence()
        engine.add_priority("react", "other")
        analysis = engine.analyze_confluence()
        truth = fresh_ground_truth(
            CHAINED, schema, priorities=[("react", "other")]
        )
        assert confluence_dict(analysis) == confluence_dict(truth)


class TestRuleEditInvalidation:
    def test_edit_invalidates_only_pairs_touching_the_rule(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(CLUSTERED, schema))
        analyzer.analyze_confluence()
        judged = analyzer.engine.stats.pairs_judged

        edited = CLUSTERED.replace(
            "create rule c on t when inserted then update u set w = 2",
            "create rule c on t when inserted then update u set w = 5",
        )
        changed = analyzer.replace_ruleset(RuleSet.parse(edited, schema))
        assert changed == frozenset({"c"})

        analysis = analyzer.analyze_confluence()
        # Only the four pairs involving c are re-judged.
        assert analyzer.engine.stats.pairs_judged == judged + 4
        truth = fresh_ground_truth(edited, schema)
        assert confluence_dict(analysis) == confluence_dict(truth)

    def test_edit_changing_triggers_adjacency_is_not_served_stale(
        self, schema
    ):
        analyzer = RuleAnalyzer(RuleSet.parse(CHAINED, schema))
        analyzer.analyze_confluence()
        # Make feed insert into z instead: react is no longer triggered
        # by feed, and feed now conflicts with other.
        edited = CHAINED.replace(
            "create rule feed on t when inserted then insert into u values (1, 1)",
            "create rule feed on t when inserted then insert into z values (1, 1)",
        )
        analyzer.replace_ruleset(RuleSet.parse(edited, schema))
        analysis = analyzer.analyze_confluence()
        truth = fresh_ground_truth(edited, schema)
        assert confluence_dict(analysis) == confluence_dict(truth)

    def test_adding_a_rule_starts_the_pair_memo_cold(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(CLUSTERED, schema))
        analyzer.analyze_confluence()
        extended = CLUSTERED + (
            "\ncreate rule w2 on t when inserted then update z set q = 2\n"
        )
        changed = analyzer.replace_ruleset(RuleSet.parse(extended, schema))
        assert changed == frozenset({"w2"})
        analysis = analyzer.analyze_confluence()
        truth = fresh_ground_truth(extended, schema)
        assert confluence_dict(analysis) == confluence_dict(truth)

    def test_certifications_survive_unrelated_edits(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(CLUSTERED, schema))
        analyzer.certify_commutes("a", "b")
        edited = CLUSTERED.replace("set q = 1", "set q = 3")
        analyzer.replace_ruleset(RuleSet.parse(edited, schema))
        analysis = analyzer.analyze_confluence()
        truth = fresh_ground_truth(
            edited, schema, certified=[("a", "b")]
        )
        assert confluence_dict(analysis) == confluence_dict(truth)


class TestRestrictedThreading:
    SOURCE = """
    create rule a on t when inserted then update u set w = 0
    create rule b on t when inserted then update u set w = 1
    create rule island on z when inserted then update z set q = 0
    """

    def test_restricted_session_inherits_certifications(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(self.SOURCE, schema))
        analyzer.certify_commutes("a", "b")
        restricted = analyzer.analyze_restricted([TriggerEvent.insert("t")])
        assert restricted.confluent
        assert restricted.confluence.universe == frozenset({"a", "b"})

    def test_restricted_session_inherits_priorities(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(self.SOURCE, schema))
        analyzer.add_priority("a", "b")
        restricted = analyzer.analyze_restricted([TriggerEvent.insert("t")])
        assert restricted.confluent

    def test_restricted_session_reuses_lemma_memo(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(self.SOURCE, schema))
        analyzer.analyze_confluence()
        judgments = analyzer.engine.stats.lemma_judgments
        hits = analyzer.engine.stats.lemma_memo_hits
        analyzer.analyze_restricted([TriggerEvent.insert("t")])
        # The (a, b) raw judgment is shared, not recomputed: stats are
        # shared with the sub-engine, so hits grow while judgments don't.
        assert analyzer.engine.stats.lemma_judgments == judgments
        assert analyzer.engine.stats.lemma_memo_hits > hits

    def test_restricted_session_certifications_stay_local(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(self.SOURCE, schema))
        session = analyzer.restricted_session([TriggerEvent.insert("t")])
        session.certify_commutes("a", "b")
        assert session.analyze_confluence().requirement_holds
        assert not analyzer.analyze_confluence().requirement_holds


class TestReportRoundTrip:
    SOURCE = """
    create rule wa on t when inserted then update u set w = 0
    create rule wb on t when inserted then update u set w = 1
    create rule watch on t when inserted then select * from u
    create rule loop on z when inserted, updated(q)
    then update z set q = 0 where q < 0
    """

    def test_round_trip_preserves_everything(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(self.SOURCE, schema))
        report = analyzer.analyze(tables=[["u"], ["z"]])
        data = report.to_dict()
        restored = AnalysisReport.from_dict(data)
        assert restored.to_dict() == data
        assert restored.terminates == report.terminates
        assert restored.confluent == report.confluent
        assert (
            restored.observably_deterministic
            == report.observably_deterministic
        )
        assert set(restored.partial_confluence) == set(
            report.partial_confluence
        )

    def test_to_dict_is_json_serializable_and_stable(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(self.SOURCE, schema))
        report = analyzer.analyze()
        first = json.dumps(report.to_dict()["confluence"])
        second = json.dumps(analyzer.analyze().to_dict()["confluence"])
        assert first == second

    def test_verdicts_section_matches_properties(self, schema):
        analyzer = RuleAnalyzer(RuleSet.parse(self.SOURCE, schema))
        report = analyzer.analyze()
        verdicts = report.to_dict()["verdicts"]
        assert verdicts["terminates"] == report.terminates
        assert verdicts["confluent"] == report.confluent
        assert (
            verdicts["observably_deterministic"]
            == report.observably_deterministic
        )


class TestRepairLoopOnEngine:
    def test_repair_matches_seed_action_log(self, schema):
        # The memoized path must take the same actions and reach the
        # same final verdict as a cold engine (the seed behavior).
        from repro.workloads.applications import inventory_application

        app = inventory_application()
        warm = RuleAnalyzer(app.ruleset.subset(app.ruleset.names))
        warm_analysis, warm_actions = warm.repair_confluence()

        cold_engine = AnalysisEngine(
            app.ruleset.subset(app.ruleset.names), memoize=False
        )
        cold = RuleAnalyzer(cold_engine.ruleset, engine=cold_engine)
        cold_analysis, cold_actions = cold.repair_confluence()

        assert warm_actions == cold_actions
        assert confluence_dict(warm_analysis) == confluence_dict(
            cold_analysis
        )
        assert warm.engine.stats.pairs_judged < cold.engine.stats.pairs_judged
