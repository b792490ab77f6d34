"""Observable determinism — Section 8, Theorem 8.1.

A rule set is observably deterministic when the order and appearance of
observable actions (selects and rollbacks, in Starburst) cannot depend
on which eligible rule is chosen first.

The analysis is a reduction to partial confluence: pretend a fictional
table ``Obs`` exists and that every observable rule timestamps and logs
its observable actions there. With the extended definitions
(``Reads`` ∪ ``{Obs.c}``, ``Performs`` ∪ ``{(I, Obs)}`` for observable
rules — :class:`~repro.analysis.derived.ObsExtendedDefinitions`),
confluence with respect to ``{Obs}`` forces a unique final Obs content,
hence a unique stream of observable actions.

Theorem 8.1's obligations:

1. the Confluence Requirement holds for the rules in ``Sig(Obs)``
   (under the extended definitions), and
2. there are no infinite paths in any execution graph for **R** (the
   full rule set — note: unlike Theorem 7.2, termination of the whole
   set is required here).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.confluence import ConfluenceAnalysis, ConfluenceAnalyzer
from repro.analysis.derived import OBS_TABLE, ObsExtendedDefinitions
from repro.analysis.partial_confluence import significant_rules
from repro.analysis.termination import TerminationAnalysis, TerminationAnalyzer
from repro.rules.priorities import PriorityRelation
from repro.rules.ruleset import RuleSet


@dataclass
class ObservableDeterminismAnalysis:
    """Theorem 8.1's obligations and the combined verdict."""

    #: rules whose actions may be observable
    observable_rules: frozenset[str]
    #: Sig(Obs) under the extended definitions
    significant: frozenset[str]
    #: termination of the FULL rule set (Theorem 8.1's second obligation)
    termination: TerminationAnalysis
    #: Confluence Requirement for Sig(Obs) under extended definitions
    confluence: ConfluenceAnalysis

    @property
    def observably_deterministic(self) -> bool:
        return self.confluence.requirement_holds and self.termination.guaranteed

    def describe(self) -> str:
        if not self.observable_rules:
            return "observably deterministic (no observable rules)"
        if self.observably_deterministic:
            return (
                "observably deterministic "
                f"(observable rules: {', '.join(sorted(self.observable_rules))})"
            )
        problems = []
        if not self.termination.guaranteed:
            problems.append("rule set may not terminate")
        if not self.confluence.requirement_holds:
            problems.append(
                f"{len(self.confluence.violations)} commutativity "
                "violations in Sig(Obs)"
            )
        return "may not be observably deterministic: " + "; ".join(problems)


class ObservableDeterminismAnalyzer:
    """Runs the Theorem 8.1 reduction.

    User certifications made on the supplied commutativity analyzer are
    carried over to the extended analysis (a certification that two
    rules commute on the real tables does not silence the Obs-induced
    noncommutativity between two observable rules, however — that pair
    stays noncommutative unless both obligations are met by ordering,
    per Corollary 8.2).

    Without an *engine* this is the memo-free reference path, which
    re-judges every pair on every call. When an *engine* is supplied,
    the extended definitions and commutativity analyzer are the
    engine's shared Obs view (with certifications already mirrored) and
    the confluence step over ``Sig(Obs)`` is served from the engine's
    memoized pair verdicts.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        priorities: PriorityRelation | None = None,
        termination_analyzer: TerminationAnalyzer | None = None,
        base_commutativity: CommutativityAnalyzer | None = None,
        *,
        engine=None,
    ) -> None:
        self.ruleset = ruleset
        self.priorities = priorities or ruleset.priorities
        self.engine = engine
        if engine is not None:
            self.extended = engine.obs_definitions
            self.commutativity = engine.obs_commutativity
        else:
            self.extended = ObsExtendedDefinitions(ruleset)
            self.commutativity = CommutativityAnalyzer(
                self.extended,
                refine=getattr(base_commutativity, "refine", False),
            )
            if base_commutativity is not None:
                observable = {
                    name
                    for name in self.extended.rule_names
                    if self.extended.observable(name)
                }
                for pair in base_commutativity.certified_pairs:
                    first, second = sorted(pair)
                    # Two observable rules are noncommutative *because of
                    # Obs* (both insert into it and read it); a user
                    # certification about the real tables cannot erase that.
                    if first in observable and second in observable:
                        continue
                    self.commutativity.certify_commutes(first, second)
        self.termination_analyzer = termination_analyzer or TerminationAnalyzer(
            self.extended
        )

    def analyze(self) -> ObservableDeterminismAnalysis:
        observable = frozenset(
            name
            for name in self.extended.rule_names
            if self.extended.observable(name)
        )
        significant = significant_rules(
            self.extended, self.commutativity, [OBS_TABLE]
        )
        termination = self.termination_analyzer.analyze()
        if self.engine is not None:
            confluence = self.engine.analyze_confluence(
                universe=significant, view="obs"
            )
        else:
            confluence = ConfluenceAnalyzer(
                self.extended, self.priorities, self.commutativity
            ).analyze(universe=significant)
        return ObservableDeterminismAnalysis(
            observable_rules=observable,
            significant=significant,
            termination=termination,
            confluence=confluence,
        )
