"""Confluence analysis — Sections 6.3 and 6.4.

For every pair of *unordered* rules ``(ri, rj)``, Definition 6.5 builds
two mutually recursive sets ``R1 ∋ ri`` and ``R2 ∋ rj``::

    R1 ← {ri};  R2 ← {rj}
    repeat until unchanged:
        R1 ← R1 ∪ {r ∈ R | r ∈ Triggers(r1) for some r1 ∈ R1
                            and r > r2 ∈ P for some r2 ∈ R2 and r ≠ rj}
        R2 ← R2 ∪ {r ∈ R | r ∈ Triggers(r2) for some r2 ∈ R2
                            and r > r1 ∈ P for some r1 ∈ R1 and r ≠ ri}

The **Confluence Requirement** holds when every ``r1 ∈ R1`` commutes
with every ``r2 ∈ R2``, for every unordered pair. Theorem 6.7: the
requirement plus guaranteed termination implies confluence (exactly one
final state in every execution graph).

When the requirement fails, the analyzer reports each violation — the
unordered pair responsible, the noncommuting ``(r1, r2)`` witness and
its Lemma 6.1 reasons — and the Section 6.4 repair options: certify that
the witness pair actually commutes, or order the unordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.commutativity import (
    CommutativityAnalyzer,
    NoncommutativityReason,
)
from repro.analysis.derived import DerivedDefinitions
from repro.rules.priorities import PriorityRelation


def _interference_fixpoint(
    definitions: DerivedDefinitions,
    priorities: PriorityRelation,
    ri: str,
    rj: str,
    universe: frozenset[str],
) -> tuple[frozenset[str], frozenset[str], frozenset[str], int]:
    """The Definition 6.5 fixpoint, instrumented for memo dependency
    tracking.

    Returns ``(R1, R2, candidates, iterations)`` where *candidates* is
    every rule whose priority standing was queried while growing the
    sets (accepted or not) — together with the members themselves these
    are exactly the rules whose priority edges the result depends on.
    """
    r1: set[str] = {ri}
    r2: set[str] = {rj}
    examined: set[str] = set()
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        # R1 gains rules triggered from R1 that outrank something in R2.
        candidates1 = {
            candidate
            for member in r1
            for candidate in definitions.triggers(member)
            if candidate in universe and candidate != rj and candidate not in r1
        }
        examined |= candidates1
        for candidate in candidates1:
            if any(priorities.has_precedence(candidate, lower) for lower in r2):
                r1.add(candidate)
                changed = True
        candidates2 = {
            candidate
            for member in r2
            for candidate in definitions.triggers(member)
            if candidate in universe and candidate != ri and candidate not in r2
        }
        examined |= candidates2
        for candidate in candidates2:
            if any(priorities.has_precedence(candidate, lower) for lower in r1):
                r2.add(candidate)
                changed = True
    return frozenset(r1), frozenset(r2), frozenset(examined), iterations


def build_interference_sets(
    definitions: DerivedDefinitions,
    priorities: PriorityRelation,
    ri: str,
    rj: str,
    universe: frozenset[str] | None = None,
) -> tuple[frozenset[str], frozenset[str]]:
    """The ``(R1, R2)`` fixpoint of Definition 6.5 for unordered ``(ri, rj)``.

    ``universe`` restricts the rule set considered (used when analyzing a
    subset such as ``Sig(T')``); defaults to all rules.
    """
    ri = ri.lower()
    rj = rj.lower()
    if universe is None:
        universe = frozenset(definitions.rule_names)
    r1, r2, __, __ = _interference_fixpoint(
        definitions, priorities, ri, rj, universe
    )
    return r1, r2


@dataclass(frozen=True)
class ConfluenceViolation:
    """One failure of the Confluence Requirement.

    The unordered pair ``(pair_first, pair_second)`` generated sets R1
    and R2 containing the noncommuting witness ``(r1, r2)``.
    """

    pair_first: str
    pair_second: str
    r1_member: str
    r2_member: str
    r1_set: frozenset[str]
    r2_set: frozenset[str]
    reasons: tuple[NoncommutativityReason, ...]

    @property
    def is_direct(self) -> bool:
        """True when the witness is the unordered pair itself — the
        paper's 'most common case' (cf. Corollary 6.8)."""
        return {self.r1_member, self.r2_member} == {
            self.pair_first,
            self.pair_second,
        }

    def describe(self) -> str:
        why = "; ".join(str(reason) for reason in self.reasons)
        return (
            f"unordered pair ({self.pair_first}, {self.pair_second}): "
            f"{self.r1_member} and {self.r2_member} may not commute ({why})"
        )


@dataclass(frozen=True)
class RepairSuggestion:
    """A Section 6.4 repair option for one violation.

    ``kind`` is ``"certify"`` (declare the witness pair commutative — the
    best option when valid) or ``"order"`` (add a priority between the
    unordered pair; note this may surface new violations — the
    'non-confluence moves around' phenomenon).
    """

    kind: str
    first: str
    second: str

    def describe(self) -> str:
        if self.kind == "certify":
            return (
                f"certify that rules {self.first!r} and {self.second!r} "
                "actually commute"
            )
        return (
            f"add a priority ordering between rules {self.first!r} and "
            f"{self.second!r}"
        )


@dataclass
class ConfluenceAnalysis:
    """The outcome of confluence analysis over one rule (sub)set."""

    #: True iff the Confluence Requirement holds for every unordered pair.
    requirement_holds: bool
    #: violations, one per (unordered pair, noncommuting witness)
    violations: list[ConfluenceViolation] = field(default_factory=list)
    #: number of unordered pairs examined
    pairs_examined: int = 0
    #: the rule names analyzed
    universe: frozenset[str] = frozenset()

    def confluent(self, termination_guaranteed: bool) -> bool:
        """Theorem 6.7: requirement + termination ⇒ confluence."""
        return self.requirement_holds and termination_guaranteed

    def responsible_pairs(self) -> list[tuple[str, str]]:
        seen: list[tuple[str, str]] = []
        for violation in self.violations:
            pair = (violation.pair_first, violation.pair_second)
            if pair not in seen:
                seen.append(pair)
        return seen

    def suggestions(self) -> list[RepairSuggestion]:
        """Repair options per Section 6.4 (approach 3 — removing
        priorities — is 'non-intuitive and in fact useless', so it is
        never suggested)."""
        suggestions: list[RepairSuggestion] = []
        seen: set[tuple[str, str, str]] = set()
        for violation in self.violations:
            certify_key = (
                "certify",
                *sorted((violation.r1_member, violation.r2_member)),
            )
            if certify_key not in seen:
                seen.add(certify_key)
                suggestions.append(
                    RepairSuggestion(
                        "certify", violation.r1_member, violation.r2_member
                    )
                )
            order_key = (
                "order",
                *sorted((violation.pair_first, violation.pair_second)),
            )
            if order_key not in seen:
                seen.add(order_key)
                suggestions.append(
                    RepairSuggestion(
                        "order", violation.pair_first, violation.pair_second
                    )
                )
        return suggestions

    def describe(self) -> str:
        if self.requirement_holds:
            return (
                f"confluence requirement holds "
                f"({self.pairs_examined} unordered pairs checked)"
            )
        pairs = ", ".join(
            f"({first}, {second})" for first, second in self.responsible_pairs()
        )
        return (
            f"may not be confluent: {len(self.violations)} violations "
            f"from unordered pairs {pairs}"
        )


@dataclass(frozen=True)
class PairJudgment:
    """The confluence verdict for one unordered pair, with the
    dependency footprint the engine's memo invalidation needs.

    ``members`` is ``R1 ∪ R2`` — the rules whose pairwise commutativity
    (hence certifications) the verdict depends on. ``uppers`` adds every
    candidate whose priority standing was queried while building the
    fixpoint: the verdict can only change when a priority edge from a
    rule in ``uppers`` to a rule in ``members`` appears or disappears.
    """

    first: str
    second: str
    violations: tuple[ConfluenceViolation, ...]
    r1_set: frozenset[str]
    r2_set: frozenset[str]
    members: frozenset[str]
    uppers: frozenset[str]
    iterations: int


def judge_unordered_pair(
    definitions: DerivedDefinitions,
    priorities: PriorityRelation,
    commutativity: CommutativityAnalyzer,
    first: str,
    second: str,
    universe: frozenset[str],
) -> PairJudgment:
    """Definition 6.5 for one unordered pair: build ``(R1, R2)`` and
    check every cross member pair for commutativity."""
    r1_set, r2_set, candidates, iterations = _interference_fixpoint(
        definitions, priorities, first, second, universe
    )
    violations: list[ConfluenceViolation] = []
    for r1_member in sorted(r1_set):
        for r2_member in sorted(r2_set):
            if commutativity.commute(r1_member, r2_member):
                continue
            violations.append(
                ConfluenceViolation(
                    pair_first=first,
                    pair_second=second,
                    r1_member=r1_member,
                    r2_member=r2_member,
                    r1_set=r1_set,
                    r2_set=r2_set,
                    reasons=commutativity.noncommutativity_reasons(
                        r1_member, r2_member
                    ),
                )
            )
    members = r1_set | r2_set
    return PairJudgment(
        first=first,
        second=second,
        violations=tuple(violations),
        r1_set=r1_set,
        r2_set=r2_set,
        members=members,
        uppers=members | candidates,
        iterations=iterations,
    )


class ConfluenceAnalyzer:
    """Applies Definition 6.5 across all unordered pairs of a rule set.

    The memo-free reference path: it re-judges every pair on every call.
    :class:`repro.RuleAnalyzer` (through an
    :class:`~repro.analysis.engine.AnalysisEngine`) shares memoized pair
    verdicts across analyses instead.
    """

    def __init__(
        self,
        definitions: DerivedDefinitions,
        priorities: PriorityRelation,
        commutativity: CommutativityAnalyzer | None = None,
    ) -> None:
        self.definitions = definitions
        self.priorities = priorities
        self.commutativity = commutativity or CommutativityAnalyzer(definitions)

    def analyze(
        self, universe: frozenset[str] | None = None
    ) -> ConfluenceAnalysis:
        """Check the Confluence Requirement for every unordered pair in
        *universe* (default: the full rule set)."""
        if universe is None:
            universe = frozenset(self.definitions.rule_names)
        names = sorted(universe)
        violations: list[ConfluenceViolation] = []
        pairs_examined = 0

        for i, first in enumerate(names):
            for second in names[i + 1 :]:
                if not self.priorities.are_unordered(first, second):
                    continue
                pairs_examined += 1
                judgment = judge_unordered_pair(
                    self.definitions,
                    self.priorities,
                    self.commutativity,
                    first,
                    second,
                    universe,
                )
                violations.extend(judgment.violations)

        return ConfluenceAnalysis(
            requirement_holds=not violations,
            violations=violations,
            pairs_examined=pairs_examined,
            universe=frozenset(names),
        )
