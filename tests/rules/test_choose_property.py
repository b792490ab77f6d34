"""``Choose`` equals its definition on random priority DAGs.

``RuleSet.choose`` keeps a triggered rule iff the maintained inverse
closure above it (``PriorityRelation.above``) is disjoint from the
triggered set. The reference below is Section 3's definition read
literally: a triggered rule is eligible iff no *other* triggered rule
``o`` has ``(o, r) ∈ P``, with ``P`` taken from ``pairs()``. Each seed
interleaves ``add_priority`` (the incremental closure update),
``remove_priority`` (the ``_rebuild_closure`` path), deactivation,
``subset()`` and ``PriorityRelation.copy()`` with checks on random
mixed-case triggered sets.
"""

import random

import pytest

from repro.rules.priorities import PriorityRelation
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from tests.seeding import derive_seed

SEEDS = 40
OPERATIONS = 40


def reference_choose(ruleset: RuleSet, triggered) -> tuple[str, ...]:
    """Section 3's ``Choose(R')`` by brute force over ``P``'s pairs."""
    pairs = ruleset.priorities.pairs()
    chosen = {name.lower() for name in triggered}
    return tuple(
        name
        for name in ruleset.names
        if name in chosen
        and not any((other, name) in pairs for other in chosen if other != name)
    )


def random_case(rng: random.Random, name: str) -> str:
    return "".join(
        char.upper() if rng.random() < 0.5 else char for char in name
    )


def random_ruleset(rng: random.Random) -> tuple[RuleSet, list[str]]:
    """A rule set over a random DAG; returns it and a topological order
    (an edge ``higher > lower`` always goes forward in that order)."""
    schema = schema_from_spec({"t": ["id"], "u": ["id"]})
    count = rng.randint(2, 12)
    names = [f"Rule{index}x" for index in range(count)]
    order = names[:]
    rng.shuffle(order)
    sources = []
    for name in names:
        position = order.index(name)
        lower = [
            random_case(rng, other)
            for other in order[position + 1 :]
            if rng.random() < 0.2
        ]
        clause = f" precedes {', '.join(lower)}" if lower else ""
        sources.append(
            f"create rule {random_case(rng, name)} on t when inserted "
            f"then delete from u{clause}"
        )
    ruleset = RuleSet.parse("\n".join(sources), schema)
    return ruleset, [name.lower() for name in order]


def random_triggered(rng: random.Random, ruleset: RuleSet) -> list[str]:
    names = list(ruleset.names)
    picked = rng.sample(names, rng.randint(0, len(names)))
    return [random_case(rng, name) for name in picked]


def check(rng: random.Random, ruleset: RuleSet) -> None:
    for __ in range(3):
        triggered = random_triggered(rng, ruleset)
        assert ruleset.choose(triggered) == reference_choose(
            ruleset, triggered
        ), (triggered, sorted(ruleset.priorities.pairs()))


@pytest.mark.parametrize("seed", range(SEEDS))
def test_choose_equals_pairwise_definition(seed):
    rng = random.Random(derive_seed("choose-definition", seed))
    ruleset, order = random_ruleset(rng)
    check(rng, ruleset)
    for __ in range(OPERATIONS):
        move = rng.choice(
            ("add", "remove", "deactivate", "activate", "subset", "copy")
        )
        if move == "add" and len(order) > 1:
            first, second = sorted(rng.sample(range(len(order)), 2))
            ruleset.add_priority(
                random_case(rng, order[first]),
                random_case(rng, order[second]),
            )
        elif move == "remove":
            direct = sorted(ruleset.priorities.direct_pairs())
            if direct:
                higher, lower = rng.choice(direct)
                assert ruleset.remove_priority(
                    random_case(rng, higher), random_case(rng, lower)
                )
        elif move == "deactivate":
            # Choose ranges over whatever set it is given: deactivation
            # changes what the processor reports as triggered, not the
            # priority test itself.
            ruleset.deactivate(rng.choice(ruleset.names))
        elif move == "activate":
            ruleset.activate(rng.choice(ruleset.names))
        elif move == "subset":
            keep = rng.sample(
                list(ruleset.names), rng.randint(1, len(ruleset))
            )
            check(rng, ruleset.subset(keep))
        else:
            twin = ruleset.subset(ruleset.names)
            twin.priorities = ruleset.priorities.copy()
            frozen = twin.priorities.pairs()
            check(rng, twin)
            if len(order) > 1:
                # An edit to the original must not leak into the copy's
                # closure sets.
                first, second = sorted(rng.sample(range(len(order)), 2))
                ruleset.add_priority(order[first], order[second])
                assert twin.priorities.pairs() == frozen
                check(rng, twin)
        check(rng, ruleset)


class TestAboveAccessor:
    def test_above_is_the_inverse_closure(self):
        relation = PriorityRelation(["a", "b", "c"])
        relation.add_ordering("a", "b")
        relation.add_ordering("b", "c")
        assert relation.above("c") == {"a", "b"}
        assert relation.above("a") == set()
        relation.remove_ordering("a", "b")
        assert relation.above("c") == {"b"}

    def test_unknown_name_is_above_nothing(self):
        assert PriorityRelation(["a"]).above("ghost") == frozenset()
