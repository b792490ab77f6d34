"""Per-rule transitions hold only the rule's own table.

A rule triggers on, and reads transition tables of, its own table only,
so the processor folds nothing else into its pending transition. These
tests pin that the restriction is invisible: the pending transition is
exactly the own-table slice of the full log suffix, and the incremental
and from-scratch paths still agree step by step.
"""

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.rules.ruleset import RuleSet
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import schema_from_spec
from repro.transitions.net_effect import NetEffect

SCHEMA_SPEC = {"a": ["id", "v"], "b": ["id", "w"], "c": ["id", "w"]}

# ``copy_a`` outranks ``copy_b``, so a user transition writing both
# ``a`` and ``b`` leaves ``copy_b`` pending (triggered, not eligible)
# while ``copy_a`` runs and writes more of ``b``.
RULES = """
create rule copy_a on a when inserted
then insert into b (select id + 100, v from inserted)
precedes copy_b

create rule copy_b on b when inserted
then insert into c (select id, w from inserted)

create rule bump_c on c when inserted
if exists (select * from inserted where w > 1)
then update a set v = v + 1 where id = 1
"""

USER = (
    "insert into a values (1, 1), (2, 2)",
    "insert into b values (7, 7)",
    "update a set v = 9 where id = 2",
)


def make_processor(incremental: bool) -> RuleProcessor:
    schema = schema_from_spec(SCHEMA_SPEC)
    ruleset = RuleSet.parse(RULES, schema)
    return RuleProcessor(
        ruleset,
        Database(schema),
        config=ExecutionConfig(incremental=incremental),
    )


def own_table_slice(processor: RuleProcessor, rule) -> NetEffect:
    """The reference: fold the rule's whole suffix, all tables."""
    suffix = processor.log.since(processor.markers[rule.name])
    return NetEffect.from_primitives(suffix).table(rule.table)


def drive(processor: RuleProcessor) -> dict:
    """Step to quiescence, checking every rule's pending transition
    against the all-tables reference before each step."""
    for statement in USER:
        processor.execute_user(statement)
    considered = []
    while True:
        for rule in processor.ruleset:
            pending = processor.pending_net_effect(rule.name)
            assert set(pending.tables) <= {rule.table}, (rule.name, pending)
            assert pending.table(rule.table) == own_table_slice(
                processor, rule
            )
        eligible = processor.eligible_rules()
        if not eligible:
            break
        outcome = processor.consider(eligible[0], eligible=eligible)
        considered.append(
            (outcome.rule, outcome.condition_was_true, processor.state_key())
        )
    return {"considered": considered, "final": processor.database.canonical()}


class TestTableRestrictedFold:
    def test_pending_rule_on_other_table_holds_only_its_table(self):
        processor = make_processor(incremental=True)
        for statement in USER:
            processor.execute_user(statement)
        assert processor.triggered_rules() == ("copy_a", "copy_b")
        assert processor.eligible_rules() == ("copy_a",)
        pending = processor.pending_net_effect("copy_b")
        assert pending.tables == ("b",)
        assert list(pending.table("b").inserted.values()) == [(7, 7)]
        processor.consider("copy_a")
        pending = processor.pending_net_effect("COPY_B")
        assert pending.tables == ("b",)
        assert sorted(pending.table("b").inserted.values()) == [
            (7, 7),
            (101, 1),
            (102, 9),
        ]

    def test_folds_count_only_own_table_primitives(self):
        processor = make_processor(incremental=True)
        for statement in USER:
            processor.execute_user(statement)
        processor.triggered_rules()
        # copy_a folds its 2 inserts and 1 update on ``a``, copy_b its
        # 1 insert on ``b``; bump_c's table was never written.
        assert processor.stats.primitives_folded == 4

    @pytest.mark.parametrize("incremental", [True, False])
    def test_every_pending_transition_is_the_own_table_slice(
        self, incremental
    ):
        drive(make_processor(incremental))

    def test_incremental_and_from_scratch_agree(self):
        incremental = drive(make_processor(incremental=True))
        scratch = drive(make_processor(incremental=False))
        assert incremental == scratch
        # bump_c's update of ``a`` is folded into copy_a's transition
        # but does not re-trigger it (copy_a fires on inserts only).
        assert [rule for rule, *__ in incremental["considered"]] == [
            "copy_a",
            "copy_b",
            "bump_c",
        ]


class TestForkedVerdicts:
    def test_fork_folding_after_share_sees_its_own_columns(self):
        schema = schema_from_spec({"t": ["id", "a", "b"], "log_t": ["id"]})
        ruleset = RuleSet.parse(
            "create rule on_b on t when updated(b) "
            "then insert into log_t values (1)",
            schema,
        )
        database = Database(schema)
        database.load("t", [(1, 0, 0), (2, 0, 0)])
        parent = RuleProcessor(ruleset, database)
        parent.execute_user("update t set a = 1 where id = 1")
        # Memoizes the parent's updated columns ({a}) on its cached
        # transition, which the fork then shares.
        assert parent.triggered_rules() == ()
        child = parent.fork()
        child.execute_user("update t set b = 1 where id = 2")
        assert child.triggered_rules() == ("on_b",)
        assert parent.triggered_rules() == ()
