"""Net-effect composition tests — the four [WF90] rules plus properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rules.events import TriggerEvent
from repro.transitions.delta import DeltaLog
from repro.transitions.net_effect import NetEffect

COLUMNS = {"t": ("a", "b")}


def net(log: DeltaLog) -> NetEffect:
    return NetEffect.from_primitives(log.all())


class TestCompositionRules:
    def test_plain_insert(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1, 2))
        effect = net(log).table("t")
        assert effect.inserted == {1: (1, 2)}
        assert not effect.deleted and not effect.updated

    def test_insert_then_update_is_insert_of_updated(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1, 2))
        log.record_update("t", 1, (1, 2), (1, 9))
        effect = net(log).table("t")
        assert effect.inserted == {1: (1, 9)}
        assert not effect.updated

    def test_insert_then_delete_is_nothing(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1, 2))
        log.record_delete("t", 1, (1, 2))
        assert net(log).is_empty()

    def test_update_then_update_is_composite(self):
        log = DeltaLog()
        log.record_update("t", 1, (1, 2), (1, 5))
        log.record_update("t", 1, (1, 5), (1, 9))
        effect = net(log).table("t")
        assert effect.updated == {1: ((1, 2), (1, 9))}

    def test_update_then_delete_is_delete_of_original(self):
        log = DeltaLog()
        log.record_update("t", 1, (1, 2), (1, 5))
        log.record_delete("t", 1, (1, 5))
        effect = net(log).table("t")
        assert effect.deleted == {1: (1, 2)}
        assert not effect.updated

    def test_identity_composite_update_vanishes(self):
        log = DeltaLog()
        log.record_update("t", 1, (1, 2), (1, 9))
        log.record_update("t", 1, (1, 9), (1, 2))
        assert net(log).is_empty()

    def test_insert_update_delete_is_nothing(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1, 2))
        log.record_update("t", 1, (1, 2), (3, 4))
        log.record_delete("t", 1, (3, 4))
        assert net(log).is_empty()

    def test_independent_tuples_stay_separate(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1, 1))
        log.record_delete("t", 2, (2, 2))
        effect = net(log).table("t")
        assert effect.inserted == {1: (1, 1)}
        assert effect.deleted == {2: (2, 2)}


class TestOperations:
    def test_insert_and_delete_events(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1, 1))
        log.record_delete("t", 2, (2, 2))
        operations = net(log).operations(COLUMNS)
        assert TriggerEvent.insert("t") in operations
        assert TriggerEvent.delete("t") in operations

    def test_update_events_are_per_changed_column(self):
        log = DeltaLog()
        log.record_update("t", 1, (1, 2), (1, 9))  # only column b changed
        operations = net(log).operations(COLUMNS)
        assert operations == frozenset({TriggerEvent.update("t", "b")})

    def test_composite_identity_on_one_column(self):
        # a changes and changes back; b stays changed -> only (U, t.b).
        log = DeltaLog()
        log.record_update("t", 1, (1, 2), (5, 9))
        log.record_update("t", 1, (5, 9), (1, 9))
        operations = net(log).operations(COLUMNS)
        assert operations == frozenset({TriggerEvent.update("t", "b")})

    def test_empty_net_effect_has_no_operations(self):
        assert NetEffect.from_primitives([]).operations(COLUMNS) == frozenset()


class TestUpdatedColumnsMemo:
    """``updated_columns`` is memoized next to ``canonical`` and must be
    invalidated by every fold that touches the table."""

    def test_revert_of_one_column_drops_it(self):
        log = DeltaLog()
        log.record_update("t", 1, (1, 2), (3, 5))
        first = net(log)
        assert first.table("t").updated_columns(COLUMNS["t"]) == {"a", "b"}
        log.record_update("t", 1, (3, 5), (1, 5))
        second = first.fold(log.since(1))
        assert second.table("t").updated_columns(COLUMNS["t"]) == {"b"}

    def test_identity_compaction_drops_the_column(self):
        log = DeltaLog()
        log.record_insert("t", 2, (7, 7))
        log.record_update("t", 1, (1, 2), (1, 5))
        first = net(log)
        assert first.table("t").updated_columns(COLUMNS["t"]) == {"b"}
        log.record_update("t", 1, (1, 5), (1, 2))
        second = first.fold(log.since(2))
        effect = second.table("t")
        assert effect.inserted == {2: (7, 7)}
        assert not effect.updated
        assert effect.updated_columns(COLUMNS["t"]) == frozenset()
        assert second.operations(COLUMNS) == frozenset(
            {TriggerEvent.insert("t")}
        )

    def test_fork_after_share_does_not_see_parent_memo(self):
        log = DeltaLog()
        log.record_update("t", 1, (1, 2), (5, 2))
        parent = net(log)
        assert parent.table("t").updated_columns(COLUMNS["t"]) == {"a"}
        child = parent.share().fold(
            [log.record_update("t", 2, (3, 4), (3, 9))]
        )
        assert child.table("t").updated_columns(COLUMNS["t"]) == {"a", "b"}
        # The fold copied the shared table effect; the parent's own
        # memo still describes the parent's (unchanged) data.
        assert parent.table("t").updated_columns(COLUMNS["t"]) == {"a"}
        assert parent.table("t").updated == {1: ((1, 2), (5, 2))}


class TestCanonical:
    def test_canonical_ignores_tids(self):
        first = DeltaLog()
        first.record_insert("t", 1, (1, 1))
        second = DeltaLog()
        second.record_insert("t", 99, (1, 1))
        assert net(first).canonical() == net(second).canonical()

    def test_canonical_distinguishes_kinds(self):
        ins = DeltaLog()
        ins.record_insert("t", 1, (1, 1))
        del_ = DeltaLog()
        del_.record_delete("t", 1, (1, 1))
        assert net(ins).canonical() != net(del_).canonical()

    def test_canonical_hashable(self):
        log = DeltaLog()
        log.record_update("t", 1, (1, 2), (3, 4))
        hash(net(log).canonical())


# ----------------------------------------------------------------------
# Property: composing the full history equals composing net effects of
# any split of the history (net-effect composition is associative).
# ----------------------------------------------------------------------


@st.composite
def primitive_histories(draw):
    """Random well-formed primitive sequences over one table, built by
    simulating live tuples so shapes stay legal."""
    log = DeltaLog()
    live: dict[int, tuple] = {}
    next_tid = 1
    steps = draw(st.integers(min_value=0, max_value=12))
    for __ in range(steps):
        choices = ["insert"]
        if live:
            choices += ["update", "delete"]
        action = draw(st.sampled_from(choices))
        if action == "insert":
            values = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
            log.record_insert("t", next_tid, values)
            live[next_tid] = values
            next_tid += 1
        elif action == "update":
            tid = draw(st.sampled_from(sorted(live)))
            new = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
            log.record_update("t", tid, live[tid], new)
            live[tid] = new
        else:
            tid = draw(st.sampled_from(sorted(live)))
            log.record_delete("t", tid, live.pop(tid))
    return log.all()


def _net_effect_as_primitives(effect_log: list) -> list:
    """Render a net effect back into an equivalent primitive sequence."""
    effect = NetEffect.from_primitives(effect_log)
    log = DeltaLog()
    for table in effect.tables:
        table_effect = effect.table(table)
        for tid in sorted(table_effect.deleted):
            log.record_delete(table, tid, table_effect.deleted[tid])
        for tid in sorted(table_effect.updated):
            old, new = table_effect.updated[tid]
            log.record_update(table, tid, old, new)
        for tid in sorted(table_effect.inserted):
            log.record_insert(table, tid, table_effect.inserted[tid])
    return log.all()


@given(primitive_histories(), st.integers(min_value=0, max_value=12))
@settings(max_examples=200, deadline=None)
def test_prefix_compression_preserves_net_effect(history, split_raw):
    """Replacing a prefix by its own net effect leaves the overall net
    effect unchanged — net-effect composition is associative."""
    split = min(split_raw, len(history))
    full = NetEffect.from_primitives(history)
    compressed_prefix = _net_effect_as_primitives(history[:split])
    recombined = NetEffect.from_primitives(
        compressed_prefix + history[split:]
    )
    assert full.canonical() == recombined.canonical()


@given(primitive_histories())
@settings(max_examples=200, deadline=None)
def test_net_effect_maps_are_disjoint(history):
    effect = NetEffect.from_primitives(history)
    for table in effect.tables:
        table_effect = effect.table(table)
        inserted = set(table_effect.inserted)
        deleted = set(table_effect.deleted)
        updated = set(table_effect.updated)
        assert not (inserted & deleted)
        assert not (inserted & updated)
        assert not (deleted & updated)
        # no identity updates survive
        for old, new in table_effect.updated.values():
            assert old != new


@given(primitive_histories())
@settings(max_examples=200, deadline=None)
def test_replaying_net_effect_reaches_same_final_state(history):
    """Applying the net effect to the initial state must give the same
    final state as applying the raw history (the heart of [WF90])."""
    # Reconstruct initial and final states from the history.
    initial: dict[int, tuple] = {}
    state: dict[int, tuple] = {}
    for primitive in history:
        if primitive.kind == "I":
            state[primitive.tid] = primitive.new
        elif primitive.kind == "U":
            if primitive.tid not in state and primitive.tid not in initial:
                initial[primitive.tid] = primitive.old
                state[primitive.tid] = primitive.old
            state[primitive.tid] = primitive.new
        else:
            if primitive.tid not in state and primitive.tid not in initial:
                initial[primitive.tid] = primitive.old
                state[primitive.tid] = primitive.old
            del state[primitive.tid]

    effect = NetEffect.from_primitives(history).table("t")
    replayed = dict(initial)
    for tid, values in effect.inserted.items():
        replayed[tid] = values
    for tid in effect.deleted:
        replayed.pop(tid, None)
    for tid, (__, new) in effect.updated.items():
        replayed[tid] = new
    assert replayed == state
