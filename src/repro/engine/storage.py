"""Tuple storage for one table.

Every stored tuple carries a surrogate *tuple id* (tid), unique across
the whole database for its lifetime. Tids let the transition machinery
of :mod:`repro.transitions` track the history of an individual tuple
across multiple operations, which is what the net-effect composition
rules of [WF90] are defined over.

Copy-on-write. :meth:`TableData.copy` aliases the tid map and marks
both sides shared; the first mutation on either side copies the map
once. The execution-graph explorer forks the whole database at every
branch, so snapshots are O(tables) and only tables a branch actually
writes ever pay the O(rows) copy. The canonical form and the sorted
row list are memoized with write-invalidated dirty bits — and both
caches survive a copy, so a fork that never writes a table re-uses its
parent's sort work.

Equality indexes are maintained *incrementally* under all three
primitive operations: inserts append to their bucket (bisecting only
when a tid arrives out of order, e.g. during WAL replay), deletes
bisect the bucket's parallel tid list and splice both lists, and
updates either patch the row in place (key unchanged) or move it
between buckets at its tid position. Buckets therefore stay in tid
order — the property the planned executor's byte-identical-results
guarantee rests on — without the old drop-everything invalidation that
forced an O(rows) rebuild after every DELETE/UPDATE statement.
``PlannerStats.index_maintains`` counts these incremental advances
against ``index_builds`` (full rebuilds). The first write after a
copy-on-write fork clones the index structures instead of dropping
them: a dict/list copy is far cheaper than re-deriving the same index
with per-row key extraction.

Sharding. :meth:`TableData.shard` hash-partitions the tid map into P
shards on a declared key column (:func:`repro.engine.partition.stable_shard`),
each shard with its own tid-ordered row memo and its own equality-index
cache. The flat ``_rows`` map stays authoritative — every existing
caller sees the exact same table — while partition-aware paths
(:mod:`repro.engine.dml` target scans, :mod:`repro.engine.plan`
const probes) read single shards: an equality conjunct on the
partition key prunes a scan to one shard, and shard-local index caches
survive writes to the *other* shards' rows.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.engine.partition import stable_shard
from repro.engine.values import row_sort_key, sort_key
from repro.errors import ExecutionError

_PLAN_STATS = None


def _plan_stats():
    """The planner's counter bag (lazy import: plan imports the engine
    stack that imports this module)."""
    global _PLAN_STATS
    if _PLAN_STATS is None:
        from repro.engine.plan import STATS

        _PLAN_STATS = STATS
    return _PLAN_STATS


class Row:
    """A stored tuple: its tid and its column values (schema order)."""

    __slots__ = ("tid", "values")

    def __init__(self, tid: int, values: tuple) -> None:
        self.tid = tid
        self.values = values

    def value(self, index: int):
        return self.values[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.tid == other.tid and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.tid, self.values))

    def __repr__(self) -> str:
        return f"Row(tid={self.tid}, values={self.values!r})"


def index_key(values: tuple, cols: tuple[int, ...]) -> tuple | None:
    """The sort_key-wrapped index key of *values* at *cols* (None when
    any key column is NULL — NULL never compares equal)."""
    key = []
    for col in cols:
        value = values[col]
        if value is None:
            return None
        key.append(sort_key(value))
    return tuple(key)


class _EqualityIndexes:
    """The equality indexes over one row population (a table or shard).

    ``buckets[cols][key]`` is the value-tuple list consumers iterate
    (tid order); ``tids[cols][key]`` is the parallel tid list that makes
    deletes and updates O(log bucket) splices instead of full rebuilds.
    """

    __slots__ = ("buckets", "tids")

    def __init__(self) -> None:
        self.buckets: dict[tuple[int, ...], dict] = {}
        self.tids: dict[tuple[int, ...], dict] = {}

    def __bool__(self) -> bool:
        return bool(self.buckets)

    def build(self, cols: tuple[int, ...], rows: list[Row]) -> dict:
        bucket: dict = {}
        tids: dict = {}
        for row in rows:
            key = index_key(row.values, cols)
            if key is not None:
                bucket.setdefault(key, []).append(row.values)
                tids.setdefault(key, []).append(row.tid)
        # Publish tids before buckets: concurrent readers (parallel
        # batch forks sharing this structure copy-on-write) key on
        # ``buckets``, so any cols visible there has its tid list too.
        self.tids[cols] = tids
        self.buckets[cols] = bucket
        _plan_stats().index_builds += 1
        return bucket

    def insert(self, tid: int, values: tuple) -> None:
        stats = _plan_stats()
        for cols, bucket in self.buckets.items():
            key = index_key(values, cols)
            if key is None:
                continue
            tid_list = self.tids[cols].setdefault(key, [])
            row_list = bucket.setdefault(key, [])
            if not tid_list or tid > tid_list[-1]:
                tid_list.append(tid)
                row_list.append(values)
            else:
                # Out-of-order tid (WAL replay, hand-built fixtures):
                # splice at the tid position to preserve bucket order.
                at = bisect_left(tid_list, tid)
                tid_list.insert(at, tid)
                row_list.insert(at, values)
            stats.index_maintains += 1

    def delete(self, tid: int, values: tuple) -> None:
        stats = _plan_stats()
        for cols, bucket in self.buckets.items():
            key = index_key(values, cols)
            if key is None:
                continue
            tid_list = self.tids[cols].get(key)
            if not tid_list:
                continue
            at = bisect_left(tid_list, tid)
            if at < len(tid_list) and tid_list[at] == tid:
                del tid_list[at]
                del bucket[key][at]
                if not tid_list:
                    del self.tids[cols][key]
                    del bucket[key]
            stats.index_maintains += 1

    def update(self, tid: int, old: tuple, new: tuple) -> None:
        stats = _plan_stats()
        for cols, bucket in self.buckets.items():
            old_key = index_key(old, cols)
            new_key = index_key(new, cols)
            if old_key == new_key:
                if old_key is not None:
                    tid_list = self.tids[cols][old_key]
                    at = bisect_left(tid_list, tid)
                    bucket[old_key][at] = new
                stats.index_maintains += 1
                continue
            if old_key is not None:
                tid_list = self.tids[cols][old_key]
                at = bisect_left(tid_list, tid)
                del tid_list[at]
                del bucket[old_key][at]
                if not tid_list:
                    del self.tids[cols][old_key]
                    del bucket[old_key]
            if new_key is not None:
                tid_list = self.tids[cols].setdefault(new_key, [])
                at = bisect_left(tid_list, tid)
                tid_list.insert(at, tid)
                bucket.setdefault(new_key, []).insert(at, new)
            stats.index_maintains += 1

    def copy(self) -> "_EqualityIndexes":
        """A structurally independent copy (the first-write-after-fork
        path: cheaper than rebuilding, safe to maintain in place)."""
        clone = _EqualityIndexes()
        clone.buckets = {
            cols: {key: list(rows) for key, rows in bucket.items()}
            for cols, bucket in self.buckets.items()
        }
        clone.tids = {
            cols: {key: list(tids) for key, tids in bucket.items()}
            for cols, bucket in self.tids.items()
        }
        return clone


class TableData:
    """The extension of one table: a tid-keyed map of value tuples."""

    __slots__ = (
        "name",
        "arity",
        "_rows",
        "_shared",
        "_canonical",
        "_row_list",
        "_values_list",
        "_indexes",
        "_partition",
        "_shards",
        "_shard_rows",
        "_shard_indexes",
    )

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity
        self._rows: dict[int, tuple] = {}
        #: True while ``_rows`` is aliased by another TableData (copy-on-write)
        self._shared = False
        #: memoized canonical() — None when dirty
        self._canonical: tuple | None = None
        #: memoized rows() result (tid order) — None when dirty
        self._row_list: list[Row] | None = None
        #: memoized value_tuples() result (tid order) — None when dirty
        self._values_list: list[tuple] | None = None
        #: equality indexes, maintained incrementally under writes.
        #: Shared with copy-on-write clones; the first write on either
        #: side deep-copies the structure (see :meth:`_own`).
        self._indexes = _EqualityIndexes()
        #: (key column index, shard count) when hash-partitioned
        self._partition: tuple[int, int] | None = None
        #: per-shard tid maps mirroring ``_rows`` (None when flat)
        self._shards: list[dict[int, tuple]] | None = None
        #: per-shard memoized tid-ordered Row lists (entries None when dirty)
        self._shard_rows: list[list[Row] | None] | None = None
        #: per-shard equality-index caches
        self._shard_indexes: list[_EqualityIndexes] | None = None

    def _own(self) -> None:
        if self._shared:
            self._rows = dict(self._rows)
            self._shared = False
            # The index and shard structures may be aliased by the other
            # side of the share; clone them (cheaper than the rebuild the
            # old drop-on-write discipline forced) before mutating.
            self._indexes = self._indexes.copy()
            if self._shards is not None:
                self._shards = [dict(shard) for shard in self._shards]
                self._shard_rows = list(self._shard_rows)
                self._shard_indexes = [
                    indexes.copy() for indexes in self._shard_indexes
                ]

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """How many shards this table is hash-partitioned into (0 = flat)."""
        return self._partition[1] if self._partition is not None else 0

    @property
    def partition_column(self) -> int | None:
        """The partition-key column index, or None when flat."""
        return self._partition[0] if self._partition is not None else None

    def shard(self, column: int, count: int) -> None:
        """Hash-partition the table into *count* shards on *column*.

        Builds fresh shard structures from the current rows (O(rows),
        paid once per session); the flat tid map stays authoritative so
        every non-partition-aware caller is unaffected. Safe on a
        shared (copy-on-write) table: nothing aliased is mutated.
        """
        if not 0 <= column < self.arity:
            raise ExecutionError(
                f"table {self.name!r} has no column index {column}"
            )
        if count < 1:
            raise ExecutionError(f"shard count must be >= 1, got {count}")
        shards: list[dict[int, tuple]] = [{} for __ in range(count)]
        for tid, values in self._rows.items():
            shards[stable_shard(values[column], count)][tid] = values
        self._partition = (column, count)
        self._shards = shards
        self._shard_rows = [None] * count
        self._shard_indexes = [_EqualityIndexes() for __ in range(count)]

    def shard_of_value(self, value) -> int:
        """The shard a partition-key *value* hashes to."""
        if self._partition is None:
            raise ExecutionError(f"table {self.name!r} is not partitioned")
        return stable_shard(value, self._partition[1])

    def shard_rows(self, shard: int) -> list[Row]:
        """One shard's rows, in tid order (memoized like :meth:`rows`).

        The returned list is cached and shared; callers must not
        mutate it.
        """
        rows = self._shard_rows[shard]
        if rows is None:
            source = self._shards[shard]
            rows = [Row(tid, source[tid]) for tid in sorted(source)]
            self._shard_rows[shard] = rows
        return rows

    def shard_equality_index(self, shard: int, cols: tuple[int, ...]) -> dict:
        """One shard's hash index over *cols* (shard-local memo).

        Same contract as :meth:`equality_index`, restricted to the
        shard's rows. Because every row with a given partition-key value
        lives in one shard, probing this index with a key that pins the
        partition column returns exactly the global index's bucket —
        while surviving writes to every other shard.
        """
        indexes = self._shard_indexes[shard]
        index = indexes.buckets.get(cols)
        if index is None:
            index = indexes.build(cols, self.shard_rows(shard))
        return index

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, tid: int, values: tuple) -> None:
        if len(values) != self.arity:
            raise ExecutionError(
                f"table {self.name!r} expects {self.arity} values, "
                f"got {len(values)}"
            )
        if tid in self._rows:
            raise ExecutionError(f"duplicate tid {tid} in table {self.name!r}")
        self._own()
        self._rows[tid] = values
        self._canonical = None
        self._row_list = None
        self._values_list = None
        self._indexes.insert(tid, values)
        if self._shards is not None:
            shard = stable_shard(values[self._partition[0]], self._partition[1])
            self._shards[shard][tid] = values
            self._shard_rows[shard] = None
            self._shard_indexes[shard].insert(tid, values)

    def delete(self, tid: int) -> tuple:
        if tid not in self._rows:
            raise ExecutionError(f"no tid {tid} in table {self.name!r}")
        self._own()
        self._canonical = None
        self._row_list = None
        self._values_list = None
        old = self._rows.pop(tid)
        self._indexes.delete(tid, old)
        if self._shards is not None:
            shard = stable_shard(old[self._partition[0]], self._partition[1])
            del self._shards[shard][tid]
            self._shard_rows[shard] = None
            self._shard_indexes[shard].delete(tid, old)
        return old

    def update(self, tid: int, values: tuple) -> tuple:
        """Replace the values at *tid*; returns the old values."""
        if tid not in self._rows:
            raise ExecutionError(f"no tid {tid} in table {self.name!r}")
        if len(values) != self.arity:
            raise ExecutionError(
                f"table {self.name!r} expects {self.arity} values, "
                f"got {len(values)}"
            )
        self._own()
        old = self._rows[tid]
        self._rows[tid] = values
        self._canonical = None
        self._row_list = None
        self._values_list = None
        self._indexes.update(tid, old, values)
        if self._shards is not None:
            column, count = self._partition
            old_shard = stable_shard(old[column], count)
            new_shard = stable_shard(values[column], count)
            if old_shard == new_shard:
                self._shards[old_shard][tid] = values
                self._shard_rows[old_shard] = None
                self._shard_indexes[old_shard].update(tid, old, values)
            else:
                del self._shards[old_shard][tid]
                self._shards[new_shard][tid] = values
                self._shard_rows[old_shard] = None
                self._shard_rows[new_shard] = None
                self._shard_indexes[old_shard].delete(tid, old)
                self._shard_indexes[new_shard].insert(tid, values)
        return old

    def get(self, tid: int) -> tuple | None:
        return self._rows.get(tid)

    def rows(self) -> list[Row]:
        """All rows, in tid order (deterministic iteration).

        The returned list is cached and shared; callers must not
        mutate it.
        """
        if self._row_list is None:
            rows = self._rows
            self._row_list = [Row(tid, rows[tid]) for tid in sorted(rows)]
        return self._row_list

    def value_tuples(self) -> list[tuple]:
        """All value tuples, in tid order.

        The returned list is cached and shared (like :meth:`rows`);
        callers must not mutate it.
        """
        if self._values_list is None:
            self._values_list = [row.values for row in self.rows()]
        return self._values_list

    def equality_index(self, cols: tuple[int, ...]) -> dict:
        """A hash index over the columns at indexes *cols*.

        Maps :func:`~repro.engine.values.sort_key`-wrapped key tuples to
        value-tuple buckets in tid order; rows with a NULL key column are
        excluded (NULL never compares equal). The index is memoized like
        :meth:`canonical`: it survives copy-on-write :meth:`copy` forks
        and advances incrementally under inserts, deletes *and* updates
        (``PlannerStats.index_maintains``); only the first probe pays
        the O(rows) build (``index_builds``). Callers must not mutate
        the returned dict or its buckets.
        """
        index = self._indexes.buckets.get(cols)
        if index is None:
            index = self._indexes.build(cols, self.rows())
        return index

    def items(self) -> list[tuple[int, tuple]]:
        """All (tid, values) pairs in tid order.

        The WAL checkpoint frame serializes exactly this — tids
        included, so a recovered table is identical at tuple-identity
        granularity, not just canonically. Reuses the :meth:`rows`
        memo rather than re-sorting the tid map.
        """
        return [(row.tid, row.values) for row in self.rows()]

    def apply_effect(self, effect) -> None:
        """Apply a :class:`~repro.transitions.net_effect.TableNetEffect`.

        The three maps of a net effect are disjoint over tids (deletes
        and updates reference pre-transition tids, inserts allocate new
        ones), so the application order — deletes, updates, inserts —
        is the unique sequential order consistent with any primitive
        sequence that folds to *effect*. WAL recovery replays each
        committed transaction this way: the log records raw
        :class:`~repro.transitions.delta.Primitive` frames, and replay
        is ``NetEffect.fold`` over them followed by this application.
        """
        for tid in effect.deleted:
            self.delete(tid)
        for tid, (__, new) in effect.updated.items():
            self.update(tid, new)
        for tid, values in effect.inserted.items():
            self.insert(tid, values)

    def canonical(self) -> tuple:
        """The table's contents as a sorted bag of value tuples.

        Tids are deliberately excluded: two database states are "the
        same" (for execution-graph state identity and for confluence
        checking) when they hold the same bags of tuples, regardless of
        internal surrogate ids.
        """
        if self._canonical is None:
            self._canonical = tuple(
                sorted(self._rows.values(), key=row_sort_key)
            )
        return self._canonical

    def copy(self, cow: bool = True) -> "TableData":
        """A copy of this table's extension.

        With ``cow`` (the default) the tid map is aliased and both
        sides marked shared — O(1), the first write on either side pays
        the O(rows) copy. ``cow=False`` copies eagerly (the seed
        behavior, kept for benchmarking the non-incremental substrate).
        The partition layout (shards, shard memos, shard index caches)
        rides along under the same discipline.
        """
        clone = TableData(self.name, self.arity)
        if cow:
            self._shared = True
            clone._rows = self._rows
            clone._shared = True
            clone._canonical = self._canonical
            clone._row_list = self._row_list
            clone._values_list = self._values_list
            # Index/shard cache sharing is safe: the first write on
            # either side clones (never mutates) the shared structures
            # via _own.
            clone._indexes = self._indexes
            clone._partition = self._partition
            clone._shards = self._shards
            clone._shard_rows = self._shard_rows
            clone._shard_indexes = self._shard_indexes
        else:
            clone._rows = dict(self._rows)
            if self._partition is not None:
                clone.shard(*self._partition)
        return clone

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, tid: int) -> bool:
        return tid in self._rows

    def __repr__(self) -> str:
        suffix = ""
        if self._partition is not None:
            suffix = f", {self._partition[1]} shards"
        return f"TableData({self.name}, {len(self._rows)} rows{suffix})"
