"""Hash-partitioning primitive: the shard function.

Sharded storage (:meth:`repro.engine.storage.TableData.shard`) splits a
table's tid map into P shards keyed by :func:`stable_shard` over a
declared partition column. Two properties matter:

* **equality-consistency** — any two values that ``sql_compare("=")``
  accepts as equal land in the same shard (``1``, ``1.0`` and ``True``
  hash alike), so an equality conjunct on the partition key can prune
  the scan to one shard without losing matches;
* **process-stability** — the function avoids Python's per-process
  string-hash randomization (``zlib.crc32`` for strings), so shard
  layouts, and therefore every pruned-scan row order, are reproducible
  across runs and across the processes of a crash-recovery pair.

Only probes and scans pinned by an equality conjunct on the partition
key read a single shard; every other scan reads the flat tid map.
"""

from __future__ import annotations

import zlib


def stable_shard(value, count: int) -> int:
    """The shard (``0..count-1``) a partition-key *value* belongs to.

    NULL keys collect in shard 0 — a NULL never equals any probe
    constant, so pruned scans remain sound wherever NULLs land.
    """
    if count <= 1:
        return 0
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value) % count
    if isinstance(value, int):
        return value % count
    if isinstance(value, float):
        # Integral floats must co-locate with their int twins: SQL's
        # 2 = 2.0 is true, so both sides of it must share a shard.
        if value.is_integer():
            return int(value) % count
        return zlib.crc32(repr(value).encode("utf-8")) % count
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8")) % count
    return 0
