"""The unified execution configuration for runtime sessions.

:class:`ExecutionConfig` is the one way to pass execution options: a
frozen value object accepted (as ``config=``) by
:class:`~repro.runtime.processor.RuleProcessor`,
:class:`~repro.engine.expressions.Evaluator`,
:func:`~repro.engine.query.execute_select`,
:func:`~repro.engine.dml.execute_statement`, and the CLI. Each field
encodes one choice:

* ``matching`` — how rule conditions are matched, and which executor
  runs statements and subqueries: ``"planned"`` (compiled predicates
  over the planned executor of :mod:`repro.engine.plan`, the default),
  ``"rete"`` (the incremental discrimination network of
  :mod:`repro.engine.rete` for conditions, with planned fallback for
  unsupported ones, and the planned executor for statements), or
  ``"naive"`` (the tree-walking reference evaluator and the naive
  cross-product statement executor, all the way down);
* ``incremental`` — the processor's incremental triggering substrate
  (cached net effects, touch index, COW snapshots);
* ``durable`` — write-ahead logging; ``wal`` names the WAL (a path
  string) or supplies an open ``WalWriter``;
* ``scheduler`` — the rule-consideration loop: ``"serial"`` (one
  eligible rule per round, the default) or ``"parallel"`` (the
  commutativity-certified batch scheduler of
  :mod:`repro.runtime.parallel`, which runs provably-commuting eligible
  rules as one batch round on copy-on-write forks and merges their net
  effects in a canonical order);
* ``partitions`` — hash-partition declared tables into this many
  shards (:meth:`repro.engine.storage.TableData.shard`), enabling
  partition pruning of condition probes and action scans;
  ``1`` (the default) keeps the flat layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: the condition-matching modes `ExecutionConfig.matching` accepts
MATCHING_MODES = ("rete", "planned", "naive")

#: the rule-scheduling modes `ExecutionConfig.scheduler` accepts
SCHEDULER_MODES = ("serial", "parallel")


@dataclass(frozen=True)
class ExecutionConfig:
    """Immutable execution options for one runtime session."""

    matching: str = "planned"
    incremental: bool = True
    durable: bool = False
    #: WAL path (str) or an open WalWriter; implies ``durable`` when set
    wal: object = None
    scheduler: str = "serial"
    partitions: int = 1

    def __post_init__(self) -> None:
        if self.matching not in MATCHING_MODES:
            raise ValueError(
                f"matching must be one of {', '.join(MATCHING_MODES)}; "
                f"got {self.matching!r}"
            )
        if self.scheduler not in SCHEDULER_MODES:
            raise ValueError(
                f"scheduler must be one of {', '.join(SCHEDULER_MODES)}; "
                f"got {self.scheduler!r}"
            )
        if not isinstance(self.partitions, int) or self.partitions < 1:
            raise ValueError(
                f"partitions must be a positive int; got {self.partitions!r}"
            )

    def with_options(self, **changes) -> "ExecutionConfig":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    @property
    def wants_wal(self) -> bool:
        """True when this config asks for durability in any form."""
        return self.durable or self.wal is not None


#: the default configuration every entry point falls back to
DEFAULT_CONFIG = ExecutionConfig()


#: the isolation levels `ServerOptions.isolation` accepts
ISOLATION_MODES = ("serializable", "snapshot")

#: the conflict-detection granularities `ServerOptions.granularity` accepts
GRANULARITY_MODES = ("column", "table")


@dataclass(frozen=True)
class ServerOptions:
    """Concurrency options for a :class:`~repro.runtime.server.RuleServer`.

    Orthogonal to :class:`ExecutionConfig` (which still governs how each
    session's own rule cascade executes — matching mode,
    scheduler, durability of the *server's* log):

    * ``isolation`` — what first-committer-wins validation checks:
      ``"serializable"`` (the default) validates the session's reads
      *and* writes against commits since its snapshot, which is what
      makes the committed history replayable serially in commit order
      (the determinism oracle); ``"snapshot"`` validates writes only —
      classical snapshot isolation, admitting read skew but fewer
      aborts;
    * ``granularity`` — footprint resolution: ``"column"`` uses the
      attribute-level dataflow of PR 3 (insert/delete epochs per table,
      update epochs per column), ``"table"`` falls back to the coarse
      per-table touch index (`DeltaLog.last_write`);
    * ``group_commit`` — funnel durable commits through the
      :class:`~repro.engine.wal.GroupCommitWal` coalescer (``False``
      syncs every commit by itself on the same code path);
    * ``max_delay`` / ``max_batch`` — the coalescer's bounds: how long a
      commit may wait for company, and how much company it may keep;
    * ``max_retries`` — how many times :meth:`RuleServer.run_transaction`
      reopens a session after a :class:`~repro.errors.ConflictError`
      before giving up.
    """

    isolation: str = "serializable"
    granularity: str = "column"
    group_commit: bool = True
    max_delay: float = 0.002
    max_batch: int = 8
    max_retries: int = 16

    def __post_init__(self) -> None:
        if self.isolation not in ISOLATION_MODES:
            raise ValueError(
                f"isolation must be one of {', '.join(ISOLATION_MODES)}; "
                f"got {self.isolation!r}"
            )
        if self.granularity not in GRANULARITY_MODES:
            raise ValueError(
                f"granularity must be one of {', '.join(GRANULARITY_MODES)}; "
                f"got {self.granularity!r}"
            )
        if not isinstance(self.max_batch, int) or self.max_batch < 1:
            raise ValueError(
                f"max_batch must be a positive int; got {self.max_batch!r}"
            )
        if self.max_delay < 0:
            raise ValueError(
                f"max_delay must be >= 0; got {self.max_delay!r}"
            )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be a non-negative int; "
                f"got {self.max_retries!r}"
            )

    def with_options(self, **changes) -> "ServerOptions":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return replace(self, **changes)


#: the default server options
DEFAULT_SERVER_OPTIONS = ServerOptions()


def resolve_config(config: ExecutionConfig | None) -> ExecutionConfig:
    """*config*, or :data:`DEFAULT_CONFIG` when none was passed."""
    return config if config is not None else DEFAULT_CONFIG
