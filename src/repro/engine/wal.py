"""Durable write-ahead logging and crash recovery.

The runtime's execution model (Section 4 of the paper) assumes rule
processing runs inside a database transaction whose effects commit
atomically or roll back. This module supplies the durability half of
that assumption: every tuple-level :class:`~repro.transitions.delta.Primitive`
the processor appends to its delta log is also framed into an
append-only on-disk log, bracketed by per-transaction begin / commit /
abort markers, and :func:`recover_database` replays the *committed
prefix* of any such log — including one cut short by a crash — onto a
fresh :class:`~repro.engine.database.Database`.

File layout::

    MAGIC (8 bytes)
    frame*            frame = <u32 payload length> <u32 CRC-32> <payload>

Payloads are compact JSON records (SQL values are int / float / str /
bool / NULL, all JSON-exact). Frame kinds:

``H``  header — format version plus the schema spec, making the file
       self-describing (``Database.recover(path)`` needs no catalog);
``K``  checkpoint — full ``(tid, values)`` extension of every table and
       the tid counter, written once at open when the database is not
       empty (a session may start from a pre-loaded state);
``B``  transaction begin;
``P``  one primitive (insert / delete / update with old and new values);
``C``  transaction commit;
``A``  transaction abort.

Commit protocol. The writer buffers encoded frames and writes them out
in batches; ``commit`` forces the buffer to the OS *and* fsyncs, so a
transaction is durable exactly when its ``C`` frame is. Nothing else
needs to fsync: losing buffered-but-unsynced frames only ever truncates
an uncommitted suffix, which recovery discards anyway.

Group commit. :class:`GroupCommitWal` funnels the commits of many
concurrent sessions through one committer thread: each transaction's
``B``/``P`` frames are emitted as it arrives, its ``C`` marker is
deferred until up to ``max_batch`` transactions are waiting (or
``max_delay`` elapses), and the whole batch then shares a single
flush + fsync — amortizing the per-commit sync across the batch while
preserving the exact per-caller durability contract. Such logs
interleave frames of different transactions (``B1 P1 B2 P2 C1 C2``);
recovery tracks one pending transaction per id and replays each at its
own commit marker, in file order.

Recovery. :func:`scan_frames` walks frames until the first torn or
CRC-corrupt one — a partial header, short payload, checksum mismatch,
or undecodable record ends the scan *without error* (that is exactly
what a crash mid-write leaves behind; the valid prefix is the log).
:func:`recover_database` then folds each committed transaction's
primitives through :meth:`~repro.transitions.net_effect.NetEffect.fold`
and applies the resulting per-table net effects — replay *is* the
net-effect fold, which is why recovering a prefix lands on a state the
execution graph could have produced (the fold is equivalent to the
sequential primitive application the live run performed).

Fault injection. The writer accepts an optional ``fault_plan`` — duck
typed, see :class:`repro.validate.faults.FaultPlan` — consulted before
each frame lands in the buffer and before each physical write / sync.
Injected ``OSError``s are retried with exponential backoff
(``max_retries`` / ``backoff_base``); a simulated crash aborts the
process's view of the writer, leaving the file exactly as a real crash
would.
"""

from __future__ import annotations

import json
import os
import queue
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.errors import ReproError
from repro.schema.catalog import Schema, schema_from_spec
from repro.stats import StatsBase
from repro.transitions.delta import Primitive
from repro.transitions.net_effect import NetEffect

MAGIC = b"RPROWAL1"
WAL_VERSION = 1
_FRAME_HEADER = struct.Struct("<II")


class WalError(ReproError):
    """Structural problem in a WAL file (not a torn tail)."""


class WalWriteError(WalError):
    """A WAL write failed even after exhausting its retries."""


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """One CRC-checked frame: ``<len><crc32><json payload>``."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def _decode_payload(body: bytes) -> dict | None:
    """The payload dict, or None when it does not decode to a record."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _tuple_or_none(values) -> tuple | None:
    return None if values is None else tuple(values)


def primitive_payload(txn_id: int, primitive: Primitive) -> dict:
    return {
        "t": "P",
        "x": txn_id,
        "k": primitive.kind,
        "tb": primitive.table,
        "id": primitive.tid,
        "o": list(primitive.old) if primitive.old is not None else None,
        "n": list(primitive.new) if primitive.new is not None else None,
    }


def payload_primitive(payload: dict) -> Primitive:
    """Rebuild (and validate) a primitive from its ``P`` frame payload."""
    return Primitive.checked(
        0,
        payload["k"],
        payload["tb"],
        payload["id"],
        _tuple_or_none(payload["o"]),
        _tuple_or_none(payload["n"]),
    )


@dataclass(frozen=True)
class WalFrame:
    """One decoded frame plus its position in the file."""

    index: int
    offset: int  #: byte offset of the frame header in the file
    end: int  #: byte offset just past the frame (a valid crash point)
    payload: dict

    @property
    def kind(self) -> str:
        return self.payload.get("t", "?")


@dataclass
class WalScan:
    """The valid frame prefix of a WAL file."""

    frames: list[WalFrame] = field(default_factory=list)
    #: bytes of valid prefix (MAGIC + whole frames)
    valid_bytes: int = len(MAGIC)
    #: True when trailing bytes past the valid prefix were ignored
    torn_tail: bool = False
    #: why the scan stopped early ("" when the file ended cleanly)
    tail_reason: str = ""

    def boundaries(self) -> list[int]:
        """Byte offsets of every frame boundary (crash-point grid)."""
        return [frame.end for frame in self.frames]


def scan_frames(path: str) -> WalScan:
    """Read the valid frame prefix of the WAL at *path*.

    A missing or wrong magic is a :class:`WalError` (the file is not a
    WAL at all); anything wrong *after* the magic — torn header, short
    payload, CRC mismatch, undecodable record — ends the scan at the
    last whole frame, which is the crash-recovery contract.
    """
    scan = WalScan()
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise WalError(f"{path}: not a WAL file (bad magic)")
        offset = len(MAGIC)
        index = 0
        while True:
            header = handle.read(_FRAME_HEADER.size)
            if not header:
                break
            if len(header) < _FRAME_HEADER.size:
                scan.torn_tail = True
                scan.tail_reason = "torn frame header"
                break
            length, crc = _FRAME_HEADER.unpack(header)
            body = handle.read(length)
            if len(body) < length:
                scan.torn_tail = True
                scan.tail_reason = "torn frame payload"
                break
            if zlib.crc32(body) != crc:
                scan.torn_tail = True
                scan.tail_reason = "CRC mismatch"
                break
            payload = _decode_payload(body)
            if payload is None:
                scan.torn_tail = True
                scan.tail_reason = "undecodable payload"
                break
            end = offset + _FRAME_HEADER.size + length
            scan.frames.append(WalFrame(index, offset, end, payload))
            scan.valid_bytes = end
            offset = end
            index += 1
    return scan


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


class WalWriterStats(StatsBase):
    """Observable work counters (the ``--stats`` / bench surface)."""

    FIELDS = (
        "frames_emitted",
        "primitives_logged",
        "bytes_written",
        "flushes",
        "syncs",
        "retries",
    )


class WalWriter:
    """Appends frames to a fresh WAL file with batched fsyncs.

    ``sync`` is ``"commit"`` (fsync only at commit markers — the
    default, and the weakest setting that keeps the commit protocol
    sound), ``"always"`` (fsync every flush), or ``"never"`` (flushes
    reach the OS but durability is left to the kernel — benchmarking
    only). ``batch_frames`` bounds how many frames buffer in-process
    before a physical write.

    Transient ``OSError`` from the underlying file (real, or injected
    by a fault plan) is retried up to ``max_retries`` times with
    exponential backoff starting at ``backoff_base`` seconds; a
    persistent failure raises :class:`WalWriteError`.
    """

    def __init__(
        self,
        path: str,
        *,
        schema: Schema,
        sync: str = "commit",
        batch_frames: int = 64,
        max_retries: int = 4,
        backoff_base: float = 0.001,
        sleep=time.sleep,
        fault_plan=None,
    ) -> None:
        if sync not in ("commit", "always", "never"):
            raise ValueError(f"bad sync policy {sync!r}")
        self.path = path
        self.sync = sync
        self.batch_frames = batch_frames
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.stats = WalWriterStats()
        self._sleep = sleep
        self._fault_plan = fault_plan
        self._buffer = bytearray()
        self._buffered_frames = 0
        self._closed = False
        self._file = open(path, "wb")
        self._file.write(MAGIC)
        self._emit({"t": "H", "v": WAL_VERSION, "schema": schema.to_spec()})
        # The header reaches the OS immediately: every later crash point
        # leaves a file recovery can at least open.
        self.flush()

    # -- frame emission ------------------------------------------------

    def _emit(self, payload: dict) -> None:
        if self._closed:
            raise WalError("WAL writer is closed")
        frame = encode_frame(payload)
        if self._fault_plan is not None:
            # The plan may flush-and-crash here, possibly leaving a torn
            # prefix of this frame on disk (see FaultPlan.before_frame).
            self._fault_plan.before_frame(self, self.stats.frames_emitted, frame)
        self._buffer += frame
        self._buffered_frames += 1
        self.stats.frames_emitted += 1
        if self._buffered_frames >= self.batch_frames:
            self.flush()
            if self.sync == "always":
                self._sync()

    def checkpoint(self, database: Database) -> None:
        """Write a full-state checkpoint frame (open-time base state)."""
        self._emit(
            {
                "t": "K",
                "next_tid": database._next_tid,
                "tables": {
                    table.name: [
                        [tid, list(values)]
                        for tid, values in database.table(table.name).items()
                    ]
                    for table in database.schema
                },
            }
        )

    def begin(self, txn_id: int) -> None:
        self._emit({"t": "B", "x": txn_id})

    def primitive(self, txn_id: int, primitive: Primitive) -> None:
        self.stats.primitives_logged += 1
        self._emit(primitive_payload(txn_id, primitive))

    def commit(self, txn_id: int) -> int:
        """Write the commit marker and make the transaction durable.

        Returns the total frame count including the commit frame — the
        crash-matrix harness keys its committed-prefix expectations on
        this.
        """
        self._emit({"t": "C", "x": txn_id})
        self.flush()
        if self.sync != "never":
            self._sync()
        return self.stats.frames_emitted

    def commit_marker(self, txn_id: int, *, epoch: int | None = None) -> int:
        """Write a commit marker WITHOUT forcing it to disk.

        The group-commit coalescer emits one marker per batch member and
        then pays a single :meth:`sync_now` for the whole batch; the
        transaction is durable only once that sync returns. *epoch*, when
        given, tags the marker with the server's commit sequence number
        (recovery ignores it; the concurrent crash matrix uses it to map
        frame boundaries back to commits). Returns the frame count
        including the marker.
        """
        payload: dict = {"t": "C", "x": txn_id}
        if epoch is not None:
            payload["e"] = epoch
        self._emit(payload)
        return self.stats.frames_emitted

    def sync_now(self) -> None:
        """Flush buffered frames and fsync them (one durability point)."""
        self.flush()
        if self.sync != "never":
            self._sync()

    def abort(self, txn_id: int) -> None:
        """Write the abort marker. Aborts need no fsync: an abort that
        never reaches disk is recovered identically (the transaction
        has no commit frame either way)."""
        self._emit({"t": "A", "x": txn_id})
        self.flush()

    # -- physical I/O with retry/backoff -------------------------------

    def _with_retries(self, operation, what: str):
        delay = self.backoff_base
        attempt = 0
        while True:
            try:
                return operation()
            except OSError as error:
                if attempt >= self.max_retries:
                    raise WalWriteError(
                        f"WAL {what} failed after {attempt + 1} attempts: "
                        f"{error}"
                    ) from error
                attempt += 1
                self.stats.retries += 1
                self._sleep(delay)
                delay *= 2

    def flush(self) -> None:
        """Write buffered frames to the OS (no fsync)."""
        if not self._buffer:
            return
        data = bytes(self._buffer)

        def write() -> None:
            if self._fault_plan is not None:
                self._fault_plan.before_io("write")
            self._file.write(data)
            self._file.flush()

        self._with_retries(write, "write")
        self.stats.bytes_written += len(data)
        self.stats.flushes += 1
        self._buffer.clear()
        self._buffered_frames = 0

    def _sync(self) -> None:
        def sync() -> None:
            if self._fault_plan is not None:
                self._fault_plan.before_io("fsync")
            os.fsync(self._file.fileno())

        self._with_retries(sync, "fsync")
        self.stats.syncs += 1

    # -- crash simulation / shutdown -----------------------------------

    def simulate_crash(self, torn_bytes: bytes = b"") -> None:
        """Make the file look crash-interrupted and disable the writer.

        Buffered (unflushed) frames are *dropped* — a real crash loses
        them the same way — and *torn_bytes*, if given, land on disk as
        a partial final frame. Used by the fault-injection harness; the
        live writer raises SimulatedCrash right after.
        """
        self._buffer.clear()
        self._buffered_frames = 0
        if torn_bytes:
            self._file.write(torn_bytes)
            self._file.flush()
            os.fsync(self._file.fileno())
        self._file.close()
        self._closed = True

    def close(self) -> None:
        """Flush and close. Does NOT commit: an open transaction's
        frames may reach the file but recovery discards them."""
        if self._closed:
            return
        self.flush()
        if self.sync != "never":
            self._sync()
        self._file.close()
        self._closed = True


# ----------------------------------------------------------------------
# Group commit
# ----------------------------------------------------------------------


class GroupCommitStats(StatsBase):
    """Coalescer counters (the ``--stats`` / bench surface).

    ``batch_sizes`` is a histogram: batch size -> how many batches of
    that size were synced. ``fsyncs-per-commit`` for the bench gate is
    ``writer.stats.syncs / commits``.
    """

    FIELDS = ("commits", "batches")

    def reset(self) -> None:
        super().reset()
        self.batch_sizes: dict[int, int] = {}

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["batch_sizes"] = {
            str(size): count
            for size, count in sorted(self.batch_sizes.items())
        }
        return data


class _CommitTicket:
    """One transaction waiting for the coalescer to make it durable."""

    __slots__ = ("txn_id", "primitives", "epoch", "done", "error")

    def __init__(self, txn_id: int, primitives, epoch: int | None) -> None:
        self.txn_id = txn_id
        self.primitives = primitives
        self.epoch = epoch
        self.done = threading.Event()
        self.error: BaseException | None = None


class GroupCommitWal:
    """A commit coalescer over one :class:`WalWriter`.

    All frame emission is funneled through a single committer thread, so
    the writer needs no internal locking and the file's frame order is
    exactly the submission order. For each submitted transaction the
    committer immediately emits its ``B`` + ``P`` frames (buffered);
    commit markers are *deferred*: the committer collects transactions
    for up to ``max_delay`` seconds (or until ``max_batch`` of them are
    waiting), then emits all their ``C`` frames and pays one flush + one
    fsync for the whole batch. The resulting file genuinely interleaves
    frames from concurrently-committing transactions — ``B1 P1 B2 P2 C1
    C2`` — which is what the multi-transaction recovery below exists to
    replay. :meth:`commit` blocks until its transaction's batch has
    synced, so the durability contract per caller is identical to
    :meth:`WalWriter.commit`; ``C`` frames appear in submission order,
    so when callers submit in their publication order, recovery replays
    net effects in that same order.

    With ``max_batch=1`` (or ``max_delay=0``) every transaction syncs
    alone — the per-commit-fsync baseline the bench gate compares
    against, on the same code path.
    """

    def __init__(
        self,
        writer: WalWriter,
        *,
        max_delay: float = 0.002,
        max_batch: int = 8,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1; got {max_batch!r}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0; got {max_delay!r}")
        self.writer = writer
        self.max_delay = max_delay
        self.max_batch = max_batch
        self.stats = GroupCommitStats()
        self._queue: "queue.Queue[_CommitTicket | None]" = queue.Queue()
        self._failed: BaseException | None = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-group-commit", daemon=True
        )
        self._thread.start()

    # -- the session-facing surface ------------------------------------

    def checkpoint(self, database: Database) -> None:
        """Checkpoint the base state. Call before the first commit: the
        committer thread owns the writer once transactions flow."""
        self.writer.checkpoint(database)
        self.writer.flush()

    def submit(
        self, txn_id: int, primitives, *, epoch: int | None = None
    ) -> _CommitTicket:
        """Enqueue one transaction's frames; returns the ticket to
        :meth:`wait` on. Split from :meth:`commit` so a caller holding a
        publication lock can enqueue inside it (fixing this commit's
        position in WAL order) and block for the group fsync outside it.
        """
        if self._closed:
            raise WalError("group-commit WAL is closed")
        if self._failed is not None:
            raise WalWriteError(
                f"group-commit WAL failed earlier: {self._failed}"
            )
        ticket = _CommitTicket(txn_id, list(primitives), epoch)
        self._queue.put(ticket)
        return ticket

    def wait(self, ticket: _CommitTicket) -> None:
        """Block until *ticket*'s batch has synced; raises its error."""
        ticket.done.wait()
        if ticket.error is not None:
            raise ticket.error

    def commit(
        self, txn_id: int, primitives, *, epoch: int | None = None
    ) -> None:
        """Submit one transaction's frames and block until durable.

        Raises :class:`WalWriteError` if the committer failed — the
        transaction may or may not be durable at that point, exactly as
        with a torn ``commit()``.
        """
        self.wait(self.submit(txn_id, primitives, epoch=epoch))

    def close(self) -> None:
        """Drain pending commits, sync, and close the underlying writer."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join()
        self.writer.close()

    # -- the committer thread ------------------------------------------

    def _write_body(self, ticket: _CommitTicket) -> None:
        self.writer.begin(ticket.txn_id)
        for primitive in ticket.primitives:
            self.writer.primitive(ticket.txn_id, primitive)

    def _run(self) -> None:
        shutdown = False
        while not shutdown:
            item = self._queue.get()
            if item is None:
                break
            batch = [item]
            try:
                self._write_body(item)
                deadline = time.monotonic() + self.max_delay
                while len(batch) < self.max_batch:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        item = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if item is None:
                        shutdown = True
                        break
                    self._write_body(item)
                    batch.append(item)
                for ticket in batch:
                    self.writer.commit_marker(
                        ticket.txn_id, epoch=ticket.epoch
                    )
                self.writer.sync_now()
                self.stats.commits += len(batch)
                self.stats.batches += 1
                self.stats.batch_sizes[len(batch)] = (
                    self.stats.batch_sizes.get(len(batch), 0) + 1
                )
            except BaseException as error:  # noqa: BLE001 — fail tickets
                self._failed = error
                for ticket in batch:
                    ticket.error = WalWriteError(
                        f"group commit failed: {error}"
                    )
                # Later tickets must not hang on a dead committer.
                while True:
                    try:
                        later = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if later is not None:
                        later.error = WalWriteError(
                            f"group commit failed earlier: {error}"
                        )
                        later.done.set()
                shutdown = True
            finally:
                for ticket in batch:
                    ticket.done.set()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What recovery found and did."""

    frames_read: int = 0
    transactions_committed: int = 0
    transactions_aborted: int = 0
    #: a begin without commit/abort was cut off by the crash
    open_transaction_discarded: bool = False
    #: how many such in-flight transactions were discarded (a concurrent
    #: log can lose several to one crash)
    transactions_discarded: int = 0
    #: trailing torn/corrupt bytes were truncated (not fatal)
    torn_tail: bool = False
    tail_reason: str = ""
    checkpoint_rows: int = 0
    primitives_replayed: int = 0
    replay_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "frames_read": self.frames_read,
            "transactions_committed": self.transactions_committed,
            "transactions_aborted": self.transactions_aborted,
            "open_transaction_discarded": self.open_transaction_discarded,
            "transactions_discarded": self.transactions_discarded,
            "torn_tail": self.torn_tail,
            "tail_reason": self.tail_reason,
            "checkpoint_rows": self.checkpoint_rows,
            "primitives_replayed": self.primitives_replayed,
            "replay_seconds": round(self.replay_seconds, 6),
        }


@dataclass
class RecoveryResult:
    database: Database
    report: RecoveryReport


def _apply_checkpoint(
    database: Database, payload: dict, report: RecoveryReport
) -> None:
    for name, rows in payload["tables"].items():
        table = database.table(name)
        for tid, values in rows:
            table.insert(tid, tuple(values))
            report.checkpoint_rows += 1
    database._next_tid = payload["next_tid"]


def _replay_transaction(
    database: Database, primitives: list[Primitive], report: RecoveryReport
) -> None:
    """Apply one committed transaction: fold, then per-table net effects.

    Folding first and applying the composite is equivalent to replaying
    the primitives one by one (net-effect composition, [WF90]); it also
    re-checks the same tid invariants the live run maintained.
    """
    database.apply_net_effect(NetEffect.from_primitives(primitives))
    report.primitives_replayed += len(primitives)
    highest = max((primitive.tid for primitive in primitives), default=0)
    if highest >= database._next_tid:
        database._next_tid = highest + 1


def recover_database(path: str, schema: Schema | None = None) -> RecoveryResult:
    """Replay the committed prefix of the WAL at *path*.

    Returns the recovered database plus a report. Torn or CRC-corrupt
    tails are truncated, an in-flight (uncommitted) final transaction
    is discarded, and aborted transactions are skipped — the result is
    exactly the state as of the last durable commit marker.

    With *schema* the recovered database is built on that exact catalog
    object (so it can be handed straight to a :class:`RuleProcessor`,
    whose rule set holds the same object); the header's schema spec
    must match it. Without it the log is self-describing and the schema
    is rebuilt from the header.
    """
    started = time.perf_counter()
    scan = scan_frames(path)
    report = RecoveryReport(
        frames_read=len(scan.frames),
        torn_tail=scan.torn_tail,
        tail_reason=scan.tail_reason,
    )
    if not scan.frames or scan.frames[0].kind != "H":
        raise WalError(f"{path}: missing WAL header frame")
    header = scan.frames[0].payload
    if header.get("v") != WAL_VERSION:
        raise WalError(
            f"{path}: unsupported WAL version {header.get('v')!r}"
        )
    if schema is not None and schema.to_spec() != header["schema"]:
        raise WalError(
            f"{path}: WAL header schema does not match the given catalog"
        )
    database = Database(schema or schema_from_spec(header["schema"]))

    # One pending primitive list per in-flight transaction id: a
    # group-commit log interleaves begin/primitive frames from
    # concurrently-committing sessions, and a transaction replays at
    # (and only at) its own commit marker. Commit markers appear in the
    # coalescer's submission order — the server's publication order — so
    # replaying them in file order reproduces the published state. A
    # sequential single-session log is the one-pending special case and
    # recovers exactly as before.
    pending: dict[int, list[Primitive]] = {}
    for frame in scan.frames[1:]:
        kind = frame.kind
        payload = frame.payload
        if kind == "K":
            _apply_checkpoint(database, payload, report)
        elif kind == "B":
            # A begin for an id already in flight abandons the earlier
            # incarnation (id reuse by a restarted sequential writer).
            pending[payload["x"]] = []
        elif kind == "P":
            primitives = pending.get(payload["x"])
            if primitives is not None:
                primitives.append(payload_primitive(payload))
        elif kind == "C":
            primitives = pending.pop(payload["x"], None)
            if primitives is not None:
                _replay_transaction(database, primitives, report)
                report.transactions_committed += 1
        elif kind == "A":
            if pending.pop(payload["x"], None) is not None:
                report.transactions_aborted += 1
        else:
            raise WalError(f"{path}: unknown frame kind {kind!r}")
    if pending:
        report.open_transaction_discarded = True
        report.transactions_discarded = len(pending)
    report.replay_seconds = time.perf_counter() - started
    return RecoveryResult(database=database, report=report)
