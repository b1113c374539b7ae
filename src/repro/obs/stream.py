"""Journal tail-following: consume an actively-written journal live.

Every read surface so far (``report``, ``coverage``, ``journal diff``,
the canary) re-reads a *finished* journal; the telemetry plane needs the
opposite — records as they land, while the writer is still appending.
:class:`JournalFollower` turns the journal's crash-safety contract into
a streaming one: the writer is line-buffered append-only, so at any
instant the file is a sequence of complete NDJSON lines plus at most one
partial line at the end (a torn tail, exactly the case
:func:`~repro.obs.journal.read_journal_prefix` tolerates post-hoc).  The
follower therefore:

* parses only newline-*terminated* lines — an unterminated tail stays
  pending (its bytes are not consumed) until the writer finishes it;
* never loses, duplicates or re-orders a record: :attr:`offset` is the
  byte position of the first unconsumed byte, advancing only past fully
  parsed lines, so polling is idempotent at every interleaving boundary
  and a new follower resumes exactly where a previous one stopped;
* raises ``ValueError`` on a newline-terminated line that is not valid
  JSON — a *completed* bad line is mid-file corruption, not a torn
  tail (the same distinction ``read_journal_prefix`` draws).

A gzip journal (a canary corpus cell) is a finished artifact, never
appended to: the first poll that finds the file sniffs its magic bytes,
as :func:`~repro.obs.journal.open_journal_text` does, and reads a gzip
journal whole.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from typing import Callable, Iterator, Optional, Union

from repro.obs.journal import GZIP_MAGIC, gzip_damage_as_value_error


class JournalFollower:
    """Incremental reader of one actively-written journal file.

    ``offset`` resumes from a previous follower's position (byte
    offset, as reported by :attr:`offset` after any :meth:`poll`).  A
    not-yet-created journal polls as empty rather than erroring, so a
    follower can attach before the writer opens the file.
    """

    def __init__(
        self, path: Union[str, os.PathLike], offset: int = 0
    ) -> None:
        self.path = os.fspath(path)
        #: Byte position of the first unconsumed byte (resume token).
        self.offset = offset
        #: Records yielded so far (across every poll).
        self.records_seen = 0
        #: Whether the file is gzip (None: no poll has found it yet).
        self.gzip: Optional[bool] = None

    def poll(self) -> list[dict]:
        """Every record completed since the last poll (maybe empty).

        Reads from :attr:`offset`, parses the newline-terminated lines,
        and leaves any unterminated tail unconsumed for the next poll.
        A gzip journal's offset counts decompressed bytes, and only its
        first poll reads anything.
        """
        if self.gzip:
            return []
        try:
            with open(self.path, "rb") as handle:
                if self.gzip is None:
                    self.gzip = handle.read(len(GZIP_MAGIC)) == GZIP_MAGIC
                    handle.seek(0)
                if self.gzip:
                    chunk = _decompressed(self.path, handle)[self.offset:]
                else:
                    handle.seek(self.offset)
                    chunk = handle.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        # Everything up to the last newline is complete; the remainder
        # (possibly empty) is a pending tail the writer will finish.
        complete, newline, _pending = chunk.rpartition(b"\n")
        if not newline:
            return []
        records: list[dict] = []
        consumed = self.offset
        for raw in complete.split(b"\n"):
            consumed += len(raw) + 1
            line = raw.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ValueError(
                    f"{self.path}: corrupt journal line at byte "
                    f"{consumed - len(raw) - 1}: {error}"
                ) from error
        self.offset = consumed
        self.records_seen += len(records)
        return records


def _decompressed(path: str, handle) -> bytes:
    """A gzip journal's bytes (a damaged file raises ``ValueError``)."""
    with gzip_damage_as_value_error(path):
        return gzip.decompress(handle.read())


def follow_journal(
    path: Union[str, os.PathLike],
    poll_interval: float = 0.05,
    stop: Optional[Callable[[], bool]] = None,
    offset: int = 0,
) -> Iterator[dict]:
    """Yield a journal's records live, as the writer appends them.

    Blocks between polls (``poll_interval`` seconds of real sleep), so
    this is a consumer-side loop — it never touches the writer, whose
    run stays bit-identical whether or not anyone is following.  The
    generator ends when ``stop()`` returns true *and* a final drain
    found nothing new, so a stop flag raised after the writer's last
    record never truncates the stream.  Without ``stop`` it follows
    forever (callers break out of the loop themselves).
    """
    follower = JournalFollower(path, offset=offset)
    while True:
        records = follower.poll()
        yield from records
        if not records and stop is not None and stop():
            return
        if not records:
            time.sleep(poll_interval)
