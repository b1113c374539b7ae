"""The committed baseline corpus: compressed journals + manifest.

Layout of a corpus directory (``canary/corpus/`` in the repository)::

    manifest.json        # spec, format/schema versions, fingerprints
    A-s1.jsonl.gz        # one gzipped journal per matrix cell
    A-s2.jsonl.gz
    ...

The manifest records everything needed to re-run the matrix (the
:class:`~repro.canary.matrix.MatrixSpec`), the journal schema version
it was recorded under, a content fingerprint of the ``repro`` package
at recording time (informational: names the code that produced the
baseline), and per-cell integrity hashes of the *uncompressed* journal
bytes.

Cells are stored in *canonical* form: host time, the only
nondeterministic content a deterministic search emits, is neutralised
by record kind (:func:`canonical_journal_bytes`).  Together with
deterministic gzip members (zeroed mtime, no filename), re-recording
an unchanged matrix produces byte-identical corpus files — the corpus
diffs cleanly in version control.  (Cells recorded before schema v9
also carry ``metrics`` dumps in their ``run_end`` records, whose
``*_wall`` and ``executor.*`` timers were zeroed when recorded.)
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import tempfile
from typing import Optional, Union

from repro.canary.matrix import MatrixSpec, run_matrix
from repro.obs.journal import read_journal_prefix
from repro.obs.schema import SCHEMA_VERSION

#: Version of the corpus-on-disk layout itself.
CORPUS_FORMAT = 1

MANIFEST_NAME = "manifest.json"


class CorpusError(Exception):
    """A corpus directory is missing, incomplete or corrupt."""


def code_fingerprint() -> str:
    """Content hash of every ``repro`` source file, import-order free.

    Purely informational provenance: ``canary check`` prints it next to
    the recorded one so a drift report names *which* code the baseline
    belongs to, but equality is never required — unchanged behaviour on
    changed code is exactly what the canary certifies.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _journal_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Record kinds made only of host time, dropped by canonicalization:
#: ``heartbeat`` liveness (``--export-metrics``) and ``spans`` layer
#: timings (``--profile``).
_HOST_TIME_KINDS = ("heartbeat", "spans")

#: Record kinds whose envelope carries host time (the campaign
#: executor's), and those fields, zeroed by canonicalization.
_ENVELOPE_KINDS = ("fanout", "retry")
_ENVELOPE_SECONDS = ("wall_seconds", "busy_seconds", "backoff_seconds")


def canonical_journal_bytes(records: list) -> bytes:
    """Re-serialize a journal with host time neutralized, by record kind.

    The search itself is deterministic (simulated clock, seeded RNG);
    the only run-to-run variation in a journal is host time: the
    ``heartbeat`` and ``spans`` records, which are nothing else and
    are dropped, and the envelope seconds of ``fanout`` and ``retry``
    records, which are zeroed.  Canonical bytes are then a pure
    function of search behaviour: a run observed by the telemetry
    plane, or profiled, canonicalizes identically to a bare run.
    """
    lines = []
    for record in records:
        kind = record.get("t")
        if kind in _HOST_TIME_KINDS:
            continue
        if kind in _ENVELOPE_KINDS:
            record = {**record, **{
                field: 0.0 for field in _ENVELOPE_SECONDS if field in record
            }}
        lines.append(json.dumps(record, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_gz(path: str, data: bytes) -> None:
    """Deterministic gzip: fixed mtime, no embedded filename."""
    with open(path, "wb") as raw:
        with gzip.GzipFile(
            filename="", mode="wb", fileobj=raw, mtime=0
        ) as handle:
            handle.write(data)


def record_corpus(
    spec: MatrixSpec,
    corpus_dir: Union[str, os.PathLike],
    progress=None,
    work_dir: Optional[str] = None,
) -> dict:
    """Run the matrix and commit it as the baseline corpus.

    Writes one ``<cell>.jsonl.gz`` per cell plus ``manifest.json``;
    returns the manifest dict.  An existing corpus at the same path is
    overwritten cell by cell (a refresh, see docs/CANARY.md).
    """
    corpus_dir = os.fspath(corpus_dir)
    os.makedirs(corpus_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as staging:
        results = run_matrix(spec, staging, progress=progress)
        cells: dict[str, dict] = {}
        for name, info in results.items():
            records, tail_error = read_journal_prefix(info["path"])
            if tail_error is not None:  # pragma: no cover - defensive
                raise CorpusError(
                    f"freshly recorded cell {name} is truncated: {tail_error}"
                )
            data = canonical_journal_bytes(records)
            _write_gz(os.path.join(corpus_dir, f"{name}.jsonl.gz"), data)
            cells[name] = {
                "subsystem": info["subsystem"],
                "seed": info["seed"],
                "records": len(records),
                "anomalies": info["anomalies"],
                "experiments": info["experiments"],
                "sha256": _journal_sha256(data),
            }
    manifest = {
        "format": CORPUS_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "code_fingerprint": code_fingerprint(),
        "cells": cells,
    }
    with open(os.path.join(corpus_dir, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


@dataclasses.dataclass(frozen=True)
class CorpusCell:
    """One baseline cell, decompressed and parsed."""

    name: str
    subsystem: str
    seed: int
    records: list


def load_manifest(corpus_dir: Union[str, os.PathLike]) -> dict:
    """Read and sanity-check a corpus manifest (CorpusError on failure)."""
    path = os.path.join(os.fspath(corpus_dir), MANIFEST_NAME)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise CorpusError(
            f"no corpus manifest at {path} — record one with "
            f"'repro canary record'"
        )
    except (OSError, json.JSONDecodeError) as error:
        raise CorpusError(f"cannot read corpus manifest {path}: {error}")
    if not isinstance(manifest, dict):
        raise CorpusError(f"corpus manifest {path} is not a JSON object")
    if manifest.get("format") != CORPUS_FORMAT:
        raise CorpusError(
            f"unsupported corpus format {manifest.get('format')!r} "
            f"(expected {CORPUS_FORMAT})"
        )
    for field in ("spec", "cells"):
        if not isinstance(manifest.get(field), dict):
            raise CorpusError(f"corpus manifest {path} lacks {field!r}")
    return manifest


def load_corpus(
    corpus_dir: Union[str, os.PathLike]
) -> tuple[dict, list[CorpusCell]]:
    """Load a whole corpus: ``(manifest, cells)``.

    Raises :class:`CorpusError` on a missing/corrupt manifest, a missing
    cell file, or a cell whose bytes no longer match the manifest's
    integrity hash (a corrupted or hand-edited baseline must never gate
    silently).
    """
    corpus_dir = os.fspath(corpus_dir)
    manifest = load_manifest(corpus_dir)
    cells: list[CorpusCell] = []
    for name, meta in sorted(manifest["cells"].items()):
        path = os.path.join(corpus_dir, f"{name}.jsonl.gz")
        try:
            with gzip.open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise CorpusError(f"corpus cell {name} is missing ({path})")
        except (OSError, gzip.BadGzipFile) as error:
            raise CorpusError(f"corpus cell {name} is unreadable: {error}")
        digest = _journal_sha256(data)
        if digest != meta.get("sha256"):
            raise CorpusError(
                f"corpus cell {name} fails its integrity check "
                f"(sha256 {digest[:12]}… != manifest "
                f"{str(meta.get('sha256'))[:12]}…)"
            )
        records = [
            json.loads(line)
            for line in data.decode("utf-8").splitlines()
            if line.strip()
        ]
        if not records:
            raise CorpusError(f"corpus cell {name} is empty")
        cells.append(
            CorpusCell(
                name=name,
                subsystem=meta["subsystem"],
                seed=int(meta["seed"]),
                records=records,
            )
        )
    if not cells:
        raise CorpusError(f"corpus at {corpus_dir} has no cells")
    return manifest, cells
