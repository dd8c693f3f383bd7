"""Shared artifact I/O: atomic JSON writes and corrupt-aware loads.

Every JSON artifact the system persists — the fuzzing corpus, campaign
checkpoints, campaign summaries, ``BENCH_*.json`` benchmark tables — is an
accumulation of hours of work; a writer killed mid-``write()`` must never
leave a truncated file in place of it.  :func:`atomic_write_json` is the one
idiom (stage to a sibling temp file, then ``os.replace``) every writer routes
through (:func:`atomic_write_chunks` for writers that splice pre-encoded
pieces), and :func:`load_json` is its counterpart: a loader whose failure
mode is a :class:`ValueError` that names the file and the byte offset of the
damage, never a bare ``JSONDecodeError`` three frames deep.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Iterable, Optional


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> str:
    """Write the text ``chunks`` to ``path`` atomically (temp file + rename).

    The chunks are streamed to the staging file as they come, never joined
    first, so a writer can splice pre-encoded pieces without holding the
    whole artifact twice.  The temp file lives next to the target
    (``os.replace`` must not cross filesystems) and carries the writer's PID
    so concurrent writers of the same artifact cannot trample each other's
    staging files.  Returns the absolute path written.
    """
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    staging = f"{path}.tmp.{os.getpid()}"
    try:
        with open(staging, "w") as handle:
            handle.writelines(chunks)
        os.replace(staging, path)
    finally:
        if os.path.exists(staging):
            os.remove(staging)
    return path


def atomic_write_json(path: str, payload: object, indent: int = 2) -> str:
    """Serialize ``payload`` to ``path`` atomically (see :func:`atomic_write_chunks`)."""
    encoder = json.JSONEncoder(indent=indent, default=str)
    return atomic_write_chunks(
        path, itertools.chain(encoder.iterencode(payload), ("\n",))
    )


def load_json(
    path: str,
    kind: str = "artifact",
    expected_format: Optional[str] = None,
) -> object:
    """Load a JSON artifact, raising a self-describing error on damage.

    A truncated or garbage file raises ``ValueError`` naming the file, the
    byte offset of the first undecodable character, and the decoder's
    message.  When ``expected_format`` is given, the payload must be an
    object whose ``"format"`` key matches it exactly (version mismatches and
    wrong-artifact-kind mixups fail here, not at first field access).
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        raise ValueError(
            f"{path}: corrupt {kind} file at offset {error.start} (not valid UTF-8)"
        ) from error
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(
            f"{path}: corrupt {kind} file at offset {error.pos} ({error.msg})"
        ) from error
    if expected_format is not None:
        found = payload.get("format") if isinstance(payload, dict) else None
        if found != expected_format:
            raise ValueError(
                f"{path}: not a {kind} file "
                f"(format={found!r}, expected {expected_format!r})"
            )
    return payload
