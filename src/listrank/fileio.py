"""The one atomic file writer, the one content hash and the one binary frame.

Checkpoints, embedding stores, datasets and tokenizer files are all written
through ``atomic_write``: the bytes go to a fresh temporary file in the target
directory, which then replaces the target in one rename. An interrupted or
failed write leaves the previous file untouched and no temporary file behind.
``digest`` is the first 8 bytes of SHA-256, used for file integrity checks,
checkpoint fingerprints and tokenizer hashes. SHA-256 rather than blake2b
because OpenSSL runs it on the CPU's SHA extensions: 1.05–1.40 against
0.45–0.73 GB/s on a Xeon with ``sha_ni``; a CPU without them hashes at about
blake2b's speed.

Checkpoints and embedding stores share one frame (``write_framed``,
``read_framed``): an 8-byte magic, the version and header length as ``<II``,
a compact sorted-key JSON header, the payload, and the digest of all of that.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass

DIGEST_BYTES = 8

_PREFIX = struct.Struct("<II")  # version, header length


def digest(data: bytes) -> bytes:
    """First ``DIGEST_BYTES`` of the SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()[:DIGEST_BYTES]


def atomic_write(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename, or leave it as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".listrank-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class FrameFormat:
    """One framed file format: its name in messages, magic, the one version
    this reader accepts, and the error raised for every failure, whose
    message names it."""

    kind: str
    magic: bytes
    version: int
    error: type


def write_framed(path, fmt: FrameFormat, header: dict, payload) -> None:
    """Write ``header`` and the bytes-like ``payload`` in ``fmt``'s frame."""
    header_raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = fmt.magic + _PREFIX.pack(fmt.version, len(header_raw)) + header_raw
    # hashing the parts in turn and joining once copies the payload only once
    hasher = hashlib.sha256(head)
    hasher.update(payload)
    atomic_write(path, b"".join([head, payload, hasher.digest()[:DIGEST_BYTES]]))


def read_framed(path, fmt: FrameFormat, payload_bytes) -> tuple[dict, memoryview]:
    """Read ``fmt``'s frame; returns ``(header, payload)``. ``payload_bytes``
    validates the parsed header and returns the payload length it implies."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(fmt.magic) + _PREFIX.size
    if len(blob) < start or blob[: len(fmt.magic)] != fmt.magic:
        raise fmt.error(f"{path}: not a {fmt.kind} file (bad magic)")
    version, header_len = _PREFIX.unpack_from(blob, len(fmt.magic))
    if version != fmt.version:
        raise fmt.error(f"{path}: unsupported {fmt.kind} version {version} (reader supports {fmt.version})")
    if len(blob) < start + header_len:
        raise fmt.error(f"{path}: header truncated")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise fmt.error(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise fmt.error(f"{path}: header is not a JSON object")
    start += header_len
    end = start + payload_bytes(header)
    if len(blob) != end + DIGEST_BYTES:
        raise fmt.error(f"{path}: {len(blob)} bytes, the header implies {end + DIGEST_BYTES}")
    if digest(memoryview(blob)[:end]) != blob[end:]:
        raise fmt.error(f"{path}: content hash mismatch")
    return header, memoryview(blob)[start:end]
