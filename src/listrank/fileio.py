"""The one atomic file writer and the one content hash every format uses.

Checkpoints, embedding stores, datasets and tokenizer files are all written
through ``atomic_write``: the bytes go to a fresh temporary file in the target
directory, which then replaces the target in one rename. An interrupted or
failed write leaves the previous file untouched and no temporary file behind.
``digest`` is the 8-byte blake2b used for file integrity checks, checkpoint
fingerprints and tokenizer hashes.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

DIGEST_BYTES = 8


def digest(data: bytes) -> bytes:
    """8-byte blake2b of ``data``."""
    return hashlib.blake2b(data, digest_size=DIGEST_BYTES).digest()


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
