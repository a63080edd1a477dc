"""Shared pytest wiring for the acceptance gate, and a file-editing helper.

Acceptance tests report through the ``criterion_report`` fixture, which
prints one ``[criterion NN] name: PASS/FAIL (detail)`` line per criterion
and repeats all collected lines in a terminal summary block so the whole
gate can be read off one screen.

``rewrite_header`` edits the JSON header of a checkpoint or store file, and
``bits_equal`` compares float64 arrays bit for bit.
"""

import json
import struct

import numpy as np
import pytest

from listrank import fileio

_criterion_lines = []


@pytest.fixture(scope="session")
def criterion_report():
    def report(num, name, ok, detail):
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {num:02d}] {name}: {status} ({detail})"
        print(line)
        _criterion_lines.append(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


def rewrite_header(path, edit):
    """Replace the JSON header of the framed checkpoint or store at ``path``
    by ``edit(header)`` and re-seal the trailing ``fileio.digest``, as a crafted
    file would be: magic (8 bytes), version and header length (``<II``),
    header, payload, hash of every byte before it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (header_len,) = struct.unpack_from("<I", blob, 12)
    header = edit(json.loads(blob[16 : 16 + header_len]))
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = blob[:12] + struct.pack("<I", len(raw)) + raw + blob[16 + header_len : -fileio.DIGEST_BYTES]
    with open(path, "wb") as fh:
        fh.write(body + fileio.digest(body))


def bits_equal(a, b):
    """Same shape and the same float64 bits everywhere (``-0.0`` != ``0.0``)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
