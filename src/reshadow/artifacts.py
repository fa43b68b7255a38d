"""Metadata headers of the package's text artifacts, and their CSV writer.

Every CSV artifact opens with ``# key=value`` lines (seed, config hash,
library versions, ...) ahead of its column header.
"""

from __future__ import annotations

import numpy as np


def metadata_header(metadata: dict | None) -> str:
    """One ``# key=value`` line per item, in order, each ending in a newline.

    A key or value holding a line break would read back as more than one
    line, so it raises ValueError.
    """
    lines = [f"{key}={value}" for key, value in (metadata or {}).items()]
    for line in lines:
        if "\n" in line or "\r" in line:
            raise ValueError(f"metadata line {line!r} holds a line break")
    return "".join(f"# {line}\n" for line in lines)


def csv_text(metadata: dict | None, columns, rows) -> str:
    """The metadata header, the column line, then one line per row. A float
    cell (Python or numpy) is written as repr(float(x)), so it reads back bit
    for bit; any other cell as str(x)."""
    def cell(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    return metadata_header(metadata) + "".join(
        ",".join(map(cell, row)) + "\n" for row in (columns, *rows))


def read_metadata_header(text: str) -> tuple[dict, int]:
    """The leading ``#`` lines of text as a dict, and the index in text of
    the first character after them (the text itself is not copied).

    Blank lines among the header lines are skipped. Keys are stripped;
    values keep everything after the first ``=`` except trailing space. A key
    that appears twice raises ValueError.
    """
    metadata: dict = {}
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line = text[pos:end].strip()
        if line and not line.startswith("#"):
            break
        if line:
            key, _, value = line[1:].strip().partition("=")
            key = key.strip()
            if key in metadata:
                raise ValueError(f"header key {key!r} appears twice")
            metadata[key] = value
        pos = end + 1
    return metadata, min(pos, len(text))
