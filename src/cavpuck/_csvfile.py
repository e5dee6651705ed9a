"""The CSV format of cavpuck's numeric tables: `# key=value` meta lines, a
header line of column names, then rows of comma-separated numbers.  Blank
lines are skipped, and after the header `#` starts a comment.  Numbers
follow numpy's text parser, which refuses some spellings float() takes,
such as `1_0`, and quoted cells.  Sweep CSVs share the meta lines.
"""

from __future__ import annotations

import numpy as np


def meta_block(meta: dict) -> str:
    """meta as `# key=value` lines, sorted by key."""
    return "".join(f"# {key}={meta[key]}\n" for key in sorted(meta))


def read_table(path, headers):
    """(header, rows, meta) of the CSV file at path.

    header is the file's tuple of column names, one of headers; rows holds
    one float row per data line, at least one; meta maps each meta key to
    its value, a float where it parses as one.  Any other file raises
    ValueError as `path:line: ...`: the rows are parsed in one np.loadtxt
    call; if that fails, in one more call on the lines that hold data (numpy
    reads a line of spaces as a row of one empty cell); and only if that
    fails too, line by line, by the same parser.
    """
    meta, header = {}, None
    with open(path) as fh:
        lines = iter(fh.readline, "")  # not `for line in fh`, which disables tell()
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line.startswith("#"):
                key, eq, value = line.lstrip("#").partition("=")
                if eq:
                    try:
                        meta[key.strip()] = float(value)
                    except ValueError:
                        meta[key.strip()] = value.strip()
            elif line:
                header = tuple(cell.strip() for cell in line.split(","))
                break
        if header is not None and header not in headers:
            expected = " or ".join(repr(",".join(h)) for h in headers)
            raise ValueError(
                f"{path}:{lineno}: unrecognized header {','.join(header)!r} "
                f"(expected header {expected})"
            )
        start = fh.tell()
        if header is None or not any(line.partition("#")[0].strip() for line in lines):
            raise ValueError(f"{path}: empty file: no data rows")
        fh.seek(start)
        rows = _parse(fh, len(header))
        if rows is None:
            fh.seek(start)
            rows = _parse([raw for raw in fh if raw.partition("#")[0].strip()], len(header))
        if rows is not None:
            return header, rows, meta
        fh.seek(start)
        rows = []
        for lineno, raw in enumerate(fh, start=lineno + 1):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            cells = line.count(",") + 1
            if cells != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {cells}")
            try:
                rows.append(np.loadtxt([line], delimiter=",", ndmin=1))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value in {raw.strip()!r}") from None
    return header, np.array(rows), meta


def _parse(lines, n_columns):
    """All rows of lines in one np.loadtxt call, or None if that call fails
    or gives rows of another width."""
    try:
        rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == n_columns else None
