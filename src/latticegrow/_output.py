"""The one CSV format of every table the package writes.

A header line, then one line per row; cells are joined by commas and lines
end in a bare newline.  Float columns print with ``format(x, ".17g")``, which
round-trips every float64 exactly; other columns (integers, strings) print
with ``str``.  The format is chosen once per column from its numpy dtype.
Rows are formatted and written in slices, so a large table never exists as
one list of strings.
"""

from __future__ import annotations

import numpy as np


def _cells(column: np.ndarray) -> list:
    if column.dtype.kind == "f":
        return [format(x, ".17g") for x in column.tolist()]
    return [str(x) for x in column.tolist()]


# rows turned into strings at a time, which bounds the text held in memory
_ROWS_PER_WRITE = 1 << 16


def write_csv(path, header, columns) -> None:
    """Write equal-length columns (scalars broadcast) under a header row."""
    cols = np.broadcast_arrays(*(np.asarray(c) for c in columns))
    rows = len(cols[0]) if cols else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, rows, _ROWS_PER_WRITE):
            part = [c[a : a + _ROWS_PER_WRITE] for c in cols]
            fh.writelines(",".join(row) + "\n" for row in zip(*map(_cells, part)))
