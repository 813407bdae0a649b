"""The one CSV format of every table the package writes.

A header line, then one line per row; cells are joined by commas and lines
end in a bare newline.  Float columns print with ``"%.17g"`` (the same text
as ``format(x, ".17g")``), which round-trips every float64 exactly; other
columns (integers, strings) print with ``"%s"``, i.e. ``str``.  The format is
chosen once per column from its numpy dtype.  Rows are formatted and written
in slices, one ``%`` call per slice, so a large table never exists as one
string.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# rows turned into text at a time, which bounds the text held in memory
_ROWS_PER_WRITE = 1 << 12


def write_csv(path, header, columns) -> None:
    """Write equal-length columns (scalars broadcast) under a header row."""
    cols = np.broadcast_arrays(*(np.asarray(c) for c in columns))
    rows = len(cols[0]) if cols else 0
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, rows, _ROWS_PER_WRITE):
            part = [c[a : a + _ROWS_PER_WRITE].tolist() for c in cols]
            fh.write(line * len(part[0]) % tuple(chain.from_iterable(zip(*part))))
