"""CSV and JSON text of the command line's tables, from their columns.

`render_csv` writes each distinct int or float of a column once: a table
is one byte matrix, each distinct value a row of bytes with NUL where
nothing prints, and the floats of a large table come from
`chainent.digits`, a numpy kernel with %.17g's bytes, which is imported
on first use.  `render_json` writes the rows through `json`.
"""

import json

import numpy as np

#: rows of one chunk of `render_csv`'s byte matrix
RENDER_CHUNK = 2**12

#: a table with fewer distinct floats than this formats each with %.17g
RENDER_CROSSOVER = 250

#: bytes of one float's row: `digits.fill`'s 45 slots, and three NULs that
#: make it six uint64s
FLOAT_SLOTS = 48


def _float_slots(values: np.ndarray, vectorise: bool) -> np.ndarray:
    """The %.17g text of each float of `values`, one row of `FLOAT_SLOTS`
    bytes each with NUL where nothing prints: from `digits.fill`, with
    %.17g for each float it leaves, or for each float if not
    `vectorise`."""
    if not vectorise:
        return _text_rows(list(map(b"%.17g".__mod__, values.tolist())),
                          f"S{FLOAT_SLOTS}")
    # imported here, so a process compiles the kernel only if it needs it
    from . import digits
    out = np.zeros((values.size, FLOAT_SLOTS), np.uint8)
    slow = np.flatnonzero(~digits.fill(values, out))
    if slow.size:
        out[slow] = _float_slots(values[slow], False)
    return out


def _text_rows(texts: list, dtype=bytes) -> np.ndarray:
    """ASCII strings or bytes as rows of bytes, each padded with NUL to the
    longest, or to the width of a bytes `dtype`."""
    rows = np.array(texts, dtype=dtype)
    return rows.view(np.uint8).reshape(rows.size, rows.itemsize)


def _distinct(column) -> tuple[np.ndarray, np.ndarray, bool]:
    """A column's distinct ints, or floats by bit pattern (not by value,
    which would print -0.0 as 0), each row's index among them, and whether
    a cell is None (in an object column), which indexes one past the
    last."""
    column = np.asarray(column)
    if column.dtype == object:          # values, and None for no value
        keep = np.not_equal(column, None)
        values, inverse, _ = _distinct(column[keep].tolist())
        full = np.full(column.shape, values.size)
        full[keep] = inverse
        return values, full, not keep.all()
    # np.unique's sort and scatter, less its per-call overhead, which a
    # small table pays once per column
    keys = column.view(np.int64) if column.dtype.kind == "f" else column
    order = keys.argsort()
    ordered = keys[order]
    first = np.empty(keys.size, bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(keys.size, np.intp)
    inverse[order] = first.cumsum() - 1
    return ordered[first].view(column.dtype), inverse, False


def _column_rows(cells) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per column of `cells`, the bytes of its distinct values, one row
    each with an empty row below them if a cell is None, less the slots no
    row prints, and each cell's row among them."""
    parts = [_distinct(cell) for cell in cells]
    floats = [values for values, _, _ in parts if values.dtype.kind == "f"]
    vectorise = sum(map(len, floats)) >= RENDER_CROSSOVER
    slots = _float_slots(np.concatenate(floats) if floats else np.empty(0),
                         vectorise)
    columns, used = [], 0
    for values, inverse, blank in parts:
        if values.dtype.kind == "f":
            rows = slots[used:used + values.size]
            used += values.size
            if vectorise:
                printed = np.bitwise_or.reduce(rows.view(np.uint64), axis=0)
                rows = rows[:, printed.view(np.uint8) != 0]
        else:
            rows = _text_rows(list(map(str, values.tolist())))
        if blank:
            rows = np.concatenate((rows, np.zeros((1, rows.shape[1]),
                                                  np.uint8)))
        columns.append((rows, inverse))
    return columns


def render_csv(schema_tag: str, columns, cells) -> str:
    """CSV under a `# schema` line and a header, from `cells`, one array or
    sequence per column in `columns` order.  An int column's cells are
    written with `str` and a float column's with %.17g, each distinct bit
    pattern of a column once and gathered back to its rows; a None cell,
    in an object column, is empty.  The bytes are those of one format per
    cell.

    Each distinct value is a row of bytes with NUL where nothing prints:
    an int's `str`, and a float's `FLOAT_SLOTS` slots from `_float_slots`
    (sign, `0.000` lead, 17 digits each followed by a point, `e+XXX`),
    less the slots no row of its column prints.  For `RENDER_CHUNK` rows
    at a time the columns' rows are gathered to table order and put side
    by side with the separators, and the NULs are squeezed out with one
    mask; the text is decoded once.

    A table of at least `RENDER_CROSSOVER` distinct floats takes their
    digits from `digits.fill`, for 1e-290 <= |x| <= 1e300: x times a
    correctly rounded double-double 10^(16 - e), by Dekker's exact
    product, is the 17-digit integer plus a fraction off by under 1e-14.
    A fraction within 2^-20 of 1/2 (a tie or nearly one), a wrong
    estimate of e, and every float outside that range or not finite are
    formatted with %.17g, as is each float of a smaller table.
    """
    text = [np.frombuffer(f"# {schema_tag}\n{','.join(columns)}\n".encode(),
                          np.uint8)]
    tables = _column_rows(cells)
    count = len(tables[0][1])
    comma, newline = (np.full((min(count, RENDER_CHUNK), 1), ord(char),
                              np.uint8) for char in ",\n")
    ends = [comma] * (len(tables) - 1) + [newline]
    for start in range(0, count, RENDER_CHUNK):
        pieces = []
        for (rows, inverse), end in zip(tables, ends):
            block = rows.take(inverse[start:start + RENDER_CHUNK], 0)
            pieces += block, end[:len(block)]
        matrix = np.concatenate(pieces, axis=1)
        text.append(matrix[matrix != 0])
    # one copy of the text at a time: the chunks go as they are joined
    text = np.concatenate(text)
    return str(text, "ascii")


def render_json(schema_tag: str, columns, cells) -> str:
    """JSON rows of `cells`, taken as `render_csv` takes them: `tolist`
    gives Python ints, floats and None."""
    rows = [dict(zip(columns, row))
            for row in zip(*(np.asarray(c).tolist() for c in cells))]
    return json.dumps({"schema": schema_tag, "rows": rows}, indent=2) + "\n"
