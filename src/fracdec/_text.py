"""Text tables written a block of rows at a time.

Mesh files and command-line tables are laid out row by row, but each
block of rows is formatted by one ``%`` template, so no Python code runs
per value.  ``%s`` gives ``str``, which is ``repr`` for a Python float,
and JSON values come from the C encoder, one call per column of a block.
Columns are lists or numpy arrays; an array is turned into Python values
(``tolist``) a block at a time, so a large table is never held as Python
objects all at once.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

BLOCK_ROWS = 4096


def json_text(values):
    """The JSON text of each value of a list, as ``json.dump`` writes it."""
    parts = json.dumps(values)[1:-1].split(", ")
    if len(parts) != len(values):  # "[]", or a string holding ", "
        parts = list(map(json.dumps, values))
    return parts


def blocks(template, columns, encode=False):
    """Yield ``template % row`` for every row of the columns, joined a
    block of rows at a time; with encode, the row holds the values'
    JSON text."""
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        cells = [c[start:start + BLOCK_ROWS] for c in columns]
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
        if encode:
            cells = [json_text(c) for c in cells]
        yield (template * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))


def write_json(fh, item, columns, depth, brackets="[]"):
    """Write the rows of the columns as a JSON list (or, with brackets
    "{}", an object) that json.dump(indent=1) would write at nesting
    depth `depth`; item is the template of one row, with one %s per
    column, each taking that value's JSON text."""
    texts = blocks(",\n" + " " * (depth + 1) + item, columns, encode=True)
    first = next(texts, None)
    if first is None:
        fh.write(brackets)
        return
    fh.write(brackets[0] + first[1:])
    fh.writelines(texts)
    fh.write("\n" + " " * depth + brackets[1])


def json_item(depth, width, keys=None):
    """The template of one row for write_json at `depth`: a JSON list
    of `width` >= 1 values or, given `width` keys, an object with those
    keys in that order."""
    brackets = "[]" if keys is None else "{}"
    heads = [""] * width if keys is None else \
        [json.dumps(k).replace("%", "%%") + ": " for k in keys]
    pad = "\n" + " " * (depth + 2)
    return (brackets[0] + ",".join(pad + head + "%s" for head in heads)
            + "\n" + " " * (depth + 1) + brackets[1])
