"""Serialization helpers: locale-independent CSV with 17-significant-digit
floats, and stable JSON.  Byte-identical output for identical inputs is part
of the contract (reports are diffed across runs)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def write_csv(path, columns, rows) -> int:
    """Write the header, then each row of any iterable as it is drawn, so
    that neither the rows nor the CSV text are held whole; return the number
    of rows written."""
    count = 0
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(fmt_value(row.get(c)) for c in columns) + "\n")
            count += 1
    return count


def json_string(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(json_string(obj), encoding="ascii", newline="\n")
