"""Deterministic JSON emission for reports and certificates.

Reports must be byte-identical across runs of the same configuration, so all
floats are rendered through one fixed 17-significant-digit formatter and key
order is the insertion order of the dictionaries built by the callers (never
locale-, hash-, or time-dependent).
"""

from __future__ import annotations

import json
import math

__all__ = ["format_float", "canonical_json", "write_json"]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot appear in a report")
    if x == int(x) and abs(x) < 1e16:
        return f"{int(x)}.0"
    return format(x, ".17g")


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(":")
            _encode(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _encode(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj) + "\n")
