"""Independent checks of what the program printed.

The benchmark does not trust the package's own checker: ``check_cover``
re-derives every property of a paired 2-disjoint path cover of J(n,k)
from the emitted JSON, with vertices as plain bitmasks (bit e is element
e), and ``check_summary`` refuses a sweep summary that certifies fewer
quads than were requested.
"""

from __future__ import annotations

import json
from math import comb


def _bits(vertex, n: int, k: int) -> int:
    if not isinstance(vertex, list) or len(vertex) != k:
        raise ValueError(f"vertex {vertex!r} is not a {k}-subset")
    bits = 0
    for e in vertex:
        if not isinstance(e, int) or not 1 <= e <= n or bits >> e & 1:
            raise ValueError(f"vertex {vertex!r} is not a {k}-subset of [1..{n}]")
        bits |= 1 << e
    return bits


def check_cover(text: bytes, n: int, k: int, quad) -> str | None:
    """None if ``text`` is a valid cover of J(n,k) for quad (u,v,x,y) given
    as bitmasks; otherwise the reason it is not."""
    try:
        doc = json.loads(text)
        paths = [[_bits(w, n, k) for w in doc[key]] for key in ("path_uv", "path_xy")]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable cover: {exc}"
    u, v, x, y = quad
    for path, ends in zip(paths, ({u, v}, {x, y})):
        if not path or {path[0], path[-1]} != ends:
            return "wrong endpoints"
        for a, b in zip(path, path[1:]):
            if (a ^ b).bit_count() != 2:
                return "step along a non-edge"
    seen = set(paths[0]) | set(paths[1])
    if len(seen) != len(paths[0]) + len(paths[1]):
        return "a vertex repeats"
    if len(seen) != comb(n, k):
        return f"{len(seen)} of {comb(n, k)} vertices covered"
    return None


def check_summary(line: str, requested: int) -> tuple[int, str | None]:
    """(certified quads, reason or None) for one sweep summary line."""
    try:
        doc = json.loads(line)
        total, valid = doc["total"], doc["valid"]
        bad = doc["invalid"] + doc["errors"]
    except (ValueError, KeyError, TypeError) as exc:
        return 0, f"unparsable summary: {exc}"
    if total != requested:
        return 0, f"summary total {total} != requested {requested}"
    if bad or valid != total:
        return valid, f"{bad} invalid or failed quads"
    return valid, None
