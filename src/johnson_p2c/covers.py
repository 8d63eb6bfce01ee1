"""Endpoint quadruples, two-path cover solutions, and the one quad check:
``check_quad`` on masks, which ``EndpointQuad.validate`` calls for a
Johnson or QJ graph.  ``wrap_cover`` is the one wrapper from the two mask
paths of a cover to a public ``P2CSolution``."""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadQuad
from .graphs import GenericGraph
from .hamilton import Path, wrap_path
from .subsets import foreign_key, key_text, mask_keys


def not_distinct(texts) -> BadQuad:
    """The error for a quad that repeats a vertex, given the four texts."""
    return BadQuad(f"endpoints not pairwise distinct: ({', '.join(texts)})")


def check_quad(quad, n: int, levels):
    """Return the masks ``quad`` if they are four distinct vertices of the
    graph on the subsets of [n] with cardinalities ``levels`` (J(n,k) has
    the one level k); else raise BadQuad, showing masks as ElementSets."""
    if len(set(quad)) != 4:
        raise not_distinct([key_text(w, repr) for w in quad])
    w = foreign_key(quad, n, levels)
    if w is not None:
        raise BadQuad(f"{key_text(w)} is not a vertex of the host graph")
    return quad


class EndpointQuad(NamedTuple):
    """Four pairwise-distinct vertices paired as (u,v) and (x,y)."""

    u: object
    v: object
    x: object
    y: object

    def vertices(self) -> tuple:
        return tuple(self)

    def validate(self, g):
        """Raise BadQuad unless the quad is four distinct vertices of g; return
        their keys: masks on J(n,k) and QJ(n,A), the vertices themselves on
        an explicit graph."""
        vs = self.vertices()
        if not isinstance(g, GenericGraph):
            return check_quad(mask_keys(vs, g.n), g.n, g.levels)
        if len(set(vs)) != 4:
            raise not_distinct(map(repr, vs))
        for w in vs:
            if not g.has_vertex(w):
                raise BadQuad(f"{w} is not a vertex of the host graph")
        return vs


class P2CSolution(NamedTuple):
    """Two vertex-disjoint paths covering the host graph, one per endpoint pair."""

    path_uv: Path
    path_xy: Path

    def to_json(self) -> dict:
        return {"path_uv": self.path_uv.to_json(), "path_xy": self.path_xy.to_json()}


def wrap_cover(q: EndpointQuad, paths, n: int) -> P2CSolution:
    """The oriented mask paths of a cover over [n] as ``ElementSet`` paths
    that end at the quad's own vertex objects."""
    u, v, x, y = q.vertices()
    p1, p2 = paths
    return P2CSolution(wrap_path(u, p1, v, n), wrap_path(x, p2, y, n))
