"""Ground-set and k-subset arithmetic.

A vertex of a Johnson-style graph is a subset of [n] = {1, ..., n} packed
into an int: bit ``e`` stores element ``e`` (bit 0 is never used), so the
natural unsigned ordering of the bit vectors is the canonical "bit-vector
order" used whenever a deterministic choice of vertex is needed.

The constructors, and the graphs' neighbor lists, work on these bare int
bitmasks (``full_mask``, ``k_masks``, ``same_level_masks``, ``up_masks``,
``down_masks``, ``cross_masks``).  ``ElementSet`` wraps a mask together
with its ground-set size and is the vertex type of the public API: entry
points unwrap their endpoints once (``mask_keys``) and wrap finished paths
once.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator


def full_mask(n: int) -> int:
    """The mask of [n] itself."""
    return ((1 << n) - 1) << 1


def mask_elements(bits: int) -> list[int]:
    """The elements of a mask in ascending order, one step per set bit."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def mask_text(bits: int) -> str:
    """A mask as set text, ``{1,3,4}``: the repr of its ``ElementSet``.  A
    negative int, which is no mask, is shown as itself."""
    if bits < 0:
        return str(bits)
    return "{%s}" % ",".join(map(str, mask_elements(bits)))


class ElementSet:
    """An immutable subset of [n], n >= 1, packed into an int."""

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int):
        if n < 1:
            raise ValueError(f"ground set size {n} below 1")
        if bits & 1 or bits >> n >> 1:
            raise ValueError(f"bits {bits:#x} outside ground set [1..{n}]")
        _set_bits(self, bits)
        _set_n(self, n)

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    def __reduce__(self):
        return ElementSet, (self.bits, self.n)

    @classmethod
    def from_elements(cls, elements, n: int) -> "ElementSet":
        bits = 0
        for e in elements:
            if type(e) is bool or not isinstance(e, int) or not 1 <= e <= n:
                raise ValueError(f"element {e!r} outside [1..{n}]")
            bits |= 1 << e
        return cls(bits, n)

    def elements(self) -> tuple[int, ...]:
        return tuple(mask_elements(self.bits))

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, e: int) -> bool:
        return 1 <= e <= self.n and bool(self.bits >> e & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.bits == other.bits
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash(self.bits)

    def __lt__(self, other: "ElementSet") -> bool:
        return self.bits < other.bits

    def __le__(self, other: "ElementSet") -> bool:
        return self.bits <= other.bits

    def __repr__(self) -> str:
        return mask_text(self.bits)

    def to_json(self) -> list[int]:
        return mask_elements(self.bits)


# The slots' own setters, which skip the immutability guard above.
_set_bits = ElementSet.bits.__set__
_set_n = ElementSet.n.__set__


def mask_keys(vertices, n: int) -> list:
    """The masks of vertices that are ``ElementSet``s over [n].  Anything
    else becomes a 1-tuple around itself: it is no mask, so no vertex
    check accepts it, and it equals only the 1-tuple of an equal object."""
    return [
        v.bits if isinstance(v, ElementSet) and v.n == n else (v,) for v in vertices
    ]


def foreign_key(keys, n: int, levels):
    """The first of the vertex keys of ``mask_keys`` that is no mask of a
    subset of [n] with a cardinality in ``levels``; None if all are."""
    outside = ~full_mask(n)
    for w in keys:
        if type(w) is tuple or w & outside or w.bit_count() not in levels:
            return w
    return None


def key_text(w, show=str) -> str:
    """A vertex key of ``mask_keys`` as text: a mask as its set text, a
    1-tuple as ``show`` of the object it holds."""
    return show(w[0]) if type(w) is tuple else mask_text(w)


def vertex_json(v):
    """The JSON form of a vertex: an ElementSet's elements; an int vertex of
    an explicit graph is its own."""
    return v.to_json() if isinstance(v, ElementSet) else v


class Relabeling:
    """A permutation of [n], applied pointwise to element sets."""

    __slots__ = ("perm",)

    def __init__(self, perm):
        perm = tuple(perm)
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("not a permutation of [n]")
        object.__setattr__(self, "perm", perm)

    def __setattr__(self, name, value):
        raise AttributeError("Relabeling is immutable")

    def __reduce__(self):
        return Relabeling, (self.perm,)

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "Relabeling":
        return cls(range(1, n + 1))

    @classmethod
    def swap(cls, i: int, j: int, n: int) -> "Relabeling":
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"swap of {i} and {j} leaves [{n}]")
        perm = list(range(1, n + 1))
        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
        return cls(perm)

    def __call__(self, e: int) -> int:
        return self.perm[e - 1]

    def inverse(self) -> "Relabeling":
        inv = [0] * self.n
        for i, image in enumerate(self.perm):
            inv[image - 1] = i + 1
        return Relabeling(inv)


def apply_relabeling(r: Relabeling, s: ElementSet) -> ElementSet:
    """Pointwise image of s under the permutation r, both over [n]."""
    if r.n != s.n:
        raise ValueError(f"a relabeling of [{r.n}] applied to a subset of [{s.n}]")
    bits = 0
    b = s.bits
    e = 1
    while b >> e:
        if b >> e & 1:
            bits |= 1 << r.perm[e - 1]
        e += 1
    return ElementSet(bits, s.n)


def complement(s: ElementSet) -> ElementSet:
    return ElementSet(full_mask(s.n) ^ s.bits, s.n)


def up_masks(s: int, n: int, target_card: int) -> list[int]:
    """All supersets of the mask s in [n] with the given cardinality,
    bit-vector order."""
    missing = [1 << e for e in range(1, n + 1) if not s >> e & 1]
    extras = combinations(missing, target_card - s.bit_count())
    out = [s | sum(extra) for extra in extras]
    out.sort()
    return out


def down_masks(s: int, target_card: int) -> list[int]:
    """All subsets of the mask s with the given cardinality, bit-vector order."""
    bits = [1 << e for e in mask_elements(s)]
    out = [sum(kept) for kept in combinations(bits, target_card)]
    out.sort()
    return out


def cross_masks(s: int, n: int, card_to: int) -> list[int]:
    """Neighbors of the mask s at the level of cardinality card_to, in
    bit-vector order."""
    if card_to > s.bit_count():
        return up_masks(s, n, card_to)
    return down_masks(s, card_to)


def same_level_masks(s: int, n: int) -> list[int]:
    """All Johnson neighbors of the mask s in [n], bit-vector order; there
    are k(n-k) for a k-subset, none when k is 0 or n."""
    inside = [1 << e for e in mask_elements(s)]
    outside = [1 << e for e in range(1, n + 1) if not s >> e & 1]
    out = [s ^ a | b for a in inside for b in outside]
    out.sort()
    return out


def k_masks(n: int, k: int) -> Iterator[int]:
    """All k-subsets of [n] as masks, in ascending bit-vector order.

    Iterates Gosper-style over bit patterns so the order is the canonical
    one without a sort.
    """
    if k == 0:
        yield 0
        return
    if k > n:
        return
    # Gosper's hack on 0-indexed masks; shift by one for element bits.
    limit = 1 << n
    v = (1 << k) - 1
    while v < limit:
        yield v << 1
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def k_subsets(n: int, k: int) -> Iterator[ElementSet]:
    """All k-subsets of [n] in ascending bit-vector order."""
    for bits in k_masks(n, k):
        yield ElementSet(bits, n)
