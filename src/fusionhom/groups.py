"""Small finite groups as explicit multiplication tables.

A group is a plain dict-based structure: a tuple of hashable element
labels with the identity first, a multiplication dict, and an inverse
dict.  These feed the group-ring constructions; nothing here is meant to
scale past a few hundred elements.
"""

from __future__ import annotations

from itertools import permutations


class NotAGroup(ValueError):
    """Multiplication table fails a group axiom; says which one."""


class Group:
    """Finite group given by its full multiplication table.

    elements: tuple with the identity at index 0.
    mul: dict (g, h) -> gh, total on elements x elements.
    inv: dict g -> g^{-1}.
    """

    def __init__(self, elements, mul, inv, name=""):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        self.inv = dict(inv)
        self.name = name
        validate_group(self)

    @property
    def identity(self):
        return self.elements[0]

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Group({self.name or len(self.elements)})"


def validate_group(g: Group) -> None:
    """Check closure, identity, inverses, associativity; raise NotAGroup."""
    elems = g.elements
    if not elems:
        raise NotAGroup(f"{g.name or 'group'} has no elements")
    eset = set(elems)
    if len(eset) != len(elems):
        raise NotAGroup("duplicate elements")
    e = elems[0]
    for a in elems:
        for b in elems:
            if (a, b) not in g.mul:
                raise NotAGroup(f"multiplication undefined at ({a}, {b})")
            if g.mul[a, b] not in eset:
                raise NotAGroup(f"not closed: {a}*{b} = {g.mul[a, b]}")
    for a in elems:
        if g.mul[e, a] != a or g.mul[a, e] != a:
            raise NotAGroup(f"identity law fails at {a}")
        if a not in g.inv or g.inv[a] not in eset:
            raise NotAGroup(f"no inverse listed for {a}")
        if g.mul[a, g.inv[a]] != e or g.mul[g.inv[a], a] != e:
            raise NotAGroup(f"inverse law fails at {a}")
    for a in elems:
        for b in elems:
            for c in elems:
                if g.mul[g.mul[a, b], c] != g.mul[a, g.mul[b, c]]:
                    raise NotAGroup(f"associativity fails at ({a}, {b}, {c})")


def cyclic(n: int) -> Group:
    """Z/n with elements 0..n-1 under addition mod n."""
    elems = tuple(range(n))
    mul = {(a, b): (a + b) % n for a in elems for b in elems}
    inv = {a: (-a) % n for a in elems}
    return Group(elems, mul, inv, name=f"Z/{n}")


def dihedral(n: int) -> Group:
    """D_n of order 2n; elements ('r', k) and ('s', k) for k mod n.

    ('r', k) is rotation by k, ('s', k) is the reflection r^k s, with the
    relations s r = r^{-1} s.
    """
    rots = [("r", k) for k in range(n)]
    refs = [("s", k) for k in range(n)]
    elems = tuple(rots + refs)

    def multiply(a, b):
        ta, ka = a
        tb, kb = b
        if ta == "r" and tb == "r":
            return ("r", (ka + kb) % n)
        if ta == "r" and tb == "s":
            return ("s", (ka + kb) % n)
        if ta == "s" and tb == "r":
            return ("s", (ka - kb) % n)
        return ("r", (ka - kb) % n)

    mul = {(a, b): multiply(a, b) for a in elems for b in elems}
    inv = {}
    for a in elems:
        for b in elems:
            if mul[a, b] == ("r", 0):
                inv[a] = b
                break
    return Group(elems, mul, inv, name=f"D{n}")


def symmetric(n: int) -> Group:
    """S_n as tuples giving images of 0..n-1; identity first."""
    ident = tuple(range(n))
    elems = [ident] + sorted(p for p in permutations(range(n)) if p != ident)

    def compose(a, b):
        # act left-to-right: (a*b)(x) = a(b(x))
        return tuple(a[b[x]] for x in range(n))

    mul = {(a, b): compose(a, b) for a in elems for b in elems}
    inv = {}
    for a in elems:
        ia = [0] * n
        for x in range(n):
            ia[a[x]] = x
        inv[a] = tuple(ia)
    return Group(elems, mul, inv, name=f"S{n}")

