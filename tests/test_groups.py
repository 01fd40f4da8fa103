"""Finite group tables and their validation."""

import pytest

from fusionhom.groups import Group, NotAGroup, cyclic, dihedral, symmetric


def test_cyclic_orders():
    for n in (1, 2, 3, 5, 8):
        g = cyclic(n)
        assert len(g.elements) == n
        assert g.identity == g.elements[0]


def test_dihedral_order():
    g = dihedral(4)
    assert len(g.elements) == 8
    r = ("r", 1)
    s = ("s", 0)
    assert g.mul[s, g.mul[r, s]] == g.inv[r]


def test_symmetric_composition():
    g = symmetric(3)
    assert len(g.elements) == 6
    a = (1, 0, 2)
    b = (0, 2, 1)
    ab = g.mul[a, b]
    # apply b first, then a
    assert ab == tuple(a[b[i]] for i in range(3))


def test_inverses_multiply_to_identity():
    for g in (cyclic(6), dihedral(3), symmetric(4)):
        for x in g.elements:
            assert g.mul[x, g.inv[x]] == g.identity


def test_not_a_group_missing_inverse():
    # multiplication on {0, 1} with absorbing 1 has no inverse for 1
    mul = {(a, b): max(a, b) for a in (0, 1) for b in (0, 1)}
    with pytest.raises(NotAGroup):
        Group([0, 1], mul, {0: 0, 1: 1}, name="bad")


@pytest.mark.parametrize("build", [cyclic, dihedral], ids=["Z0", "D0"])
def test_empty_group_is_not_a_group(build):
    with pytest.raises(NotAGroup, match="no elements"):
        build(0)


def test_trivial_symmetric_group():
    g = symmetric(0)
    assert g.elements == ((),)
    assert g.mul[(), ()] == ()


def test_not_a_group_nonassociative():
    # start from Z/5 and bend one product away from the identity row
    elems = tuple(range(5))
    mul = {(a, b): (a + b) % 5 for a in elems for b in elems}
    mul[1, 2] = 4
    inv = {a: (-a) % 5 for a in elems}
    with pytest.raises(NotAGroup, match="associativity"):
        Group(elems, mul, inv, name="bent")

