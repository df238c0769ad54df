import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import in_neighbors, index_vertex, out_neighbors
from orientedcp import lattice
from orientedcp.errors import ResourceLimitError
from orientedcp.lattice import BoxSpec


def test_boxspec_basics():
    box = BoxSpec(d=2, side=4)
    assert box.n_vertices == 25
    assert box.origin == (0, 0)
    assert box.apex == (4, 4)


def test_boxspec_validation():
    with pytest.raises(ValueError):
        BoxSpec(d=0, side=3)
    with pytest.raises(ValueError):
        BoxSpec(d=2, side=0)
    with pytest.raises(ResourceLimitError):
        BoxSpec(d=12, side=31)  # 32^12 vertices


def test_out_neighbors_examples():
    box = BoxSpec(d=2, side=4)
    assert out_neighbors((0, 0), box) == [(1, 0), (0, 1)]
    assert out_neighbors((4, 4), box) == []
    box3 = BoxSpec(d=3, side=2)
    assert out_neighbors((1, 2, 0), box3) == [(2, 2, 0), (1, 2, 1)]


def test_in_neighbors_examples():
    box = BoxSpec(d=2, side=4)
    assert in_neighbors((0, 0), box) == []
    assert in_neighbors((2, 3), box) == [(1, 3), (2, 2)]


def test_in_neighbor_counting_identity():
    box = BoxSpec(d=3, side=3)
    for x in itertools.product(range(4), repeat=3):
        zeros = sum(1 for c in x if c == 0)
        assert len(in_neighbors(x, box)) + zeros == 3


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_neighbor_relations_mutually_inverse(d):
    box = BoxSpec(d=d, side=4)
    verts = list(itertools.product(range(5), repeat=d))
    outs = {x: set(out_neighbors(x, box)) for x in verts}
    ins = {x: set(in_neighbors(x, box)) for x in verts}
    for x in verts:
        for y in outs[x]:
            assert x in ins[y]
        for y in ins[x]:
            assert x in outs[y]


def test_vertex_index_roundtrip_exhaustive():
    for d in (1, 2, 3):
        box = BoxSpec(d=d, side=3)
        seen = set()
        for x in itertools.product(range(4), repeat=d):
            i = lattice.vertex_index(box, x)
            assert 0 <= i < box.n_vertices
            assert index_vertex(box, i) == x
            seen.add(i)
        assert len(seen) == box.n_vertices


def test_vertex_index_origin_is_zero():
    box = BoxSpec(d=3, side=2)
    assert lattice.vertex_index(box, box.origin) == 0
    assert lattice.vertex_index(box, box.apex) == box.n_vertices - 1


@given(st.integers(1, 4), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_vertex_index_roundtrip_random(d, side, data):
    box = BoxSpec(d=d, side=side)
    x = tuple(data.draw(st.integers(0, side)) for _ in range(d))
    assert index_vertex(box, lattice.vertex_index(box, x)) == x


@pytest.mark.parametrize("d, side", [(1, 9), (2, 7), (3, 5), (4, 4), (5, 3)])
def test_neighbor_lists_equal_the_row_comprehension(d, side):
    # the block-wise tolist rows are the tuples of a plain walk over the rows
    box = BoxSpec(d=d, side=side)
    for lists, table in ((lattice.out_neighbor_lists, lattice.out_neighbor_indices),
                         (lattice.in_neighbor_lists, lattice.in_neighbor_indices)):
        want = tuple(tuple(int(j) for j in row if j >= 0) for row in table(box))
        got = lists(box)
        assert got == want
        assert all(type(j) is int for row in got for j in row)


def test_neighbor_lists_span_several_blocks():
    box = BoxSpec(d=2, side=90)  # 8281 rows, three conversion blocks
    want = tuple(tuple(int(j) for j in row if j >= 0)
                 for row in lattice.out_neighbor_indices(box))
    assert box.n_vertices > 2 * lattice._LIST_BLOCK
    assert lattice.out_neighbor_lists(box) == want


def test_neighbor_index_tables_match_lists():
    box = BoxSpec(d=2, side=3)
    out_tab = lattice.out_neighbor_indices(box)
    in_tab = lattice.in_neighbor_indices(box)
    assert out_tab.shape == (box.n_vertices, 2)
    for i in range(box.n_vertices):
        x = index_vertex(box, i)
        want_out = {lattice.vertex_index(box, y) for y in out_neighbors(x, box)}
        want_in = {lattice.vertex_index(box, y) for y in in_neighbors(x, box)}
        assert {v for v in out_tab[i] if v >= 0} == want_out
        assert {v for v in in_tab[i] if v >= 0} == want_in


def test_site_index_accepts_both_forms_in_range():
    box = BoxSpec(d=2, side=3)
    assert lattice.site_index(box, (1, 2)) == lattice.vertex_index(box, (1, 2)) == 6
    assert lattice.site_index(box, 6) == lattice.site_index(box, np.int32(6)) == 6
    assert isinstance(lattice.site_index(box, np.int64(15)), int)
    for bad in (-1, 16, (4, 0), (0, -1), (1, 1, 1)):
        with pytest.raises(ValueError):
            lattice.site_index(box, bad)


def test_edge_table_counts_and_endpoints():
    box = BoxSpec(d=3, side=2)
    src, dst, axis = lattice.edge_table(box)
    # side edges per axis line, (side+1)^(d-1) lines per axis
    assert len(src) == 3 * 2 * 3 ** 2
    for s, t, a in zip(src, dst, axis):
        xs = index_vertex(box, int(s))
        xt = index_vertex(box, int(t))
        diff = tuple(b - a_ for a_, b in zip(xs, xt))
        assert diff == tuple(1 if k == a else 0 for k in range(3))


def test_in_box():
    box = BoxSpec(d=2, side=2)
    assert lattice.in_box(box, (0, 2))
    assert not lattice.in_box(box, (3, 0))
    assert not lattice.in_box(box, (-1, 0))
