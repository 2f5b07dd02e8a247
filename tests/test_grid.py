"""The cell grid narrows every obstacle test to the cells under the query,
and the bearing broad phase narrows a shared ABS's links. Each test here
compares a grid-backed or bearing-backed result with a dense reference
over every footprint, on the inputs where a cell lookup could go wrong:
points and discs on cell lines, footprint edges and corners and the city
border, and links along cell lines, parallel to an axis or ending on a
corner."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urbanlos.citygen import (
    BUILDING,
    DISC,
    GRID_PAD,
    USER,
    BuiltUpParams,
    CityLayout,
    FootprintIndex,
    GenConfig,
    cells_under,
    table,
)
from urbanlos.geometry import LayoutGeometry, _disc_chords, _rect_chords, _required_altitude, link_maxima

SIDE = 1000.0
OUTSIDE = [(-20.0, 300.0), (1020.0, 600.0), (400.0, -15.0), (700.0, 1012.0)]
NO_DISCS = table((), DISC)


def _rects(layout):
    b = layout.buildings
    return np.column_stack((b.x, b.y, b.x + b.w, b.y + b.l))


def _discs(layout):
    return np.column_stack([np.concatenate((layout.trees[k], layout.lights[k])) for k in "xyr"])


def _dense_blocked(layout, px, py):
    """(P,) point-in-footprint flags over every footprint of the layout."""
    b, d = _rects(layout), _discs(layout)
    x, y = px[:, None], py[:, None]
    in_rect = (x >= b[:, 0]) & (x <= b[:, 2]) & (y >= b[:, 1]) & (y <= b[:, 3])
    in_disc = (x - d[:, 0]) ** 2 + (y - d[:, 1]) ** 2 <= d[:, 2] ** 2
    return in_rect.any(axis=1) | in_disc.any(axis=1)


def _dense_disc_is_free(layout, cx, cy, r):
    """(P,) flags: the disc is inside the city and meets no building interior."""
    b = _rects(layout)
    x, y, rr = cx[:, None], cy[:, None], r[:, None]
    dx = np.maximum(np.maximum(b[:, 0] - x, 0.0), x - b[:, 2])
    dy = np.maximum(np.maximum(b[:, 1] - y, 0.0), y - b[:, 3])
    inside = (cx - r >= 0.0) & (cy - r >= 0.0) & (cx + r <= SIDE) & (cy + r <= SIDE)
    return inside & ~(dx * dx + dy * dy < rr * rr).any(axis=1)


def _layout(buildings=(), trees=(), lights=()):
    """A layout of the given rows: (x, y, w, l, h) per building and
    (x, y, r, h) per tree and light, with no users."""
    n = max(len(buildings), 1)
    return CityLayout(
        params=BuiltUpParams(alpha=0.3, beta=float(n), gamma=15.0),
        config=GenConfig(n_trees=len(trees), n_lights=len(lights), n_gu=0),
        buildings=table(buildings, BUILDING),
        trees=table(trees, DISC),
        lights=table(lights, DISC),
        users=table((), USER),
    )


def _special_points(layout, gdim):
    """x and y values where a lookup is at risk: cell lines, footprint edges
    and disc extremes, the city border; each also one ulp to either side."""
    lines = np.arange(gdim + 1) * (SIDE / gdim)
    b, d = _rects(layout), _discs(layout)
    xs = np.concatenate([lines, b[:, 0], b[:, 2], d[:, 0] - d[:, 2], d[:, 0] + d[:, 2], [0.0, SIDE]])
    ys = np.concatenate([lines, b[:, 1], b[:, 3], d[:, 1] - d[:, 2], d[:, 1] + d[:, 2], [0.0, SIDE]])
    return (np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]) for v in (xs, ys))


def _sample_points(layout, gdim, n, seed):
    xs, ys = _special_points(layout, gdim)
    rng = np.random.default_rng(seed)
    return rng.choice(xs, n), rng.choice(ys, n)


@pytest.fixture(scope="module")
def crowded_layout(urban_layout):
    """The urban fixture with one tree and one light on each of a few
    footprint corners, so discs sit on building edges and cell lines, and
    a few lights beyond the city border."""
    bs = urban_layout.buildings.tolist()
    corners = [(x, y) for x, y, *_ in bs[:40]] + [(x + w, y + l) for x, y, w, l, _ in bs[40:80]]
    trees = urban_layout.trees.tolist() + [(x, y, 1.0, 4.0) for x, y in corners[::2]]
    lights = [(x, y, 0.1, 3.0) for x, y in corners[1::2] + OUTSIDE]
    return _layout(bs, trees, urban_layout.lights.tolist() + lights)


def _one_by_one(test, *arrays):
    """test on one-element arrays, query by query."""
    return np.array([test(*(a[i : i + 1] for a in arrays))[0] for i in range(arrays[0].size)])


# beyond the city border: on the lights there, and just past a wall or corner
BEYOND = np.array(OUTSIDE + [(-1e-9, 500.0), (SIDE + 5.0, SIDE + 5.0), (-3.0, -3.0), (SIDE, -0.5)])


def test_blocked_matches_dense(crowded_layout):
    index = FootprintIndex(crowded_layout.buildings, crowded_layout.trees, crowded_layout.lights, SIDE)
    px, py = _sample_points(crowded_layout, index.gdim, 6000, seed=1)
    px, py = np.concatenate([px, BEYOND[:, 0]]), np.concatenate([py, BEYOND[:, 1]])
    got = index.blocked(px, py)  # the whole array at once
    want = _dense_blocked(crowded_layout, px, py)
    assert got.tolist() == want.tolist()
    assert got[: -BEYOND.shape[0]].any() and got[-BEYOND.shape[0] :].any()
    # a query's flag does not depend on the other queries of its block
    assert np.array_equal(_one_by_one(index.blocked, px[::7], py[::7]), want[::7])
    assert 0 < want.sum() < want.size  # both outcomes are exercised


def test_disc_is_free_matches_dense(crowded_layout):
    index = FootprintIndex(crowded_layout.buildings, NO_DISCS, NO_DISCS, SIDE)
    cx, cy = _sample_points(crowded_layout, index.gdim, 6000, seed=2)
    r = np.random.default_rng(3).choice([0.1, 0.5, 1.5, 7.0], cx.size)
    # discs exactly tangent to a building edge from outside, and the city
    # border; discs beyond the border; discs centred on cell walls
    b = crowded_layout.buildings[:300]
    walls = np.arange(index.gdim + 1) * (SIDE / index.gdim)
    cx = np.concatenate([cx, b.x - 1.5, b.x + b.w + 1.5, [1.5, SIDE - 1.5], BEYOND[:, 0], walls])
    cy = np.concatenate([cy, b.y, b.y + b.l, [1.5, SIDE - 1.5], BEYOND[:, 1], walls[::-1]])
    r = np.concatenate([r, np.full(2 * len(b) + 2, 1.5), np.full(BEYOND.shape[0] + walls.size, 0.5)])
    got = index.disc_is_free(cx, cy, r)  # the whole array at once
    want = _dense_disc_is_free(crowded_layout, cx, cy, r)
    assert got.tolist() == want.tolist()
    assert np.array_equal(_one_by_one(index.disc_is_free, cx[::7], cy[::7], r[::7]), want[::7])
    assert 0 < want.sum() < want.size


def test_building_overlap_matches_dense(urban_layout):
    """place_buildings' overlap test: boxes registered one by one in
    per-cell lists through cells_under, padded by GRID_PAD, then the
    strict-overlap test on the items under a query box."""
    rects = _rects(urban_layout)
    bulk = FootprintIndex(urban_layout.buildings, NO_DISCS, NO_DISCS, SIDE)
    gdim = bulk.gdim
    cells = [[] for _ in range(gdim * gdim)]
    for i, (x0, y0, x1, y1) in enumerate(rects.tolist()):
        for cell in cells_under(cells, SIDE, x0 - GRID_PAD, y0 - GRID_PAD, x1 + GRID_PAD, y1 + GRID_PAD):
            cell.append(i)
    # one registration rule: the incremental lists equal the segment table built at once
    assert cells == [bulk.items[bulk.start[c] : bulk.start[c + 1]].tolist() for c in range(gdim * gdim)]
    xs, ys = _sample_points(urban_layout, gdim, 4000, seed=4)
    rng = np.random.default_rng(5)
    w, h = rng.choice([0.0, 5.0, 40.0], xs.size), rng.choice([0.0, 5.0, 40.0], xs.size)
    # boxes sharing an edge with a building, which the strict test allows
    xs = np.concatenate([xs, rects[:, 2], rects[:, 0] - 10.0])
    ys = np.concatenate([ys, rects[:, 1], rects[:, 1]])
    w = np.concatenate([w, np.full(2 * len(rects), 10.0)])
    h = np.concatenate([h, rects[:, 3] - rects[:, 1], rects[:, 3] - rects[:, 1]])
    got = [
        any(x0 < rects[k, 2] and x0 + ww > rects[k, 0] and y0 < rects[k, 3] and y0 + hh > rects[k, 1]
            for k in [k for cell in cells_under(cells, SIDE, x0, y0, x0 + ww, y0 + hh) for k in cell])
        for x0, y0, ww, hh in zip(xs.tolist(), ys.tolist(), w.tolist(), h.tolist())
    ]
    x0, y0, x1, y1 = xs[:, None], ys[:, None], (xs + w)[:, None], (ys + h)[:, None]
    overlap = (x0 < rects[:, 2]) & (x1 > rects[:, 0]) & (y0 < rects[:, 3]) & (y1 > rects[:, 1])
    want = overlap.any(axis=1)
    assert got == want.tolist()
    assert 0 < want.sum() < want.size


# -- the link kernel ------------------------------------------------------------


def _dense_families(geom, abs_xy, gu, h_gu):
    """(row, col, u, alt) of the crossed pairs of each family, found by
    testing every (link, obstacle) pair, row-major; u and alt are the
    critical fraction and altitude for buildings and lights, and the chord
    entry and exit for trees."""
    (ax, ay), layout = abs_xy, geom.layout
    trees, lights = (np.column_stack((t.x, t.y, t.r)) for t in (layout.trees, layout.lights))
    dx, dy = gu[:, 0] - ax, gu[:, 1] - ay
    g2 = dx * dx + dy * dy
    out = []
    for clip, arrays, heights in (
        (_rect_chords, _rects(layout).T, layout.buildings.h),
        (_disc_chords, trees.T, None),
        (_disc_chords, lights.T, layout.lights.h),
    ):
        n = arrays[0].size
        row, col = np.divmod(np.arange(len(gu) * n), max(n, 1))
        crossed, u_in, u_out = clip(ax, ay, dx[row], dy[row], g2[row], *(a[col] for a in arrays))
        row, col, u_in, u_out = row[crossed], col[crossed], u_in[crossed], u_out[crossed]
        if heights is None:
            out.append((row, col, u_in, u_out))
        else:
            u = np.where(heights[col] >= h_gu, u_out, u_in)
            out.append((row, col, u, _required_altitude(heights[col], h_gu, u)))
    return out


def _assert_kernel_matches_dense(geom, abs_xy, gu, h_gu=1.5):
    """The kernel's pairs from the shared ABS (the bearing broad phase) and
    from the ABS given per link (the grid walk) match the dense reference."""
    buildings, trees, lights = geom._critical_points(abs_xy, gu, h_gu)
    per_link = geom._critical_points(tuple(np.full(len(gu), v) for v in abs_xy), gu, h_gu)
    for shared, walked in zip((buildings, trees, lights), per_link):
        assert all(np.array_equal(a, b) for a, b in zip(shared, walked))
    dense_b, dense_t, dense_s = _dense_families(geom, abs_xy, gu, h_gu)
    for got, want in ((buildings, dense_b), (lights, dense_s)):
        row, col, u, _, alt = got
        for a, b in zip((row, col, u, alt), want):
            assert np.array_equal(a, b)
    assert np.array_equal(trees[0], dense_t[0]) and np.array_equal(trees[1], dense_t[1])
    alt_b, alt_s, *_ = geom.batch_critical_altitudes(abs_xy, gu, h_gu)
    assert np.array_equal(alt_b, link_maxima(len(gu), dense_b[0], dense_b[3]))
    assert np.array_equal(alt_s, link_maxima(len(gu), dense_s[0], dense_s[3]))


@pytest.fixture(scope="module")
def crowded_geometry(crowded_layout):
    return LayoutGeometry(crowded_layout)


def test_kernel_matches_dense_on_cell_lines_axes_and_corners(crowded_geometry):
    lines = np.arange(crowded_geometry.gdim + 1) * (SIDE / crowded_geometry.gdim)
    rng = np.random.default_rng(6)
    ax, ay = lines[7], lines[11]  # the ABS on a cell corner
    ends = [
        np.column_stack([np.full(lines.size, ax), lines]),  # along a cell line, dx == 0
        np.column_stack([lines, np.full(lines.size, ay)]),  # along a cell line, dy == 0
        np.column_stack([rng.choice(lines, 200), rng.choice(lines, 200)]),  # ending on corners
        np.column_stack([np.full(50, ax + 3.3), rng.uniform(0.0, SIDE, 50)]),  # dx == 0 off the lines
        np.column_stack([rng.uniform(0.0, SIDE, 50), np.full(50, ay - 2.7)]),  # dy == 0 off the lines
        [ax, ay] + 1.1 * (np.array(OUTSIDE) - [ax, ay]),  # through the lights beyond the border
    ]
    gu = np.concatenate(ends)
    gu = gu[(gu[:, 0] != ax) | (gu[:, 1] != ay)]
    _assert_kernel_matches_dense(crowded_geometry, (ax, ay), gu)
    # an ABS inside a cell, links to the same kinds of end points
    _assert_kernel_matches_dense(crowded_geometry, (ax + 12.5, ay + 0.25), gu)
    # vertical links exactly one pad left of a column wall, as the walk places it
    x = 5 / crowded_geometry.scale - GRID_PAD
    gu = np.column_stack([np.full(crowded_geometry.gdim, x), lines[1:] + 1.0])
    _assert_kernel_matches_dense(crowded_geometry, (x, 3.0), gu)


@given(
    a=st.tuples(st.integers(0, 23), st.integers(0, 23)),
    b=st.tuples(st.integers(0, 23), st.integers(0, 23)),
    nudge=st.sampled_from([0.0, 1e-9, -1e-9, 0.5]),
)
def test_kernel_matches_dense_between_grid_corners(crowded_geometry, a, b, nudge):
    cell = SIDE / crowded_geometry.gdim
    abs_xy = (a[0] * cell + nudge, a[1] * cell)
    gu = np.array([[b[0] * cell, b[1] * cell + nudge]])
    if np.hypot(gu[0, 0] - abs_xy[0], gu[0, 1] - abs_xy[1]) > 0.0:
        _assert_kernel_matches_dense(crowded_geometry, abs_xy, gu)


@pytest.mark.parametrize("n_buildings", [0, 1])
def test_kernel_matches_dense_on_a_one_cell_grid(n_buildings):
    buildings = [(480.0, 300.0, 40.0, 40.0, 25.0)][:n_buildings]
    # some discs beyond the city border, where the border cells reach
    trees = [(500.0, y, 1.2, 4.0) for y in (150.0, 420.0, 700.0, -20.0)]
    lights = [(x, 500.0, 0.1, 3.0) for x in (100.0, 500.0, 900.0, 1020.0, -20.0)]
    geom = LayoutGeometry(_layout(buildings, trees, lights))
    assert geom.gdim == 1
    rng = np.random.default_rng(7)
    # one link through the middle of each disc and beyond it
    ends = [500.0, 50.0] + 1.1 * (np.array([(x, y) for x, y, *_ in trees + lights]) - [500.0, 50.0])
    gu = np.concatenate([rng.uniform(-50.0, SIDE + 50.0, (300, 2)), ends])
    _assert_kernel_matches_dense(geom, (500.0, 50.0), gu)
    crossed = geom._critical_points((500.0, 50.0), gu, 1.5)
    assert set(crossed[1][1].tolist()) == set(range(4)) and set(crossed[2][1].tolist()) == set(range(5))
    assert (crossed[0][0].size > 0) == bool(n_buildings)
