"""Procedural generation of randomized Manhattan-style cities.

A city is generated from a built-up parameter tuple (alpha, beta, gamma)
and a :class:`GenConfig`. The square area is partitioned into a block
grid; each occupied block receives one axis-aligned building whose
footprint area equals the environment average exactly, with a uniform
shape factor controlling the width/length split and a Rayleigh height.
Trees and streetlights are placed on sidewalks at a fixed offset from
building walls, and ground users are rejection-sampled over open space,
in blocks that give the layout of drawing one candidate at a time.

A layout holds one read-only float64 table per family, its columns named
by BUILDING, DISC (trees and lights) or USER. The obstacle index, the link
kernel, the oracle and layout.json all read these columns.

All randomness flows through named substreams derived from a single
master seed, so regenerating any layout is bit-identical and changing
one entity count never perturbs the others.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleLayoutError, ParameterError

# Named RNG substreams. Each (city index, stream) pair maps to an
# independent generator, so e.g. tree placement never consumes building draws.
STREAM_BUILDINGS = 0
STREAM_TREES = 1
STREAM_LIGHTS = 2
STREAM_USERS = 3
STREAM_ABS = 4

RETRY_LIMIT = 10_000

# FootprintIndex (its cell table, segment walk and bearings) and place_buildings
# widen every box by this, so that rounding in a cell lookup, segment walk or
# bearing never drops a footprint an exact test would find.
GRID_PAD = 1e-6  # m

SHAPE_FACTOR_LOW = 0.5
SHAPE_FACTOR_HIGH = 1.5

TREE_HEIGHT_RANGE = (2.0, 5.0)
TREE_RADIUS_RANGE = (0.5, 1.5)
TRUNK_HEIGHT_FRAC = 0.2
TRUNK_RADIUS_FRAC = 0.1
# the foliage cone falls from h on the axis to the trunk height at its rim
CONE_DROP_FRAC = 1.0 - TRUNK_HEIGHT_FRAC
LIGHT_HEIGHT_RANGE = (2.0, 5.0)
LIGHT_RADIUS = 0.1

MIN_FREE_AREA_FRAC = 0.01


@dataclass(frozen=True)
class BuiltUpParams:
    """Built-up environment tuple.

    alpha: ratio of built area to total land area, in (0, 1).
    beta:  building density per km^2, > 0.
    gamma: Rayleigh scale for building heights in meters, > 0.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise ParameterError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 < self.gamma < math.inf:
            raise ParameterError(f"gamma must be finite and > 0, got {self.gamma}")


#: Standard environment presets (built-area ratio, density per km^2, height scale).
PRESETS = {
    "urban": BuiltUpParams(alpha=0.3, beta=500.0, gamma=15.0),
    "dense_urban": BuiltUpParams(alpha=0.5, beta=300.0, gamma=20.0),
    "high_rise": BuiltUpParams(alpha=0.5, beta=300.0, gamma=50.0),
}


@dataclass(frozen=True)
class GenConfig:
    """Layout generation knobs independent of the environment class."""

    area: float = 1_000_000.0  # total land area, m^2
    n_trees: int = 200
    n_lights: int = 500
    n_gu: int = 100
    d_o: float = 1.5  # obstacle offset from building walls, m
    h_gu: float = 1.5  # ground-user antenna height, m
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.area < math.inf:
            raise ParameterError(f"area must be finite and > 0, got {self.area}")
        for name in ("n_trees", "n_lights", "n_gu"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if not 0.0 < self.d_o < math.inf:
            raise ParameterError(f"d_o must be finite and > 0, got {self.d_o}")
        if not 0.0 <= self.h_gu < math.inf:
            raise ParameterError(f"h_gu must be finite and >= 0, got {self.h_gu}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")

    @property
    def side(self) -> float:
        return math.sqrt(self.area)


#: Columns of a layout's tables, one float64 column per field. A building's
#: (x, y) is its minimum corner, w and l its extents along x and y (w * l is
#: the environment's average footprint), h its roof height. Trees and
#: streetlights share DISC: a light is a pole of radius r, a tree a trunk
#: (TRUNK_RADIUS_FRAC r wide, TRUNK_HEIGHT_FRAC h tall) under a foliage cone
#: of base radius r and total height h. A user's h is its antenna height.
BUILDING = np.dtype([(k, np.float64) for k in ("x", "y", "w", "l", "h")])
DISC = np.dtype([(k, np.float64) for k in ("x", "y", "r", "h")])
USER = np.dtype([(k, np.float64) for k in ("x", "y", "h")])


def table(rows, dtype: np.dtype) -> np.recarray:
    """Read-only table of rows, each holding dtype's fields in order: a
    column reads table.x, a row table[i].x."""
    out = np.array(rows, np.float64).reshape(-1, len(dtype.names)).view(dtype)[:, 0].view(np.recarray)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class CityLayout:
    """Immutable generated scene: a BUILDING table, DISC tables of trees and
    lights and a USER table (eq=False: tables have no truth value)."""

    params: BuiltUpParams
    config: GenConfig
    buildings: np.recarray
    trees: np.recarray
    lights: np.recarray
    users: np.recarray

    @property
    def side(self) -> float:
        return self.config.side


def city_rng(seed: int, city_index: int, stream: int) -> np.random.Generator:
    """Generator for one named substream of one city."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(city_index, stream)))


def building_count(params: BuiltUpParams, area: float) -> int:
    """Number of buildings for a given land area (exact, rounded); a
    ParameterError if its ceil(sqrt(n))^2 blocks are more than numpy can index."""
    n = params.beta * area / 1e6
    if n == math.inf or math.ceil(math.sqrt(round(n))) ** 2 > np.iinfo(np.intp).max:
        where = f"beta {params.beta:g} per km^2 over area {area:g} m^2"
        raise ParameterError(f"{n:g} buildings ({where}) need more blocks than numpy can index")
    return round(n)


def average_footprint(params: BuiltUpParams, area: float) -> float:
    """Average footprint area per building, m^2."""
    return (params.alpha * area) / (params.beta * area / 1e6)


def derive_building_dims(params: BuiltUpParams, area: float, shape: float) -> tuple[float, float]:
    """Width/length of a building from its shape factor.

    The shape factor multiplies the square-root footprint to set the
    width; the length is whatever preserves the average footprint area
    exactly, so w * l is invariant across draws.
    """
    if area <= 0.0:
        raise ParameterError(f"area must be > 0, got {area}")
    if not SHAPE_FACTOR_LOW <= shape <= SHAPE_FACTOR_HIGH:
        raise ParameterError(
            f"shape factor must be in [{SHAPE_FACTOR_LOW}, {SHAPE_FACTOR_HIGH}], got {shape}"
        )
    b_avg = average_footprint(params, area)
    w = math.sqrt(b_avg) * shape
    return w, b_avg / w


def rayleigh_icdf(gamma: float, u: float) -> float:
    """Inverse CDF of the Rayleigh height distribution."""
    if gamma <= 0.0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    if not 0.0 <= u < 1.0:
        raise ParameterError(f"u must be in [0, 1), got {u}")
    return gamma * math.sqrt(-2.0 * math.log1p(-u))


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run, rank) of every element of consecutive runs, run k holding counts[k]."""
    run = np.arange(len(counts)).repeat(counts)
    return run, np.arange(run.size) - (counts.cumsum() - counts).repeat(counts)


def cells_under(cells: list[list[int]], side: float, x0: float, y0: float, x1: float, y1: float) -> list[list[int]]:
    """The lists of cells, a FootprintIndex's numbering over side, that the box
    [x0, x1] x [y0, y1] meets."""
    g = math.isqrt(len(cells))
    s, top = g / side, g - 1
    i0, i1 = int(min(max(x0 * s, 0.0), top)), int(min(max(x1 * s, 0.0), top))
    j0, j1 = int(min(max(y0 * s, 0.0), top)), int(min(max(y1 * s, 0.0), top)) + 1
    return [c for i in range(i0 * g, i1 * g + 1, g) for c in cells[i + j0 : i + j1]]


def place_buildings(params: BuiltUpParams, config: GenConfig, rng: np.random.Generator) -> np.recarray:
    """Place all buildings on the block grid.

    The grid has ceil(sqrt(n))^2 blocks; a random subset of n blocks each
    receives one building, jittered inside its block when the footprint
    fits and block-centered (spilling into the street) otherwise, with
    overlap rejection against the buildings placed so far, which it keeps
    in one growing list per block (the FootprintIndex numbering, cells_under).
    Long-and-thin shape draws can exceed the block size, so a jammed block
    falls back to a uniform free position for the second half of the retry
    budget before generation is declared infeasible."""
    n = building_count(params, config.area)
    if n == 0:
        return table((), BUILDING)
    side, gdim = config.side, math.ceil(math.sqrt(n))
    block, blocks = side / gdim, rng.permutation(gdim * gdim)[:n]
    buf, taken, start = [], 0, rng.bit_generator.state  # buf: rng.random() ahead

    def uniform(a: float, b: float) -> float:  # rng.uniform(a, b), from the buffer
        nonlocal taken
        if taken == len(buf):
            buf.extend(rng.random(1024).tolist())
        taken += 1
        return a + (b - a) * buf[taken - 1]

    def jitter(lo: float, dim: float) -> float:  # in the block if the footprint fits, else centred
        c = uniform(lo + dim / 2.0, lo + block - dim / 2.0) if dim <= block else lo + block / 2.0
        return min(max(c, dim / 2.0), side - dim / 2.0)  # and always inside the city

    cells = [[] for _ in range(gdim * gdim)]  # the buildings placed so far, per FootprintIndex cell
    boxes, buildings = [], []  # (x0, y0, x1, y1) and the BUILDING row of each
    for i, blk in enumerate(blocks):
        bx, by = float(blk % gdim) * block, float(blk // gdim) * block
        for attempt in range(RETRY_LIMIT):
            w, l = derive_building_dims(params, config.area, uniform(SHAPE_FACTOR_LOW, SHAPE_FACTOR_HIGH))
            if uniform(0.0, 1.0) < 0.5:
                w, l = l, w
            if w > side or l > side:
                continue
            if attempt < RETRY_LIMIT // 2:
                cx, cy = jitter(bx, w), jitter(by, l)
            else:
                cx, cy = uniform(w / 2.0, side - w / 2.0), uniform(l / 2.0, side - l / 2.0)
            x0, y0 = cx - w / 2.0, cy - l / 2.0
            x1, y1 = x0 + w, y0 + l
            # Strict interior overlap; shared edges are allowed.
            for k in [k for cell in cells_under(cells, side, x0, y0, x1, y1) for k in cell]:
                b = boxes[k]
                if x0 < b[2] and x1 > b[0] and y0 < b[3] and y1 > b[1]:
                    break
            else:
                h = rayleigh_icdf(params.gamma, uniform(0.0, 1.0))
                for cell in cells_under(cells, side, x0 - GRID_PAD, y0 - GRID_PAD, x1 + GRID_PAD, y1 + GRID_PAD):
                    cell.append(i)
                boxes.append((x0, y0, x1, y1))
                buildings.append((x0, y0, w, l, h))
                break
        else:
            raise InfeasibleLayoutError(f"could not place building {i} after {RETRY_LIMIT} attempts")
    rng.bit_generator.state = start
    rng.random(taken)  # as far as the draws used
    return table(buildings, BUILDING)


def _first_accepted(rng: np.random.Generator, n: int, what: str, sample: Callable, test: Callable) -> np.ndarray:
    """Array of the first n accepted candidate rows in draw order: sample(m)
    draws m candidate rows from rng and test(rows) flags the accepted ones.
    rng is then set back to its start and sample(k) replays the k candidates
    up to the last accepted one, untested, which leaves rng where drawing
    one candidate at a time would. RETRY_LIMIT misses in a row make the
    layout infeasible; what.format(i) names entity i."""
    rows, done, used, last, start = [], 0, 0, -1, rng.bit_generator.state
    while done < n:
        block = sample(min(2 * (n - done) + 8, 1 << 14))
        ok = test(block)
        hits = np.flatnonzero(ok)[: n - done]
        rows.append(block[hits])
        for at in (hits + used).tolist():  # each success, numbered from the first attempt
            if at - last > RETRY_LIMIT:
                break
            done, last = done + 1, at
        used = last + 1 if done == n else used + ok.size
        if used - last > RETRY_LIMIT:
            raise InfeasibleLayoutError(f"could not place {what.format(done)} after {RETRY_LIMIT} attempts")
    if used:
        rng.bit_generator.state = start
        sample(used)
    return np.concatenate(rows) if rows else np.empty((0, 0))


def _sidewalk_draws(rng: np.random.Generator, nb: int, doubles: int, m: int) -> tuple[np.ndarray, ...]:
    """m attempts' rng.integers(nb), rng.integers(4) and doubles rng.random(),
    as (building, side, (m, doubles) values), rng left as by those calls.
    An attempt's integers take a raw word: the low (or a pending high) half
    to integers(nb) as (v * nb) >> 32 (Lemire), the next half to integers(4)
    as v >> 30; a double is (word >> 11) * 2**-53. Attempts whose multiply
    numpy rejects, and all if nb is 1 (integers(1) draws nothing), replay."""
    bg, parts = rng.bit_generator, []
    while m:
        state = bg.state
        raw = bg.random_raw((m if nb > 1 else 0, 1 + doubles))
        first, second = raw[:, 0] & 0xFFFFFFFF, raw[:, 0] >> 32
        if state["has_uint32"]:
            first, second = np.roll(second, 1), first
            first[:1] = state["uinteger"]
        prod = first * nb
        j = int(np.argmax(np.append((prod & 0xFFFFFFFF) < (1 << 32) % nb, True)))  # the first rejected
        pick, side = (prod[:j] >> 32).astype(np.intp), (second[:j] >> 30).astype(np.intp)
        parts.append((pick, side, (raw[:j, 1:] >> 11) * 2.0**-53))
        state["uinteger"] = int(raw[j - 1, 0] >> 32) if j else state["uinteger"]  # the last half taken
        bg.state = state
        bg.random_raw(j * (1 + doubles))
        if j < m:
            parts.append(([rng.integers(nb)], [rng.integers(4)], rng.random((1, doubles))))
            j += 1
        m -= j
    return tuple(np.concatenate(p) for p in zip(*parts))


def _place_on_sidewalks(index: FootprintIndex, config: GenConfig, rng: np.random.Generator, count: int, what: str,
                        ranges: Sequence[tuple[float, float]], radius: float | None) -> np.recarray:
    """DISC table of count sidewalk obstacles whose discs avoid every
    building: a building, its south, north, west or east side and the
    fraction along it (d_o out from it), then rng.uniform(a, b) per (a, b)
    of ranges, the height first. The radius is radius, or the last value if
    None."""
    nb, d_o = len(index.buildings), config.d_o
    if count and not nb:
        raise InfeasibleLayoutError(f"could not place {what.format(0)}: no building edges available")
    sides = index.bx0, index.by0, index.bx1, index.by1, index.buildings.w, index.buildings.l

    def sample(m: int) -> np.ndarray:
        pick, side, u = _sidewalk_draws(rng, nb, 1 + len(ranges), m)
        values = [a + (b - a) * u[:, k] for k, (a, b) in enumerate(ranges, 1)]
        x0, y0, x1, y1, w, l = (a[pick] for a in sides)
        along_x, along_y = x0 + u[:, 0] * w, y0 + u[:, 0] * l
        x = np.choose(side, (along_x, along_x, x0 - d_o, x1 + d_o))
        y = np.choose(side, (y0 - d_o, y1 + d_o, along_y, along_y))
        r = values[-1] if radius is None else np.full(x.shape, radius)
        return np.column_stack((x, y, r, values[0]))

    return table(_first_accepted(rng, count, what, sample, lambda rows: index.disc_is_free(*rows[:, :3].T)), DISC)


def place_trees(index: FootprintIndex, config: GenConfig, rng: np.random.Generator) -> np.recarray:
    """Place n_trees sidewalk trees; discs may not intersect any building."""
    ranges = (TREE_HEIGHT_RANGE, TREE_RADIUS_RANGE)  # h, then r
    return _place_on_sidewalks(index, config, rng, config.n_trees, "tree {}", ranges, None)


def place_lights(index: FootprintIndex, config: GenConfig, rng: np.random.Generator) -> np.recarray:
    """Place n_lights streetlights; same sidewalk rule as trees."""
    ranges = (LIGHT_HEIGHT_RANGE,)
    return _place_on_sidewalks(index, config, rng, config.n_lights, "streetlight {}", ranges, LIGHT_RADIUS)


class FootprintIndex:
    """The obstacle index of a layout: its footprint arrays, and one
    gdim x gdim cell table over the city square that narrows each point,
    disc and link test to the cells under it. The items are the buildings,
    then the trees, then the lights, each in every cell that its box,
    widened by GRID_PAD, meets; cell (i, j), i along x, is number
    i * gdim + j, so a column's cells are consecutive, and points beyond
    the city fall into the border cells. side is the city's.
    place_buildings keeps lists of its own on this numbering (cells_under)."""

    def __init__(self, buildings: np.recarray, trees: np.recarray, lights: np.recarray, side: float):
        """buildings: a BUILDING table; trees and lights: DISC tables."""
        self.buildings, self.trees, self.lights, self.side = buildings, trees, lights, side
        self.bx0, self.by0 = buildings.x, buildings.y
        self.bx1, self.by1 = self.bx0 + buildings.w, self.by0 + buildings.l
        self.cx, self.cy, self.cr = (np.concatenate((trees[k], lights[k])) for k in "xyr")  # trees, then lights
        self.gdim = gdim = math.ceil(math.sqrt(len(buildings))) or 1
        self.scale, self.n_items = gdim / side, self.bx0.size + self.cx.size
        walls = np.concatenate(([-np.inf], np.arange(1, gdim) / self.scale, [np.inf]))
        self.west, self.east = walls[:-1] - GRID_PAD, walls[1:] + GRID_PAD  # each column's padded x range
        centres = np.stack((self.cx, self.cy))
        lo = np.concatenate((np.stack((self.bx0, self.by0)), centres - self.cr), axis=1) - GRID_PAD
        hi = np.concatenate((np.stack((self.bx1, self.by1)), centres + self.cr), axis=1) + GRID_PAD
        item, cell = self._box_cells(*lo, *hi)
        order = np.argsort(cell, kind="stable")
        # the segment table: cell c holds items[start[c]:start[c + 1]]
        self.items, self.start = item[order], np.searchsorted(cell[order], np.arange(gdim * gdim + 1))

    def cells_of(self, v: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(v * self.scale, 0.0), self.gdim - 1).astype(np.intp)

    def _box_cells(self, x0, y0, x1, y1) -> tuple[np.ndarray, np.ndarray]:
        """(box, cell) of each cell that box k, [x0[k], x1[k]] x [y0[k], y1[k]], meets."""
        i0, j0 = self.cells_of(x0), self.cells_of(y0)
        rows = self.cells_of(y1) - j0 + 1
        box, k = _ragged((self.cells_of(x1) - i0 + 1) * rows)
        return box, (i0[box] + k // rows[box]) * self.gdim + j0[box] + k % rows[box]

    def pairs(self, x0, y0, x1, y1) -> tuple[np.ndarray, np.ndarray]:
        """(box, item) of the items of each cell that box k meets; an item
        in more than one of those cells comes once for each."""
        box, cell = self._box_cells(x0, y0, x1, y1)
        lo = self.start[cell]
        run, k = _ragged(self.start[cell + 1] - lo)
        return box[run], self.items[lo[run] + k]

    def segment_pairs(self, ax, ay, bx, by) -> tuple[np.ndarray, np.ndarray]:
        """(row, item) of the items in the cells that the segment from
        (ax[row], ay[row]) to (bx[row], by[row]) meets, widened by GRID_PAD,
        each pair once and row-major. In each column the segment spans, its
        y range between the column's padded walls picks one run of cells."""
        c0 = self.cells_of(np.minimum(bx, ax) - GRID_PAD)
        link, k = _ragged(self.cells_of(np.maximum(bx, ax) + GRID_PAD) - c0 + 1)
        col = c0[link] + k
        ax, ay = ax[link], ay[link]
        dx, dy = bx[link] - ax, by[link] - ay
        with np.errstate(all="ignore"):  # a vertical or near-vertical link
            ta, tb = (self.west[col] - ax) / dx, (self.east[col] - ax) / dx
        t0 = np.where(dx == 0.0, 0.0, np.maximum(np.minimum(ta, tb), 0.0))
        t1 = np.where(dx == 0.0, 1.0, np.minimum(np.maximum(ta, tb), 1.0))
        y0, y1 = ay + t0 * dy, ay + t1 * dy
        lo = self.start[col * self.gdim + self.cells_of(np.minimum(y0, y1) - GRID_PAD)]
        hi = self.start[col * self.gdim + self.cells_of(np.maximum(y0, y1) + GRID_PAD) + 1]
        run, k = _ragged(hi - lo)
        key = np.sort(link[run] * (self.n_items + 1) + self.items[lo[run] + k])
        new = np.empty(key.size, bool)  # the first of each run of equal keys
        new[:1], new[1:] = True, key[1:] != key[:-1]
        return np.divmod(key[new], self.n_items + 1)

    def blocked(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flags: (x[k], y[k]) lies inside some footprint (closed sets)."""
        (q, k), nb = self.pairs(x, y, x, y), self.bx0.size
        qr, kr, qd, kd = q[k < nb], k[k < nb], q[k >= nb], k[k >= nb] - nb
        px, py = x[qr], y[qr]
        in_rect = (self.bx0[kr] <= px) & (px <= self.bx1[kr]) & (self.by0[kr] <= py) & (py <= self.by1[kr])
        dx, dy, r = x[qd] - self.cx[kd], y[qd] - self.cy[kd], self.cr[kd]
        out = np.zeros(x.size, bool)
        out[qr[in_rect]] = out[qd[dx * dx + dy * dy <= r * r]] = True
        return out

    def disc_is_free(self, cx: np.ndarray, cy: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Flags: disc k lies inside the city and meets no building interior;
        tree and light footprints are not tested."""
        q, k = self.pairs(cx - r, cy - r, cx + r, cy + r)
        q, k = q[k < self.bx0.size], k[k < self.bx0.size]
        x, y, rr = cx[q], cy[q], r[q]
        dx = np.maximum(np.maximum(self.bx0[k] - x, 0.0), x - self.bx1[k])
        dy = np.maximum(np.maximum(self.by0[k] - y, 0.0), y - self.by1[k])
        free = (cx - r >= 0.0) & (cy - r >= 0.0) & (cx + r <= self.side) & (cy + r <= self.side)
        free[q[dx * dx + dy * dy < rr * rr]] = False
        return free

    def fan_pairs(self, ax: float, ay: float, bx: np.ndarray, by: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, item) of the items, widened by GRID_PAD, that the segment
        from the one start (ax, ay) to (bx[row], by[row]) may meet: the row's
        bearing lies in the item's bearing interval from the start and its
        length reaches the item's nearest point. Each pair once, row-major,
        as segment_pairs gives them. An item whose widened footprint holds
        the start spans the full circle."""
        x0, y0, x1, y1 = self.bx0 - GRID_PAD, self.by0 - GRID_PAD, self.bx1 + GRID_PAD, self.by1 + GRID_PAD
        rect_mid = np.arctan2((y0 + y1) / 2.0 - ay, (x0 + x1) / 2.0 - ax)
        corners = np.arctan2(np.stack((y0, y0, y1, y1)) - ay, np.stack((x0, x1, x0, x1)) - ax) - rect_mid
        corners = np.pi - (np.pi - corners) % (2.0 * np.pi)  # relative to the centre, in (-pi, pi]
        rect_near = np.hypot(np.maximum(np.maximum(x0 - ax, 0.0), ax - x1), np.maximum(np.maximum(y0 - ay, 0.0), ay - y1))
        w, ex, ey = self.cr + GRID_PAD, self.cx - ax, self.cy - ay
        rho, disc_mid = np.hypot(ex, ey), np.arctan2(ey, ex)
        half = np.arcsin(w / np.maximum(rho, w))
        lo = np.concatenate((rect_mid + corners.min(axis=0), disc_mid - half))
        hi = np.concatenate((rect_mid + corners.max(axis=0), disc_mid + half))
        near = np.concatenate((rect_near, np.maximum(rho - w, 0.0)))
        theta = np.arctan2(by - ay, bx - ax)
        order, n = np.argsort(theta), theta.size
        ring = (theta[order] + 2.0 * np.pi * np.array([[-1.0], [0.0], [1.0]])).ravel()  # the rows' bearings, thrice
        full = near == 0.0  # the middle copy only, or a row at bearing +-pi would come twice
        first = np.where(full, n, np.searchsorted(ring, lo, side="left"))
        item, k = _ragged(np.where(full, 2 * n, np.searchsorted(ring, hi, side="right")) - first)
        row = order[(first[item] + k) % n]
        keep = np.hypot(bx - ax, by - ay)[row] >= near[item]
        key = np.sort(row[keep] * (near.size + 1) + item[keep])
        return np.divmod(key, near.size + 1)


def _open_points(index: FootprintIndex, rng: np.random.Generator, n: int, what: str) -> np.ndarray:
    """The first n points (rng.uniform(0, side), rng.uniform(0, side)) outside every footprint."""
    return _first_accepted(rng, n, what, lambda m: index.side * rng.random((m, 2)), lambda xy: ~index.blocked(*xy.T))


def sample_open_point(index: FootprintIndex, rng: np.random.Generator, what: str = "point") -> tuple[float, float]:
    """Uniform point over the free region of index's city via rejection sampling."""
    return tuple(_open_points(index, rng, 1, what)[0].tolist())


def place_users(index: FootprintIndex, config: GenConfig, rng: np.random.Generator) -> np.recarray:
    """Place n_gu users uniformly over the open space of index."""
    free = config.area - sum((index.buildings.w * index.buildings.l).tolist())
    free -= sum(math.pi * r**2 for r in index.trees.r.tolist())
    free -= sum(math.pi * r**2 for r in index.lights.r.tolist())
    if config.n_gu > 0 and free < MIN_FREE_AREA_FRAC * config.area:
        raise InfeasibleLayoutError(
            f"free area {free:.0f} m^2 is below {MIN_FREE_AREA_FRAC:.0%} of the city"
        )
    xy = _open_points(index, rng, config.n_gu, "user {}")
    return table(np.column_stack((xy, np.full(len(xy), config.h_gu))), USER)


def generate_obstacles(params: BuiltUpParams, config: GenConfig, city_index: int) -> CityLayout:
    """The obstacle half of :func:`generate_city`: buildings, trees and
    lights, with no users yet.

    Trees are drawn one after another from their own substream, so the
    first k trees of this layout are exactly the layout's trees under
    n_trees = k; :func:`add_users` takes such a prefix.
    """
    buildings = place_buildings(params, config, city_rng(config.seed, city_index, STREAM_BUILDINGS))
    index = FootprintIndex(buildings, table((), DISC), table((), DISC), config.side)
    trees = place_trees(index, config, city_rng(config.seed, city_index, STREAM_TREES))
    lights = place_lights(index, config, city_rng(config.seed, city_index, STREAM_LIGHTS))
    users = table((), USER)
    return CityLayout(params=params, config=config, buildings=buildings, trees=trees, lights=lights, users=users)


def add_users(city: CityLayout, n_trees: int, city_index: int) -> CityLayout:
    """The user half of :func:`generate_city`: city cut to its first
    n_trees trees, as if generated with n_trees, and its users placed
    around them, tested against the FootprintIndex of the cut city."""
    if not 0 <= n_trees <= len(city.trees):
        raise ParameterError(f"n_trees must be in [0, {len(city.trees)}], got {n_trees}")
    config = replace(city.config, n_trees=n_trees)
    trees = city.trees[:n_trees]
    index = FootprintIndex(city.buildings, trees, city.lights, config.side)
    users = place_users(index, config, city_rng(config.seed, city_index, STREAM_USERS))
    return replace(city, config=config, trees=trees, users=users)


def generate_city(params: BuiltUpParams, config: GenConfig, city_index: int = 0) -> CityLayout:
    """Generate one complete city deterministically from (params, config).

    The same inputs always produce a bit-identical layout; distinct
    city_index values yield independent cities under one master seed.
    """
    return add_users(generate_obstacles(params, config, city_index), config.n_trees, city_index)


# ---------------------------------------------------------------------------
# JSON form


def layout_json(layout: CityLayout) -> str:
    """Canonical JSON text for a layout (stable byte-for-byte): every column
    of each table, plus each tree's derived trunk; lengths in meters. Each
    row comes from one %r template of its sorted keys, as json.dumps(doc,
    sort_keys=True, separators=(",", ":")) writes it: JSON writes a finite
    float as float.__repr__ does, and a layout holds finite values only."""
    parts = {k: json.dumps(vars(getattr(layout, k)), sort_keys=True, separators=(",", ":")) for k in ("params", "config")}
    for family in ("buildings", "trees", "lights", "users"):
        t = getattr(layout, family)
        columns = {k: t[k] for k in t.dtype.names}
        if family == "trees":
            columns.update(r_trunk=TRUNK_RADIUS_FRAC * t.r, h_trunk=TRUNK_HEIGHT_FRAC * t.h)
        keys = sorted(columns)
        row = "{" + ",".join(f'"{k}":%r' for k in keys) + "}"
        parts[family] = "[" + ",".join(row % r for r in zip(*(columns[k].tolist() for k in keys))) + "]"
    return "{" + ",".join(f'"{k}":{parts[k]}' for k in sorted(parts)) + "}"
