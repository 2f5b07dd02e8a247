"""Brute-force rasterization check for link classification.

Walks the link's ground projection in fixed 1 cm steps, tests step points
for footprint membership, and compares the interpolated line height
against the obstacle height at that point. Each candidate obstacle is
tested only at the steps within its covering radius of its centre's
projection onto the link (one step of margin each side): projection onto
the link is 1-Lipschitz, so no step point outside that window can lie in
the covering disc, let alone the footprint. A building's inside steps form
one run, because each step's point and line height are monotone in k, so
bisection finds its ends, and the line is lowest at one of them; trees and
lights are tested at every step of their window. This shares no
intersection math with the analytic classifier, so agreement between the
two is strong evidence both are right.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import Generator

from .citygen import CONE_DROP_FRAC, TRUNK_RADIUS_FRAC, CityLayout, sample_open_point
from .errors import DegenerateLinkError, ParameterError
from .geometry import LayoutGeometry, Link, LinkClass, ObstructionHit, classify_hits

DEFAULT_STEP_M = 0.01
LINK_ANGLES_DEG = (1.0, 89.9)  # elevation range of random_links
LINK_ALTITUDE_CAP_M = 10_000.0


@dataclass(frozen=True)
class BruteForceResult:
    link_class: LinkClass
    blocked: dict[str, frozenset[int]]
    crossed: dict[str, frozenset[int]]


def _project(link: Link, cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from points to the link's ground segment, and their
    projection onto the link's ground line in metres from the ABS end."""
    ax, ay = link.abs_xy
    dx = link.gu_xy[0] - ax
    dy = link.gu_xy[1] - ay
    g2 = dx * dx + dy * dy
    s = ((cx - ax) * dx + (cy - ay) * dy) / g2
    t = np.clip(s, 0.0, 1.0)
    return np.hypot(cx - (ax + t * dx), cy - (ay + t * dy)), s * link.ground_distance


def _box_hits(b: tuple, ks: range, at, x_falls: bool, y_falls: bool) -> tuple[bool, bool]:
    """Whether a step of ks is in box b, and one with the line at or below the
    roof; at(k) is step k's (x, y, line height), each monotone in k."""
    x, y, w, l, h = b
    x1, y1 = x + w, y + l

    def reached(k):  # on or past both near edges
        px, py, _ = at(k)
        return (px <= x1 if x_falls else px >= x) and (py <= y1 if y_falls else py >= y)

    def passed(k):  # past a far edge
        px, py, _ = at(k)
        return (px < x if x_falls else px > x1) or (py < y if y_falls else py > y1)

    lo = bisect_left(ks, True, key=reached)
    hi = bisect_left(ks, True, lo, key=passed) - 1  # passed is false before lo unless the run is empty
    return lo <= hi, lo <= hi and min(at(ks[lo])[2], at(ks[hi])[2]) <= h


def _in_tree(t: tuple, px: np.ndarray, py: np.ndarray):
    x, y, r, h = t
    rho = np.hypot(px - x, py - y)
    return rho <= r, np.where(rho <= TRUNK_RADIUS_FRAC * r, h, h * (1.0 - CONE_DROP_FRAC * rho / r))


def _in_light(s: tuple, px: np.ndarray, py: np.ndarray):
    x, y, r, h = s
    return np.hypot(px - x, py - y) <= r, h


def obstacle_families(layout: CityLayout) -> list[tuple]:
    """One row per obstacle family, in precedence order: its kind, the class
    of a link it blocks, its obstacles as rows of Python floats in table
    column order, their covering discs (centres x and y, radii), and the
    point test that gives the step points inside one obstacle's footprint
    and the obstacle's height there: one number for a light, one per point
    for a tree. Buildings have none: classify_link_bruteforce finds each
    box's one run of inside steps by bisection."""
    bs, trees, lights = layout.buildings, layout.trees, layout.lights
    building_discs = (
        (bs.x + (bs.x + bs.w)) / 2.0,
        (bs.y + (bs.y + bs.l)) / 2.0,
        np.array([math.hypot(w, l) / 2.0 for w, l in zip(bs.w.tolist(), bs.l.tolist())]),
    )
    return [
        ("building", LinkClass.NLOS_BUILDING, bs.tolist(), *building_discs, None),
        ("tree", LinkClass.NLOS_TREE, trees.tolist(), trees.x, trees.y, trees.r, _in_tree),
        ("streetlight", LinkClass.NLOS_LIGHT, lights.tolist(), lights.x, lights.y, lights.r, _in_light),
    ]


def classify_link_bruteforce(
    link: Link,
    families: list[tuple],
    step: float = DEFAULT_STEP_M,
) -> BruteForceResult:
    """Rasterized classification of one link; the first family that blocks
    it names its class.

    Step k lies at float(k) * step from the ABS end, and the walk ends with
    the GU end itself when the distance is no multiple of the step.
    Obstacles provably farther from the segment than their covering radius
    are skipped. The others are tested only at the k with
    |k * step - along| <= reach, along being the centre's projection onto
    the link, widened by one step each side against rounding: a step point
    outside that window is farther than reach from the centre, so outside
    the footprint. Rounding is monotone, so each step's fraction of the link
    (k * step) / g, its point and the line height are monotone in k: each
    of a box's four edge tests changes state at most once, and bisecting
    them finds the box's one run of inside steps, with the lowest line at
    an end. That gives what a test of every step would give.
    """
    if not 0.0 < step < math.inf:
        raise ParameterError(f"oracle step must be finite and > 0, got {step}")
    g = link.ground_distance
    if g <= 0.0:
        raise DegenerateLinkError("link has zero ground distance")
    n = int(math.floor(g / step))
    last = n + 1 if g - n * step > 1e-12 else n
    (ax, ay), (bx, by) = link.abs_xy, link.gu_xy
    ex, ey, h_abs, dh = bx - ax, by - ay, link.h_abs, link.h_abs - link.h_gu

    def at(k):  # step k's ground point and line height, as the array walk computes them
        u = (k * step if k <= n else g) / g
        return ax + u * ex, ay + u * ey, h_abs - u * dh

    link_class = LinkClass.LOS
    crossed: dict[str, frozenset[int]] = {}
    blocked: dict[str, frozenset[int]] = {}
    for kind, blocked_class, obstacles, cx, cy, reach, point_test in families:
        hit, low = set(), set()
        dist, along = _project(link, cx, cy)
        near = np.nonzero(dist <= reach + 1e-9)[0]
        first = np.maximum(np.floor((along[near] - reach[near]) / step) - 1, 0).astype(int)
        stop = np.minimum(np.ceil((along[near] + reach[near]) / step) + 1, last).astype(int)
        for i, k0, k1 in zip(near.tolist(), first.tolist(), stop.tolist()):
            if point_test is None:  # a box: bisect its run of inside steps
                crossed_i, blocked_i = _box_hits(obstacles[i], range(k0, k1 + 1), at, ex < 0, ey < 0)
            else:
                u = np.arange(k0, k1 + 1) * step
                if k1 > n:  # only the last step can pass n: the GU end
                    u[-1] = g
                u /= g
                inside, height = point_test(obstacles[i], ax + u * ex, ay + u * ey)
                if isinstance(height, np.ndarray):  # a tree's height varies per point
                    height = height[inside]
                # the line height against the obstacle's, at the inside points only
                crossed_i, blocked_i = inside.any(), (h_abs - u[inside] * dh <= height).any()
            if crossed_i:
                hit.add(i)
            if blocked_i:
                low.add(i)
        crossed[kind], blocked[kind] = frozenset(hit), frozenset(low)
        if low and link_class is LinkClass.LOS:
            link_class = blocked_class
    return BruteForceResult(link_class=link_class, blocked=blocked, crossed=crossed)


def random_links(geom: LayoutGeometry, rng: Generator, n: int) -> list[Link]:
    """Sample sweep-like links in geom's layout: a random user, a random
    open ABS ground position, and an elevation angle uniform over
    LINK_ANGLES_DEG, the altitude capped at LINK_ALTITUDE_CAP_M, which the
    layout's h_gu may reach but not exceed."""
    links = []
    users, h_gu = geom.layout.users.tolist(), geom.layout.config.h_gu
    if h_gu > LINK_ALTITUDE_CAP_M:  # every capped ABS would sit below its users
        raise ParameterError(f"gen.h_gu ({h_gu}) must be <= the link altitude cap {LINK_ALTITUDE_CAP_M:g}")
    for _ in range(n):
        x, y, _ = users[int(rng.integers(len(users)))]
        ax, ay = sample_open_point(geom.index, rng, what="abs")
        g = math.hypot(x - ax, y - ay)
        theta = math.radians(rng.uniform(*LINK_ANGLES_DEG))
        h_abs = min(h_gu + g * math.tan(theta), LINK_ALTITUDE_CAP_M)
        links.append(Link(abs_xy=(ax, ay), h_abs=h_abs, gu_xy=(x, y), h_gu=h_gu))
    return links


def check_links(
    geom: LayoutGeometry, links: list[Link]
) -> Iterator[tuple[list[ObstructionHit], LinkClass, BruteForceResult]]:
    """Run both classifiers on each link of geom's layout, the oracle at
    DEFAULT_STEP_M; yield the analytic crossings, the analytic class and
    the oracle's BruteForceResult. The links share one h_gu, as
    random_links draws them: their crossings come from one crossings_of
    pass."""
    families = obstacle_families(geom.layout)
    for link, hits in zip(links, geom.crossings_of(links)):
        yield hits, classify_hits(hits), classify_link_bruteforce(link, families)
