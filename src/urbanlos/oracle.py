"""Brute-force rasterization check for link classification.

Walks the link's ground projection in fixed 1 cm steps, tests step points
for footprint membership, and compares the interpolated line height
against the obstacle height at that point. Each candidate obstacle is
tested only at the steps within its covering radius of its centre's
projection onto the link (one step of margin each side): projection onto
the link is 1-Lipschitz, so no step point outside that window can lie in
the covering disc, let alone the footprint. This shares no intersection
math with the analytic classifier, so agreement between the two is strong
evidence both are right.
"""

from __future__ import annotations

import math
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


def _in_building(b: tuple, px: np.ndarray, py: np.ndarray):
    x, y, w, l, h = b
    return (px >= x) & (px <= x + w) & (py >= y) & (py <= y + l), h


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
    and the obstacle's height there: one number for a building or a light,
    one per point for a tree."""
    bs, trees, lights = layout.buildings, layout.trees, layout.lights
    building_discs = (
        (bs.x + (bs.x + bs.w)) / 2.0,
        (bs.y + (bs.y + bs.l)) / 2.0,
        np.array([math.hypot(w, l) / 2.0 for w, l in zip(bs.w.tolist(), bs.l.tolist())]),
    )
    return [
        ("building", LinkClass.NLOS_BUILDING, bs.tolist(), *building_discs, _in_building),
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
    the footprint.
    """
    g = link.ground_distance
    if g <= 0.0:
        raise DegenerateLinkError("link has zero ground distance")
    n = int(math.floor(g / step))
    last = n + 1 if g - n * step > 1e-12 else n
    (ax, ay), (bx, by) = link.abs_xy, link.gu_xy
    ex, ey, h_abs, dh = bx - ax, by - ay, link.h_abs, link.h_abs - link.h_gu
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
            u = np.arange(k0, k1 + 1) * step
            if k1 > n:  # only the last step can pass n: the GU end
                u[-1] = g
            u /= g
            inside, height = point_test(obstacles[i], ax + u * ex, ay + u * ey)
            at = inside.nonzero()[0]
            if not at.size:
                continue
            hit.add(i)
            if isinstance(height, np.ndarray):  # a tree's height varies per point
                height = height[at]
            # the line height against the obstacle's, at the inside points only
            if (h_abs - u[at] * dh <= height).any():
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
