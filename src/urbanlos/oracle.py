"""Exact brute-force check for link classification.

Decides each footprint and blocking test in integers, with no step and no
tolerance: every value is a binary float, so a link's values and its
candidates' are integers on one grid, the coarsest power of two they all
lie on. A building is crossed over one Liang-Barsky run of the link, and
blocks iff the line is at or below its roof at the run's end, because the
line falls along the link. Every disc test is one feasibility question:
whether some quadratic constraints hold at one point of the link. A
streetlight or a tree's disc is crossed where the link is within its
radius of its axis; a streetlight or a tree trunk blocks where that holds
and the line is at or below its top; a tree crown where the link is within
the disc, below the top and under the cone. Only obstacles whose covering
disc reaches the link's ground segment are tested. This shares no
intersection math with the analytic classifier, so agreement between the
two is strong evidence both are right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterator

import numpy as np
from numpy.random import Generator

from .citygen import CONE_DROP_FRAC, TRUNK_RADIUS_FRAC, CityLayout, sample_open_point
from .errors import DegenerateLinkError, ParameterError
from .geometry import LayoutGeometry, Link, LinkClass, ObstructionHit, classify_hits

LINK_ANGLES_DEG = (1.0, 89.9)  # elevation range of random_links
LINK_ALTITUDE_CAP_M = 10_000.0


@dataclass(frozen=True)
class BruteForceResult:
    link_class: LinkClass
    blocked: dict[str, frozenset[int]]
    crossed: dict[str, frozenset[int]]


def _project(link: Link, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Distance from points to the link's ground segment."""
    (ax, ay), (bx, by) = link.abs_xy, link.gu_xy
    dx, dy = bx - ax, by - ay
    t = np.clip(((cx - ax) * dx + (cy - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return np.hypot(cx - (ax + t * dx), cy - (ay + t * dy))


def _integers(values: list[float]) -> list[int]:
    """The values as integers on the coarsest power-of-two grid that all of
    them lie on: each is n / d with d a power of two, so n scaled by the
    largest d over its own d."""
    ratios = [v.as_integer_ratio() for v in values]
    top = max(d.bit_length() for _, d in ratios)
    return [n << top - d.bit_length() for n, d in ratios]


def _feasible(polys: list[tuple[int, int, int]]) -> bool:
    """Whether every c2 u^2 + c1 u + c0 in polys is >= 0 at one u in [0, 1]:
    at an end of [0, 1] or a root of one of them, if anywhere. Each is a
    point (m + s sqrt(disc)) / n, n > 0, where n^2 times a value is
    x + y sqrt(disc), signed exactly by squaring."""
    polys = [*polys, (0, 1, 0), (0, -1, 1)]  # u >= 0, 1 - u >= 0
    points = []
    for c2, c1, c0 in polys:
        k, disc = (1 if c2 > 0 or c2 == 0 and c1 > 0 else -1), c1 * c1 - 4 * c2 * c0
        if c2 and disc >= 0:
            points += [(-c1 * k, s, disc, 2 * c2 * k) for s in (-1, 1)]
        elif c1 and not c2:
            points.append((-c0 * k, 0, 0, c1 * k))

    def nonnegative(c2, c1, c0, m, s, disc, n):
        x, y = c2 * (m * m + disc) + c1 * m * n + c0 * n * n, s * (2 * c2 * m + c1 * n)
        return (x >= 0 or y * y * disc >= x * x) if y >= 0 else (x >= 0 and x * x >= y * y * disc)

    return any(all(nonnegative(*p, *x) for p in polys) for x in points)


def _box(ax, ay, ex, ey, h_abs, dh, x0, y0, x1, y1, h) -> tuple[bool, bool]:
    """Whether the link crosses box [x0, x1] x [y0, y1] and blocks under its
    roof h: the run [lo, hi] of u in both slabs and [0, 1], ends n / d, d > 0."""
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for a, e, b0, b1 in ((ax, ex, x0, x1), (ay, ey, y0, y1)):
        if e < 0:  # walk the mirrored axis
            a, e, b0, b1 = -a, -e, -b1, -b0
        if e == 0 and not b0 <= a <= b1:
            return False, False
        if e and (b0 - a) * lo_d > lo_n * e:
            lo_n, lo_d = b0 - a, e
        if e and (b1 - a) * hi_d < hi_n * e:
            hi_n, hi_d = b1 - a, e
    if lo_n * hi_d > hi_n * lo_d:
        return False, False
    return True, h_abs * hi_d - hi_n * dh <= h * hi_d


def _disc(ax, ay, ex, ey, h_abs, dh, x, y, r, h, tree=False) -> tuple[bool, bool]:
    """Whether the link crosses a disc of radius r, and blocks: within r of
    the axis (a tree: within its trunk's TRUNK_RADIUS_FRAC r, or under its
    crown) where the line is at or below the top h. Along the link,
    rho^2 = a u^2 - 2 b u + c and h - L = w + dh u; the crown is
    (kd r)^2 (h - L)^2 >= (kn h)^2 rho^2 for the drop kn / kd."""
    dx, dy, w = x - ax, y - ay, h - h_abs
    a, b, c = ex * ex + ey * ey, dx * ex + dy * ey, dx * dx + dy * dy
    disc, below = (-a, 2 * b, r * r - c), (0, dh, w)
    if not _feasible([disc]):
        return False, False
    if not tree:
        return True, _feasible([disc, below])
    (tn, td), (kn, kd) = TRUNK_RADIUS_FRAC.as_integer_ratio(), CONE_DROP_FRAC.as_integer_ratio()
    trunk = (-a * td * td, 2 * b * td * td, (tn * r) ** 2 - c * td * td)
    s, t = (kd * r) ** 2, (kn * h) ** 2
    crown = (s * dh * dh - t * a, 2 * (s * w * dh + t * b), s * w * w - t * c)
    return True, _feasible([trunk, below]) or _feasible([disc, below, crown])


def obstacle_families(layout: CityLayout) -> tuple[list[tuple], np.ndarray]:
    """One row per obstacle family, in precedence order: its kind, the class
    of a link it blocks, its obstacles as rows of Python floats (a building
    as its box x0, y0, x1, y1 and roof h; a tree or light as x, y, r, h) and
    its exact test; and the covering discs of all obstacles, family after
    family, as rows of centres x, centres y and radii."""
    bs, trees, lights = layout.buildings, layout.trees, layout.lights
    x1, y1 = bs.x + bs.w, bs.y + bs.l
    boxes = list(zip(*(column.tolist() for column in (bs.x, bs.y, x1, y1, bs.h))))
    families = [
        ("building", LinkClass.NLOS_BUILDING, boxes, _box),
        ("tree", LinkClass.NLOS_TREE, trees.tolist(), partial(_disc, tree=True)),
        ("streetlight", LinkClass.NLOS_LIGHT, lights.tolist(), _disc),
    ]
    covering = [((bs.x + x1) / 2, (bs.y + y1) / 2, np.hypot(bs.w, bs.l) / 2), *((d.x, d.y, d.r) for d in (trees, lights))]
    return families, np.hstack(covering)


def classify_link_bruteforce(link: Link, families: tuple[list[tuple], np.ndarray]) -> BruteForceResult:
    """Exact classification of one link against obstacle_families' output;
    the first family that blocks it names its class. Only obstacles within
    their covering radius of the ground segment, with a margin against
    rounding, are tested, on one integer grid for the link and all of them."""
    if link.ground_distance <= 0.0:
        raise DegenerateLinkError("link has zero ground distance")
    rows, (cx, cy, reach) = families
    near = np.nonzero(_project(link, cx, cy) <= reach + 1e-9)[0]
    starts = np.cumsum([0, *(len(obstacles) for _, _, obstacles, _ in rows)])
    cuts = np.searchsorted(near, starts).tolist()
    near = [(near[i:j] - start).tolist() for i, j, start in zip(cuts, cuts[1:], starts)]
    values = [v for (_, _, obstacles, _), ids in zip(rows, near) for i in ids for v in obstacles[i]]
    ax, ay, bx, by, h_abs, h_gu, *ints = _integers([*link.abs_xy, *link.gu_xy, link.h_abs, link.h_gu, *values])
    segment, it = (ax, ay, bx - ax, by - ay, h_abs, h_abs - h_gu), iter(ints)
    link_class = LinkClass.LOS
    crossed, blocked = {}, {}
    for (kind, blocked_class, obstacles, test), ids in zip(rows, near):
        tested = {i: test(*segment, *islice(it, len(obstacles[i]))) for i in ids}
        crossed[kind] = frozenset({i for i, (hit, _) in tested.items() if hit})
        blocked[kind] = frozenset({i for i, (_, low) in tested.items() if low})
        if blocked[kind] and link_class is LinkClass.LOS:
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
        ax, ay = sample_open_point(geom, rng, what="abs")
        g = math.hypot(x - ax, y - ay)
        theta = math.radians(rng.uniform(*LINK_ANGLES_DEG))
        h_abs = min(h_gu + g * math.tan(theta), LINK_ALTITUDE_CAP_M)
        links.append(Link(abs_xy=(ax, ay), h_abs=h_abs, gu_xy=(x, y), h_gu=h_gu))
    return links


def check_links(
    geom: LayoutGeometry, links: list[Link]
) -> Iterator[tuple[list[ObstructionHit], LinkClass, BruteForceResult]]:
    """Run both classifiers on each link of geom's layout; yield the
    analytic crossings, the analytic class and the oracle's
    BruteForceResult. The links share one h_gu, as random_links draws them:
    their crossings come from one crossings_of pass."""
    families = obstacle_families(geom.layout)
    for link, hits in zip(links, geom.crossings_of(links)):
        yield hits, classify_hits(hits), classify_link_bruteforce(link, families)
