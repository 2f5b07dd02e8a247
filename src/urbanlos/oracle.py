"""Exact brute-force check for link classification.

Decides each footprint and blocking test in integers, with no step and no
tolerance: every value is a binary float, so an integer on the 2**-1074
grid, and a link's values and its candidates' go onto the 2**-128 grid
when they all lie on it. A building is crossed over one Liang-Barsky run
of the link, and blocks iff the line is at or below its roof at the run's
end, because the line falls along the link. A streetlight or a tree trunk
blocks iff the link comes within its radius of its axis where the line is
at or below its top; a tree crown iff three quadratic constraints hold at
one point of the link. Only obstacles whose covering disc reaches the
link's ground segment are tested. This shares no intersection math with
the analytic classifier, so agreement between the two is strong evidence
both are right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np
from numpy.random import Generator

from .citygen import CONE_DROP_FRAC, TRUNK_RADIUS_FRAC, CityLayout, sample_open_point
from .errors import DegenerateLinkError, ParameterError
from .geometry import LayoutGeometry, Link, LinkClass, ObstructionHit, classify_hits

LINK_ANGLES_DEG = (1.0, 89.9)  # elevation range of random_links
LINK_ALTITUDE_CAP_M = 10_000.0

_GRID = 2.0**128  # v * _GRID is exact for every finite v that does not overflow


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
    """The values as integers on one grid: 2**-128 if all of them lie on it,
    else 2**-1074, where every finite float does."""
    scaled = [v * _GRID for v in values]
    if all(s.is_integer() for s in scaled):
        return [int(s) for s in scaled]
    return [n << 1074 >> d.bit_length() - 1 for n, d in map(float.as_integer_ratio, values)]


def _nearest(dx: int, dy: int, ex: int, ey: int, lo: tuple[int, int]) -> tuple[int, int]:
    """The least |D - u E|^2 over u in [lo, 1], lo = n / d, as a fraction
    (num, den): at the vertex u = D.E / E.E, clamped to the interval."""
    a, b = ex * ex + ey * ey, dx * ex + dy * ey
    n, m = lo if b * lo[1] < lo[0] * a else (1, 1) if b > a else (b, a)
    qx, qy = dx * m - n * ex, dy * m - n * ey
    return qx * qx + qy * qy, m * m


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


def _light(ax, ay, ex, ey, h_abs, dh, x, y, r, h, trunk=(1, 1)) -> tuple[bool, bool]:
    """Whether the link crosses a disc of radius r, and comes within r * trunk
    (trunk = n / d) of its axis from u_h on, under the height h."""
    dx, dy = x - ax, y - ay
    num, den = _nearest(dx, dy, ex, ey, (0, 1))
    if num > r * r * den:
        return False, False
    if h_abs - h > dh:  # the line stays above h, as a flat link above h does
        return True, False
    num, den = _nearest(dx, dy, ex, ey, (max(h_abs - h, 0), dh or 1))
    return True, num * trunk[1] ** 2 <= (trunk[0] * r) ** 2 * den


def _tree(ax, ay, ex, ey, h_abs, dh, x, y, r, h) -> tuple[bool, bool]:
    """Whether the link crosses a tree's disc, and blocks under its trunk or
    its crown: rho^2 = a u^2 - 2 b u + c, h - L = w + dh u >= 0 and
    (kd r)^2 (h - L)^2 >= (kn h)^2 rho^2 for the drop kn / kd."""
    crossed, blocked = _light(ax, ay, ex, ey, h_abs, dh, x, y, r, h, TRUNK_RADIUS_FRAC.as_integer_ratio())
    if blocked or not crossed:
        return crossed, blocked
    dx, dy, (kn, kd) = x - ax, y - ay, CONE_DROP_FRAC.as_integer_ratio()
    a, b, c, w = ex * ex + ey * ey, dx * ex + dy * ey, dx * dx + dy * dy, h - h_abs
    s, t = (kd * r) ** 2, (kn * h) ** 2
    crown = (s * dh * dh - t * a, 2 * (s * w * dh + t * b), s * w * w - t * c)
    return True, _feasible([(-a, 2 * b, r * r - c), (0, dh, w), crown])


def obstacle_families(layout: CityLayout) -> list[tuple]:
    """One row per obstacle family, in precedence order: its kind, the class
    of a link it blocks, its obstacles as rows of Python floats (a building
    as its box x0, y0, x1, y1 and roof h; a tree or light as x, y, r, h),
    their covering discs (centres x and y, radii), and its exact test."""
    bs, trees, lights = layout.buildings, layout.trees, layout.lights
    x1, y1 = bs.x + bs.w, bs.y + bs.l
    boxes = list(zip(*(column.tolist() for column in (bs.x, bs.y, x1, y1, bs.h))))
    return [
        ("building", LinkClass.NLOS_BUILDING, boxes, (bs.x + x1) / 2, (bs.y + y1) / 2, np.hypot(bs.w, bs.l) / 2, _box),
        ("tree", LinkClass.NLOS_TREE, trees.tolist(), trees.x, trees.y, trees.r, _tree),
        ("streetlight", LinkClass.NLOS_LIGHT, lights.tolist(), lights.x, lights.y, lights.r, _light),
    ]


def classify_link_bruteforce(link: Link, families: list[tuple]) -> BruteForceResult:
    """Exact classification of one link; the first family that blocks it
    names its class. Only obstacles within their covering radius of the
    ground segment, with a margin against rounding, are tested, on one
    integer grid for the link and all of them."""
    if link.ground_distance <= 0.0:
        raise DegenerateLinkError("link has zero ground distance")
    near = [np.nonzero(_project(link, cx, cy) <= reach + 1e-9)[0].tolist() for _, _, _, cx, cy, reach, _ in families]
    rows = [v for (_, _, obstacles, *_), ids in zip(families, near) for i in ids for v in obstacles[i]]
    ax, ay, bx, by, h_abs, h_gu, *ints = _integers([*link.abs_xy, *link.gu_xy, link.h_abs, link.h_gu, *rows])
    segment, it = (ax, ay, bx - ax, by - ay, h_abs, h_abs - h_gu), iter(ints)
    link_class = LinkClass.LOS
    crossed, blocked = {}, {}
    for (kind, blocked_class, obstacles, *_, test), ids in zip(families, near):
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
        ax, ay = sample_open_point(geom.index, rng, what="abs")
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
