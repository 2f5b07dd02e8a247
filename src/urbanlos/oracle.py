"""Brute-force rasterization check for link classification.

Walks the link's ground projection in fixed 1 cm steps, tests every step
point for footprint membership, and compares the interpolated line height
against the obstacle height at that point. This shares no intersection
math with the analytic classifier, so agreement between the two is strong
evidence both are right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import Generator

from .citygen import CityLayout
from .errors import DegenerateLinkError
from .geometry import LayoutGeometry, Link, LinkClass, ObstructionHit, classify_hits

DEFAULT_STEP_M = 0.01


@dataclass(frozen=True)
class BruteForceResult:
    link_class: LinkClass
    blocked: dict[str, frozenset[int]]
    crossed: dict[str, frozenset[int]]


def _step_points(link: Link, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g = link.ground_distance
    if g <= 0.0:
        raise DegenerateLinkError("link has zero ground distance")
    n = int(math.floor(g / step))
    dists = np.arange(n + 1, dtype=float) * step
    if g - dists[-1] > 1e-12:
        dists = np.append(dists, g)
    u = dists / g
    ax, ay = link.abs_xy
    px = ax + u * (link.gu_xy[0] - ax)
    py = ay + u * (link.gu_xy[1] - ay)
    h_line = link.h_abs - u * (link.h_abs - link.h_gu)
    return px, py, h_line


def _segment_distances(
    link: Link, cx: np.ndarray, cy: np.ndarray
) -> np.ndarray:
    """Distance from points to the link's ground segment."""
    ax, ay = link.abs_xy
    dx = link.gu_xy[0] - ax
    dy = link.gu_xy[1] - ay
    g2 = dx * dx + dy * dy
    t = np.clip(((cx - ax) * dx + (cy - ay) * dy) / g2, 0.0, 1.0)
    return np.hypot(cx - (ax + t * dx), cy - (ay + t * dy))


def classify_link_bruteforce(
    link: Link,
    layout: CityLayout,
    step: float = DEFAULT_STEP_M,
) -> BruteForceResult:
    """Rasterized classification of one link.

    Obstacles provably farther from the segment than their own radius are
    skipped before the point tests, since no step point can fall inside them.
    """
    px, py, h_line = _step_points(link, step)
    crossed: dict[str, set[int]] = {"building": set(), "tree": set(), "streetlight": set()}
    blocked: dict[str, set[int]] = {"building": set(), "tree": set(), "streetlight": set()}

    bs = layout.buildings
    cx = np.array([(b.x + b.x1) / 2.0 for b in bs])
    cy = np.array([(b.y + b.y1) / 2.0 for b in bs])
    half_diag = np.array([math.hypot(b.w, b.l) / 2.0 for b in bs])
    cand_b = np.nonzero(_segment_distances(link, cx, cy) <= half_diag + 1e-9)[0]
    for i in cand_b:
        b = bs[i]
        inside = (px >= b.x) & (px <= b.x1) & (py >= b.y) & (py <= b.y1)
        if not inside.any():
            continue
        crossed["building"].add(int(i))
        if (inside & (h_line <= b.h)).any():
            blocked["building"].add(int(i))

    ts = layout.trees
    cx = np.array([t.x for t in ts])
    cy = np.array([t.y for t in ts])
    rr = np.array([t.r for t in ts])
    cand_t = np.nonzero(_segment_distances(link, cx, cy) <= rr + 1e-9)[0]
    for i in cand_t:
        t = ts[i]
        rho = np.hypot(px - t.x, py - t.y)
        inside = rho <= t.r
        if not inside.any():
            continue
        crossed["tree"].add(int(i))
        profile = np.where(rho <= t.r_trunk, t.h, t.h * (1.0 - 0.8 * rho / t.r))
        if (inside & (h_line <= profile)).any():
            blocked["tree"].add(int(i))

    ss = layout.lights
    cx = np.array([s.x for s in ss])
    cy = np.array([s.y for s in ss])
    rr = np.array([s.r for s in ss])
    cand_s = np.nonzero(_segment_distances(link, cx, cy) <= rr + 1e-9)[0]
    for i in cand_s:
        s = ss[i]
        inside = np.hypot(px - s.x, py - s.y) <= s.r
        if not inside.any():
            continue
        crossed["streetlight"].add(int(i))
        if (inside & (h_line <= s.h)).any():
            blocked["streetlight"].add(int(i))

    if blocked["building"]:
        cls = LinkClass.NLOS_BUILDING
    elif blocked["tree"]:
        cls = LinkClass.NLOS_TREE
    elif blocked["streetlight"]:
        cls = LinkClass.NLOS_LIGHT
    else:
        cls = LinkClass.LOS
    return BruteForceResult(
        link_class=cls,
        blocked={k: frozenset(v) for k, v in blocked.items()},
        crossed={k: frozenset(v) for k, v in crossed.items()},
    )


def random_links(
    layout: CityLayout,
    geom: LayoutGeometry,
    rng: Generator,
    n: int,
    angles_deg: tuple[float, float] = (1.0, 89.9),
    altitude_cap_m: float = 10_000.0,
) -> list[Link]:
    """Sample sweep-like links: a random user, a random open ABS ground
    position, and an elevation angle uniform over the given range."""
    from .citygen import sample_open_point

    links = []
    h_gu = layout.config.h_gu
    for _ in range(n):
        user = layout.users[int(rng.integers(len(layout.users)))]
        ax, ay = sample_open_point(geom.index, layout.side, rng, what="abs")
        g = math.hypot(user.x - ax, user.y - ay)
        theta = math.radians(rng.uniform(*angles_deg))
        h_abs = min(h_gu + g * math.tan(theta), altitude_cap_m)
        links.append(
            Link(abs_xy=(ax, ay), h_abs=h_abs, gu_xy=(user.x, user.y), h_gu=h_gu)
        )
    return links


def check_links(
    layout: CityLayout,
    links: list[Link],
    step: float = DEFAULT_STEP_M,
) -> Iterator[tuple[list[ObstructionHit], BruteForceResult, dict | None]]:
    """Run both classifiers on each link; yield the analytic crossings, the
    oracle's result and a mismatch record, or None where the two agree."""
    geom = LayoutGeometry(layout)
    for i, link in enumerate(links):
        hits = geom.crossings(link)
        fast = classify_hits(hits)
        slow = classify_link_bruteforce(link, layout, step=step)
        mismatch = None
        if fast is not slow.link_class:
            mismatch = {
                "link": i,
                "analytic": fast.value,
                "bruteforce": slow.link_class.value,
                "abs_xy": list(link.abs_xy),
                "gu_xy": list(link.gu_xy),
                "h_abs": link.h_abs,
            }
        yield hits, slow, mismatch
