"""LoS/NLoS classification of air-to-ground links.

A link is the straight line from an aerial base station (ABS) at altitude
h_abs down to a ground user at h_gu. Walking the ground projection from
the ABS (fraction u = 0) to the user (u = 1), the line height is affine:

    h_line(u) = h_abs - u * (h_abs - h_gu)

An obstacle whose 2-D footprint the projection crosses blocks the link
when h_line(u) <= obstacle height somewhere on the crossing. Because
h_line is affine in h_abs with nonnegative coefficient (1 - u), every
crossing has a critical altitude: the smallest ABS altitude at which the
link just grazes the obstacle. The link is blocked iff h_abs is at or
below that altitude, which makes classification exact and lets a whole
elevation-angle sweep reuse one set of per-link critical altitudes.

Buildings and streetlights have constant height over the crossing, so
the critical altitude sits at a chord endpoint. Tree foliage is a cone;
its critical point is either a chord endpoint, a trunk-cap boundary, or
an interior stationary point with a closed-form quadratic solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .citygen import CityLayout, FootprintIndex, Tree
from .errors import DegenerateLinkError, ParameterError

_U_ONE = 1.0 - 1e-12  # treat crossings this close to the user as at the user


class LinkClass(Enum):
    """Exclusive link classification."""

    LOS = "los"
    NLOS_BUILDING = "nlos_b"
    NLOS_TREE = "nlos_t"
    NLOS_LIGHT = "nlos_s"


@dataclass(frozen=True)
class Link:
    """One ABS-GU geometry: ground endpoints plus endpoint heights."""

    abs_xy: tuple[float, float]
    h_abs: float
    gu_xy: tuple[float, float]
    h_gu: float

    def __post_init__(self):
        if self.h_abs < self.h_gu:
            raise ParameterError(
                f"h_abs ({self.h_abs}) must be >= h_gu ({self.h_gu})"
            )

    @property
    def ground_distance(self) -> float:
        return math.hypot(
            self.gu_xy[0] - self.abs_xy[0], self.gu_xy[1] - self.abs_xy[1]
        )


@dataclass(frozen=True)
class ObstructionHit:
    """One footprint crossed by the link's ground projection.

    r_i is the ground distance from the ABS to the crossing's critical
    point (the point needing the highest ABS altitude to clear);
    obstacle_height is the obstacle profile there and blockage_height the
    line height there for the link's actual h_abs.
    """

    kind: str  # "building" | "tree" | "streetlight"
    index: int
    r_i: float
    obstacle_height: float
    blockage_height: float
    blocks: bool


def blockage_height(h_abs: float, h_gu: float, r_i: float, r: float) -> float:
    """Height of the ABS-GU line at ground distance r_i from the ABS."""
    if r <= 0.0:
        raise DegenerateLinkError(f"link ground distance must be > 0, got {r}")
    if not 0.0 <= r_i <= r:
        raise ParameterError(f"r_i must be in [0, r], got r_i={r_i}, r={r}")
    return h_abs - r_i * (h_abs - h_gu) / r


def tree_height_at(tree: Tree, rho: float) -> float:
    """Obstruction height of a tree at radial distance rho from its axis.

    Inside the trunk radius the column blocks up to the full tree height;
    across the foliage disc the cone surface drops linearly to 0.2 h at
    the rim; beyond the foliage radius there is no obstruction.
    """
    if rho < 0.0:
        raise ParameterError(f"rho must be >= 0, got {rho}")
    if rho <= tree.r_trunk:
        return tree.h
    if rho <= tree.r:
        return tree.h * (1.0 - 0.8 * rho / tree.r)
    return 0.0


def _required_altitude(obstacle_h: float, h_gu: float, u: float) -> float:
    """ABS altitude at which the line grazes height obstacle_h at fraction u."""
    if u >= _U_ONE:
        return math.inf if obstacle_h > h_gu else -math.inf
    return (obstacle_h - h_gu * u) / (1.0 - u)


def _tree_critical(
    ax: float,
    ay: float,
    dx: float,
    dy: float,
    g2: float,
    tree_x: float,
    tree_y: float,
    r_t: float,
    h_t: float,
    h_gu: float,
) -> tuple[float, float, float] | None:
    """Critical altitude for one tree crossing, or None if not crossed.

    Returns (critical_altitude, u_at_critical, profile_height_at_critical).
    The maximum of the required altitude over the crossed region is
    attained at an interval endpoint, at a trunk-cap boundary, or at a
    stationary point of the cone term; all are enumerated exactly.
    """
    ex, ey = ax - tree_x, ay - tree_y
    b = 2.0 * (ex * dx + ey * dy)
    c = ex * ex + ey * ey - r_t * r_t
    disc = b * b - 4.0 * g2 * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    lo = max((-b - sq) / (2.0 * g2), 0.0)
    hi = min((-b + sq) / (2.0 * g2), 1.0)
    if lo > hi:
        return None

    u0 = -b / (2.0 * g2)  # closest approach to the tree axis
    d2 = max(ex * ex + ey * ey - g2 * u0 * u0, 0.0)  # squared axis distance
    r_trunk = 0.1 * r_t
    kappa = 0.8 * h_t / r_t

    def cone_height(u: float) -> float:
        rho = math.sqrt(max(g2 * (u - u0) ** 2 + d2, 0.0))
        if rho <= r_trunk:
            return h_t
        return h_t * (1.0 - 0.8 * min(rho, r_t) / r_t)

    candidates: list[tuple[float, float]] = []

    # Trunk cap: constant full height over its chord, so endpoints suffice.
    cap = None
    if d2 <= r_trunk * r_trunk:
        half = math.sqrt((r_trunk * r_trunk - d2) / g2)
        t1, t2 = max(u0 - half, lo), min(u0 + half, hi)
        if t1 <= t2:
            cap = (t1, t2)
            candidates.append((t1, h_t))
            candidates.append((t2, h_t))

    intervals = [(lo, hi)] if cap is None else [(lo, cap[0]), (cap[1], hi)]
    c0 = (h_t - h_gu) / kappa
    m = g2 * (1.0 - u0)
    qa = m * m - c0 * c0 * g2
    qb = 2.0 * m * d2
    qc = d2 * d2 - c0 * c0 * d2
    roots: list[float] = []
    if abs(qa) > 0.0:
        qd = qb * qb - 4.0 * qa * qc
        if qd >= 0.0:
            sqd = math.sqrt(qd)
            roots = [(-qb - sqd) / (2.0 * qa), (-qb + sqd) / (2.0 * qa)]
    elif abs(qb) > 0.0:
        roots = [-qc / qb]

    for ia, ib in intervals:
        if ia > ib:
            continue
        candidates.append((ia, cone_height(ia)))
        candidates.append((ib, cone_height(ib)))
        for w in roots:
            u = u0 + w
            if ia < u < ib:
                candidates.append((u, cone_height(u)))
        if ia < u0 < ib:  # kink of rho(u) when the chord passes the axis
            candidates.append((u0, cone_height(u0)))

    best = None
    for u, prof in candidates:
        alt = _required_altitude(prof, h_gu, u)
        if best is None or alt > best[0]:
            best = (alt, u, prof)
    return best


class LayoutGeometry:
    """Crossing and blockage analysis against one fixed layout."""

    def __init__(self, layout: CityLayout):
        self.layout = layout
        self.index = FootprintIndex(layout.buildings, layout.trees, layout.lights)
        self.bh = np.array([b.h for b in layout.buildings])
        self.th = np.array([t.h for t in layout.trees])
        self.lh = np.array([s.h for s in layout.lights])

    # -- batched crossing analysis -------------------------------------

    def _rect_chords(
        self, ax: float, ay: float, dx: np.ndarray, dy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Liang-Barsky slab clipping of L links against all rectangles.

        dx, dy have shape (L, 1). Returns (crossed, u_in, u_out), each (L, Nb).
        """
        idx = self.index
        with np.errstate(divide="ignore", invalid="ignore"):
            t1x = (idx.bx0[None, :] - ax) / dx
            t2x = (idx.bx1[None, :] - ax) / dx
            t1y = (idx.by0[None, :] - ay) / dy
            t2y = (idx.by1[None, :] - ay) / dy
        zx = np.abs(dx) < 1e-300
        zy = np.abs(dy) < 1e-300
        in_x = (ax >= idx.bx0[None, :]) & (ax <= idx.bx1[None, :])
        in_y = (ay >= idx.by0[None, :]) & (ay <= idx.by1[None, :])
        txmin = np.where(zx, np.where(in_x, -np.inf, np.inf), np.minimum(t1x, t2x))
        txmax = np.where(zx, np.where(in_x, np.inf, -np.inf), np.maximum(t1x, t2x))
        tymin = np.where(zy, np.where(in_y, -np.inf, np.inf), np.minimum(t1y, t2y))
        tymax = np.where(zy, np.where(in_y, np.inf, -np.inf), np.maximum(t1y, t2y))
        u_in = np.maximum(np.maximum(txmin, tymin), 0.0)
        u_out = np.minimum(np.minimum(txmax, tymax), 1.0)
        return u_in <= u_out, u_in, u_out

    @staticmethod
    def _disc_chords(
        ax: float,
        ay: float,
        dx: np.ndarray,
        dy: np.ndarray,
        g2: np.ndarray,
        cx: np.ndarray,
        cy: np.ndarray,
        r: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chord parameters of L links through N discs; shapes (L, N)."""
        ex = ax - cx[None, :]
        ey = ay - cy[None, :]
        b = 2.0 * (ex * dx + ey * dy)
        c = ex * ex + ey * ey - r[None, :] ** 2
        disc = b * b - 4.0 * g2 * c
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        u1 = np.maximum((-b - sq) / (2.0 * g2), 0.0)
        u2 = np.minimum((-b + sq) / (2.0 * g2), 1.0)
        return ok & (u1 <= u2), u1, u2

    def _critical_points(
        self, abs_xy: tuple[float, float], gu_xy: np.ndarray, h_gu: float
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Critical point of every crossed (link, obstacle) pair.

        The one derivation of u_crit (the fraction along the link needing
        the highest ABS altitude to clear the obstacle), the profile height
        there and the critical altitude; every view below reads it. For L
        links sharing one ABS position returns (buildings, trees, lights).
        Buildings and lights are dense (L, N) arrays (crossed, u_crit, alt),
        their profile being the obstacle height; trees are flat parallel
        arrays (link row, tree index, u_crit, profile, alt) over crossed
        pairs only.
        """
        ax, ay = abs_xy
        dx = gu_xy[:, 0:1] - ax
        dy = gu_xy[:, 1:2] - ay
        g2 = dx * dx + dy * dy
        if np.any(g2 <= 0.0):
            raise DegenerateLinkError("a link has zero ground distance")
        idx = self.index

        def constant_height(h, crossed, u_in, u_out):
            # the required altitude rises along the chord when h >= h_gu and
            # falls otherwise, so the stricter end is the exit or the entry
            u = np.where(h >= h_gu, u_out, u_in)
            with np.errstate(divide="ignore", invalid="ignore"):
                alt = (h - h_gu * u) / (1.0 - u)
            alt = np.where(u >= _U_ONE, np.where(h > h_gu, np.inf, -np.inf), alt)
            return crossed, u, alt

        buildings = constant_height(self.bh[None, :], *self._rect_chords(ax, ay, dx, dy))
        lights = constant_height(
            self.lh[None, :],
            *self._disc_chords(ax, ay, dx, dy, g2, idx.lx, idx.ly, idx.lr),
        )

        crossed, _, _ = self._disc_chords(ax, ay, dx, dy, g2, idx.tx, idx.ty, idx.tr)
        found = []
        for row, col in zip(*(a.tolist() for a in np.nonzero(crossed))):
            res = _tree_critical(
                ax,
                ay,
                float(dx[row, 0]),
                float(dy[row, 0]),
                float(g2[row, 0]),
                float(idx.tx[col]),
                float(idx.ty[col]),
                float(idx.tr[col]),
                float(self.th[col]),
                h_gu,
            )
            if res is not None:
                alt, u, prof = res
                found.append((row, col, u, prof, alt))
        columns = list(zip(*found)) if found else [()] * 5
        trees = tuple(
            np.array(values, dtype=dtype)
            for values, dtype in zip(columns, (np.int64, np.int64, float, float, float))
        )
        return buildings, trees, lights

    def batch_critical_altitudes(
        self, abs_xy: tuple[float, float], gu_xy: np.ndarray, h_gu: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-link critical altitudes for L users sharing one ABS position.

        Returns (alt_building, alt_light, tree_link, tree_idx, tree_alt):
        the first two are (L,) maxima over crossed obstacles (-inf when
        nothing is crossed); the tree entries are flat parallel arrays of
        (link row, tree index, critical altitude) for every crossed tree,
        so callers can take prefix subsets of the tree population.
        """
        buildings, trees, lights = self._critical_points(abs_xy, gu_xy, h_gu)
        alt_b, alt_s = (
            np.max(np.where(crossed, alt, -np.inf), axis=1, initial=-np.inf)
            for crossed, _, alt in (buildings, lights)
        )
        tree_link, tree_idx, _, _, tree_alt = trees
        return alt_b, alt_s, tree_link, tree_idx, tree_alt

    # -- single-link views ----------------------------------------------

    def critical_altitudes(self, link: Link) -> tuple[float, float, float]:
        """(building, tree, streetlight) critical altitudes for one link."""
        alt_b, alt_s, _, _, tree_alt = self.batch_critical_altitudes(
            link.abs_xy, np.array([link.gu_xy]), link.h_gu
        )
        return float(alt_b[0]), float(np.max(tree_alt, initial=-np.inf)), float(alt_s[0])

    def crossings(self, link: Link) -> list[ObstructionHit]:
        """All footprints crossed by the link, ordered by ground distance
        from the ABS to each crossing's critical point."""
        buildings, trees, lights = self._critical_points(
            link.abs_xy, np.array([link.gu_xy]), link.h_gu
        )

        def dense(family, h):
            crossed, u, alt = family
            cols = np.flatnonzero(crossed[0])
            return cols, u[0, cols], h[cols], alt[0, cols]

        g = link.ground_distance
        hits: list[ObstructionHit] = []
        for kind, family in (
            ("building", dense(buildings, self.bh)),
            ("tree", trees[1:]),
            ("streetlight", dense(lights, self.lh)),
        ):
            for i, u, prof, alt in zip(*(a.tolist() for a in family)):
                r_i = u * g
                hits.append(
                    ObstructionHit(
                        kind=kind,
                        index=i,
                        r_i=r_i,
                        obstacle_height=prof,
                        blockage_height=blockage_height(link.h_abs, link.h_gu, r_i, g),
                        blocks=link.h_abs <= alt,
                    )
                )
        hits.sort(key=lambda hit: hit.r_i)
        return hits

    def classify(self, link: Link) -> LinkClass:
        """Building > tree > streetlight precedence over blocking obstacles."""
        alt_b, alt_t, alt_s = self.critical_altitudes(link)
        if link.h_abs <= alt_b:
            return LinkClass.NLOS_BUILDING
        if link.h_abs <= alt_t:
            return LinkClass.NLOS_TREE
        if link.h_abs <= alt_s:
            return LinkClass.NLOS_LIGHT
        return LinkClass.LOS

