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
its critical point is either a chord endpoint, a trunk-cap boundary, an
interior stationary point with a closed-form quadratic solution, or the
point nearest the tree axis.

LayoutGeometry is a layout's FootprintIndex, its one obstacle index. One
array pass, LayoutGeometry._critical_points, derives every critical
point for L links sharing one ground-user height, from one shared ABS
position or one per link, as flat parallel arrays over the crossed
(link, obstacle) pairs of each family: _rect_chords and _disc_chords test
only the index's candidate pairs, by bearing from a shared ABS
(fan_pairs) and by the cell table's walk along each link with its own
ABS (segment_pairs). One _required_altitude rule serves all three
families, and _tree_critical evaluates the tree candidate set for all
crossed (link, tree) pairs at once. The batch view reduces the pairs to
per-link maxima with link_maxima; crossings_of turns the pairs of many
links, each with its own ABS, into their hit lists, and the single-link
views read the same pairs. classify is the family precedence over the
blocking flags of crossings, so one link costs one pass, and so does a
list of links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .citygen import CONE_DROP_FRAC, TRUNK_RADIUS_FRAC, CityLayout, FootprintIndex
from .errors import DegenerateLinkError, ParameterError

_U_ONE = 1.0 - 1e-12  # treat crossings this close to the user as at the user


class LinkClass(Enum):
    """Exclusive link classification."""

    LOS = "los"
    NLOS_BUILDING = "nlos_b"
    NLOS_TREE = "nlos_t"
    NLOS_LIGHT = "nlos_s"


#: Obstacle families in precedence order: the kind a hit names, the class of a link it blocks.
FAMILIES = (("building", LinkClass.NLOS_BUILDING), ("tree", LinkClass.NLOS_TREE), ("streetlight", LinkClass.NLOS_LIGHT))


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


def tree_height_at(tree, rho: float) -> float:
    """Obstruction height of a tree at radial distance rho from its axis;
    tree is a DISC row (x, y, r, h), a table's or its tolist() tuple.

    Inside the trunk radius the column blocks up to the full tree height;
    across the foliage disc the cone surface drops linearly to 0.2 h at
    the rim; beyond the foliage radius there is no obstruction.
    """
    _, _, r, h = tree
    if rho < 0.0:
        raise ParameterError(f"rho must be >= 0, got {rho}")
    if rho <= TRUNK_RADIUS_FRAC * r:
        return h
    if rho <= r:
        return h * (1.0 - CONE_DROP_FRAC * rho / r)
    return 0.0


def _required_altitude(h, h_gu: float, u):
    """ABS altitude at which the line grazes height h at fraction u; arrays.

    At the user end (u >= _U_ONE) the line sits at h_gu whatever the ABS
    altitude, so the crossing blocks at every altitude or at none.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        alt = (h - h_gu * u) / (1.0 - u)
    return np.where(u >= _U_ONE, np.where(h > h_gu, np.inf, -np.inf), alt)


def link_maxima(n_links: int, row: np.ndarray, alt: np.ndarray) -> np.ndarray:
    """(n_links,) maximum pair altitude per link row; -inf where a link has
    no pair."""
    out = np.full(n_links, -np.inf)
    np.maximum.at(out, row, alt)
    return out


def _slab(a, d, lo, hi):
    """Liang-Barsky fractions (t_min, t_max) of links from a with step d
    through the slabs [lo, hi] of one axis, entries per pair (a shared or
    per pair)."""
    t1, t2 = (lo - a) / d, (hi - a) / d
    zero, inside = np.abs(d) < 1e-300, (a >= lo) & (a <= hi)
    t_min = np.where(zero, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    return t_min, np.where(zero, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))


def _rect_chords(ax, ay, dx, dy, g2, x0, y0, x1, y1):
    """Chords of P (link, building) pairs, entries per pair, the ABS
    position shared or per pair (g2 unused). Returns (crossed, u_in,
    u_out), each (P,)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        (txmin, txmax), (tymin, tymax) = _slab(ax, dx, x0, x1), _slab(ay, dy, y0, y1)
    u_in = np.maximum(np.maximum(txmin, tymin), 0.0)
    u_out = np.minimum(np.minimum(txmax, tymax), 1.0)
    return u_in <= u_out, u_in, u_out


def _disc_chords(ax, ay, dx, dy, g2, cx, cy, r):
    """Chords of P (link, disc) pairs, entries per pair, the ABS position
    shared or per pair. Returns (crossed, u_in, u_out), each (P,)."""
    ex = ax - cx
    ey = ay - cy
    b = 2.0 * (ex * dx + ey * dy)
    c = ex * ex + ey * ey - r**2
    disc = b * b - 4.0 * g2 * c
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    u1 = np.maximum((-b - sq) / (2.0 * g2), 0.0)
    u2 = np.minimum((-b + sq) / (2.0 * g2), 1.0)
    return ok & (u1 <= u2), u1, u2


def _tree_critical(ex, ey, dx, dy, g2, r_t, h_t, lo, hi, h_gu: float):
    """Critical points of P crossed (link, tree) pairs at once.

    Arguments but h_gu are (P, 1) columns: the ABS offset from the tree axis,
    the link direction and squared length, tree radius and height, and the
    chord [lo, hi]. The required altitude peaks at one of these candidates,
    in order: the trunk-cap ends, then per cone interval beside the cap (one
    without a cap, two with one) its ends, and the stationary roots and the
    axis kink strictly inside it. Returns (u_crit, profile, alt) of the first
    maximum, each (P,).
    """
    b = 2.0 * (ex * dx + ey * dy)
    u0 = -b / (2.0 * g2)  # closest approach to the tree axis
    d2 = np.maximum(ex * ex + ey * ey - g2 * u0 * u0, 0.0)  # squared axis distance
    r_trunk = TRUNK_RADIUS_FRAC * r_t
    kappa = CONE_DROP_FRAC * h_t / r_t

    # Trunk cap: constant full height over its chord, so its ends suffice.
    cap = d2 <= r_trunk * r_trunk
    half = np.sqrt(np.where(cap, (r_trunk * r_trunk - d2) / g2, 0.0))
    t1, t2 = np.maximum(u0 - half, lo), np.minimum(u0 + half, hi)
    cap &= t1 <= t2

    # Stationary points u0 + w of the cone term: roots of qa w^2 + qb w + qc.
    c0 = (h_t - h_gu) / kappa
    m = g2 * (1.0 - u0)
    qa = m * m - c0 * c0 * g2
    qb = 2.0 * m * d2
    qc = d2 * d2 - c0 * c0 * d2
    quadratic = np.abs(qa) > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        qd = qb * qb - 4.0 * qa * qc
        sqd = np.sqrt(qd)
        w1 = np.where(quadratic, (-qb - sqd) / (2.0 * qa), -qc / qb)
        w2 = (-qb + sqd) / (2.0 * qa)
        # -qb +- sqd cancels in one root where 4 qa qc is tiny against qb^2
        # (qa zero up to rounding, say); take that root as 2 qc / (-qb -+ sqd)
        cancels = qb * qb > 1e8 * np.abs(4.0 * qa * qc)
        w1 = np.where(quadratic & cancels & (qb < 0.0), 2.0 * qc / (-qb + sqd), w1)
        w2 = np.where(cancels & (qb > 0.0), 2.0 * qc / (-qb - sqd), w2)
    # candidates counted only strictly inside an interval: the roots, then
    # the kink of rho(u) where the chord passes the axis
    inner = np.concatenate([u0 + w1, u0 + w2, u0], axis=1)
    every = np.ones_like(cap)
    found = np.concatenate(
        [np.where(quadratic, qd >= 0.0, np.abs(qb) > 0.0), quadratic & (qd >= 0.0), every], axis=1
    )

    # the cap ends, then each interval with its ends and inner candidates:
    # (lo, hi) without a cap, (lo, t1) and (t2, hi) with one; lo <= t1 and
    # t2 <= hi by construction, so every listed interval is nonempty
    end = np.where(cap, t1, hi)
    u = np.concatenate([t1, t2, lo, end, inner, t2, hi, inner], axis=1)
    inside_first = found & (lo < inner) & (inner < end)
    inside_second = found & cap & (t2 < inner) & (inner < hi)
    valid = np.concatenate([cap, cap, every, every, inside_first, cap, cap, inside_second], axis=1)

    rho = np.sqrt(np.maximum(g2 * (u - u0) ** 2 + d2, 0.0))
    prof = np.where(rho <= r_trunk, h_t, h_t * (1.0 - CONE_DROP_FRAC * np.minimum(rho, r_t) / r_t))
    prof[:, :2] = h_t  # the cap ends
    alt = _required_altitude(prof, h_gu, u)
    # the first valid maximum; a valid -inf still beats an empty slot
    best = np.max(np.where(valid, alt, -np.inf), axis=1, keepdims=True)
    pick = np.arange(len(u)), np.argmax(valid & (alt == best), axis=1)
    return u[pick], prof[pick], alt[pick]


class LayoutGeometry(FootprintIndex):
    """Crossing and blockage analysis against one fixed layout: the layout's
    FootprintIndex, built from its tables, with the layout kept beside it."""

    def __init__(self, layout: CityLayout):
        super().__init__(layout.buildings, layout.trees, layout.lights, layout.side)
        self.layout = layout

    # -- batched crossing analysis -------------------------------------

    def _critical_points(
        self, abs_xy, gu_xy: np.ndarray, h_gu: float
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Critical point of every crossed (link, obstacle) pair.

        The one derivation of u_crit (the fraction along the link needing
        the highest ABS altitude to clear the obstacle), the profile height
        there and the critical altitude; every view below reads it. For L
        links to users at gu_xy (L, 2), all at height h_gu, from one shared
        ABS position abs_xy = (x, y) or from one per link, abs_xy = (xs, ys)
        with xs and ys (L,) arrays, returns one family per entry in FAMILIES
        order, each as flat parallel arrays (link row, obstacle index,
        u_crit, profile, alt) over the crossed pairs only, row-major. A
        shared position stays a scalar and takes its candidates by bearing;
        one per link is gathered per pair and walks the cell table.
        """
        ax, ay = abs_xy
        dx, dy = gu_xy[:, 0] - ax, gu_xy[:, 1] - ay
        g2 = dx * dx + dy * dy
        if np.any(g2 <= 0.0):
            raise DegenerateLinkError("a link has zero ground distance")
        shared = not isinstance(ax, np.ndarray)
        link, item = (self.fan_pairs if shared else self.segment_pairs)(ax, ay, gu_xy[:, 0], gu_xy[:, 1])
        nb, nt = self.bx0.size, len(self.trees)

        def at(r):  # the ABS position of the pairs in link rows r
            return (ax, ay) if shared else (ax[r], ay[r])

        def chords(pick, first, clip, *obstacle):
            # the crossed pairs among the picked ones, with obstacles numbered from first
            r, c = link[pick], item[pick] - first
            crossed, u_in, u_out = clip(*at(r), dx[r], dy[r], g2[r], *(a[c] for a in obstacle))
            return r[crossed], c[crossed], u_in[crossed], u_out[crossed]

        def constant_height(heights, row, col, u_in, u_out):
            # the required altitude rises along the chord when h >= h_gu and
            # falls otherwise, so the stricter end is the exit or the entry
            h = heights[col]
            u = np.where(h >= h_gu, u_out, u_in)
            return row, col, u, h, _required_altitude(h, h_gu, u)

        crossed_rects = chords(item < nb, 0, _rect_chords, self.bx0, self.by0, self.bx1, self.by1)
        buildings = constant_height(self.buildings.h, *crossed_rects)
        row, col, lo, hi = chords(item >= nb, nb, _disc_chords, self.cx, self.cy, self.cr)
        light = col >= nt
        lights = constant_height(self.lights.h, row[light], col[light] - nt, lo[light], hi[light])
        row, col, lo, hi = row[~light], col[~light], lo[~light], hi[~light]
        if not row.size:  # most single links cross no tree
            return buildings, (row, col, lo, lo, lo), lights
        tx, ty = at(row[:, None])
        trees = (row, col) + _tree_critical(
            tx - self.cx[col, None], ty - self.cy[col, None], dx[row, None], dy[row, None], g2[row, None],
            self.cr[col, None], self.trees.h[col, None], lo[:, None], hi[:, None], h_gu,
        )
        return buildings, trees, lights

    def batch_critical_altitudes(
        self, abs_xy: tuple[float, float], gu_xy: np.ndarray, h_gu: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-link critical altitudes for L users sharing one ABS position.

        Returns (alt_building, alt_light, tree_link, tree_idx, tree_alt):
        the first two are the (L,) link_maxima of the building and light
        pairs (-inf when nothing is crossed); the tree entries are the flat
        (link row, tree index, critical altitude) pairs themselves, so
        callers can take prefix subsets of the tree population.
        """
        buildings, trees, lights = self._critical_points(abs_xy, gu_xy, h_gu)
        alt_b, alt_s = (link_maxima(len(gu_xy), row, alt) for row, *_, alt in (buildings, lights))
        tree_link, tree_idx, _, _, tree_alt = trees
        return alt_b, alt_s, tree_link, tree_idx, tree_alt

    # -- single-link views ----------------------------------------------

    def critical_altitudes(self, link: Link) -> tuple[float, float, float]:
        """(building, tree, streetlight) critical altitudes for one link,
        whose ABS goes in as a per-link position: the grid walk reads a few
        cells, where the bearing broad phase would read every footprint."""
        families = self._critical_points(np.array([link.abs_xy]).T, np.array([link.gu_xy]), link.h_gu)
        return tuple(float(np.max(alt, initial=-np.inf)) for *_, alt in families)

    def crossings_of(self, links: list[Link]) -> list[list[ObstructionHit]]:
        """The crossings of each link, from one pass over all of them. The
        links may start at different ABS positions but share one h_gu."""
        if not links:
            return []
        h_gu = links[0].h_gu
        if any(link.h_gu != h_gu for link in links):
            raise ParameterError(f"crossings_of needs links of one h_gu, got {sorted({link.h_gu for link in links})}")
        abs_xy = np.array([link.abs_xy for link in links]).T
        families = self._critical_points(abs_xy, np.array([link.gu_xy for link in links]), h_gu)
        hits: list[list[ObstructionHit]] = [[] for _ in links]
        for (kind, _), pairs in zip(FAMILIES, families):
            for row, i, u, prof, alt in zip(*(a.tolist() for a in pairs)):
                link = links[row]
                g = link.ground_distance
                r_i = u * g
                hits[row].append(
                    ObstructionHit(
                        kind=kind,
                        index=i,
                        r_i=r_i,
                        obstacle_height=prof,
                        blockage_height=blockage_height(link.h_abs, link.h_gu, r_i, g),
                        blocks=link.h_abs <= alt,
                    )
                )
        for link_hits in hits:
            link_hits.sort(key=lambda hit: hit.r_i)
        return hits

    def crossings(self, link: Link) -> list[ObstructionHit]:
        """All footprints crossed by the link, ordered by ground distance
        from the ABS to each crossing's critical point."""
        return self.crossings_of([link])[0]

    def classify(self, link: Link) -> LinkClass:
        """The FAMILIES precedence over blocking obstacles."""
        return classify_hits(self.crossings(link))


def classify_hits(hits: list[ObstructionHit]) -> LinkClass:
    """Link class of one link's crossings: the first blocking family in
    FAMILIES order, else LoS. A family blocks at h_abs iff h_abs is at
    most its largest critical altitude, that is iff one of its hits
    blocks."""
    blocking = {hit.kind for hit in hits if hit.blocks}
    return next((c for kind, c in FAMILIES if kind in blocking), LinkClass.LOS)
