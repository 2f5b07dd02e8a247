#!/usr/bin/env python3
"""Print one sha256 over the critical-altitude kernel's outputs.

A fixed recipe, wider than tests/test_golden.py: the urban, dense_urban
and high_rise presets, master seeds 1-4, 1500 users per city, and ground
user heights 0, 1.5, 3.0 and 4.5 m. For each (environment, seed) one city
and one ABS ground position are drawn; for each h_gu the digest takes the
five batch_critical_altitudes arrays over all users, then the crossings,
class and critical altitudes of the links from the ABS at 20 m to the
first 300 users. A refactor of geometry.py that keeps this digest keeps
every float the kernel returns. It exits 1 when the digest differs from
PINNED. Standard error gets the seconds spent in the batch calls and in
the single-link calls (crossings, classify, critical_altitudes).

Usage: PYTHONPATH=src python scripts/kernel_digest.py
"""

import hashlib
import sys
import time

import numpy as np

from urbanlos.citygen import PRESETS, STREAM_ABS, GenConfig, city_rng, generate_city, sample_open_point
from urbanlos.geometry import LayoutGeometry, Link

ENVIRONMENTS = ("urban", "dense_urban", "high_rise")
SEEDS = (1, 2, 3, 4)
H_GU = (0.0, 1.5, 3.0, 4.5)
N_USERS = 1500
N_LINKS = 300
H_ABS = 20.0
PINNED = "53928153e69c51a69ce8bf9c0fbfb582069050be7b911f92a3ef283bfa176275"


def main() -> int:
    digest = hashlib.sha256()
    tree_pairs = 0
    batch_s = single_s = 0.0
    for env in ENVIRONMENTS:
        for seed in SEEDS:
            layout = generate_city(PRESETS[env], GenConfig(n_gu=N_USERS, seed=seed))
            geom = LayoutGeometry(layout)
            ax, ay = sample_open_point(geom.index, city_rng(seed, 0, STREAM_ABS))
            gu = np.column_stack((layout.users.x, layout.users.y))
            for h_gu in H_GU:
                start = time.perf_counter()
                arrays = geom.batch_critical_altitudes((ax, ay), gu, h_gu)
                batch_s += time.perf_counter() - start
                tree_pairs += arrays[2].size
                for arr in arrays:
                    digest.update(arr.tobytes())
                for x, y in gu[:N_LINKS].tolist():
                    link = Link((ax, ay), H_ABS, (x, y), h_gu)
                    start = time.perf_counter()
                    hits = geom.crossings(link)
                    views = (geom.classify(link).value, geom.critical_altitudes(link))
                    single_s += time.perf_counter() - start
                    for h in hits:
                        fields = (h.kind, h.index, h.r_i, h.obstacle_height, h.blockage_height, h.blocks)
                        digest.update(repr(fields).encode())
                    digest.update(repr(views).encode())
    print(f"{digest.hexdigest()}  ({tree_pairs} crossed (link, tree) pairs)")
    print(f"batch calls {batch_s:.3f} s, single-link calls {single_s:.3f} s", file=sys.stderr)
    if digest.hexdigest() != PINNED:
        print(f"differs from the pinned {PINNED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
