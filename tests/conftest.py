"""Shared fixtures: small layouts and geometry wrappers reused across tests.

Hypothesis runs under one derandomized profile with no example database,
so every run of the suite draws the same examples.
"""

import pytest
from hypothesis import settings

from urbanlos.citygen import PRESETS, GenConfig, generate_city
from urbanlos.geometry import LayoutGeometry

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def urban_layout():
    return generate_city(PRESETS["urban"], GenConfig(seed=11))


@pytest.fixture(scope="session")
def urban_geometry(urban_layout):
    return LayoutGeometry(urban_layout)


@pytest.fixture(scope="session")
def small_gen():
    return GenConfig(n_trees=40, n_lights=60, n_gu=15, seed=3)
