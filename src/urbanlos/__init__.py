"""Monte-Carlo simulator for air-to-ground line-of-sight probability and
path loss over randomized Manhattan-style cities."""

from .citygen import (
    PRESETS,
    BuiltUpParams,
    Building,
    CityLayout,
    GenConfig,
    GroundUser,
    Streetlight,
    Tree,
    derive_building_dims,
    generate_city,
    sample_height,
)
from .errors import (
    AggregationError,
    DegenerateLinkError,
    InfeasibleLayoutError,
    MissingInputError,
    ParameterError,
    UrbanLosError,
)
from .geometry import (
    LayoutGeometry,
    Link,
    LinkClass,
    ObstructionHit,
    blockage_height,
    tree_height_at,
)
from .montecarlo import (
    BUILDINGS_ONLY,
    FULL,
    WITH_TREES,
    ClassCounts,
    Scenario,
    SweepConfig,
    run_scenarios,
    streetlight_delta,
    tree_density_sweep,
)
from .oracle import classify_link_bruteforce, obstacle_families, random_links
from .pathloss import (
    FitResult,
    VegetationParams,
    VegGeometry,
    composite_bins,
    composite_pl,
    fit_ab,
    fresnel_radius,
    fspl,
    median_extra_loss,
    min_illumination_area,
    pl_nlos_building,
    pl_nlos_tree,
    pl_vs_theta,
    veg_attenuation,
)

__version__ = "0.1.0"
