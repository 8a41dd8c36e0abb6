"""Exact classification of Whitehead-link surgeries and the boundary
combinatorics of k-holed torus bundles: slopes, L-space intervals, boundary
labels, coherent orientations, branched-surface weight systems and train
tracks, all over exact integer arithmetic."""

from .slopes import (
    INF,
    MINUS_ONE,
    ONE,
    ZERO,
    CircularArc,
    ExtRational,
    Region,
    arc_intersect,
    format_multislope,
    parse_multislope,
    parse_slope,
    region_intersect,
    region_union,
)
from .lspace import (
    ALL_BUT_LONGITUDE,
    AllButLongitude,
    IntervalCandidates,
    TorsionProfile,
    compute_d_positive,
    format_profile,
    interval_candidates,
    parse_profile,
    profile_from_alexander,
    propagate_region,
    select_interval,
    two_component_region,
)
from .monodromy import (
    BoundaryLabel,
    Monodromy,
    NType,
    OrientationAssignment,
    coherent_orientations,
    foliation_region,
    intervals,
    is_coherent,
    labels,
    parse_monodromy,
)
from .branched import (
    BranchArc,
    BranchComplex,
    Sector,
    SectorKind,
    WeightSystem,
    build_coherent_arc_complex,
    build_parallel_arc_complex,
    carried_weight_cone,
    check_weights,
    detect_sink_discs,
    fundamental_ray,
    isolated_sectors,
)
from .traintrack import TrackTemplate, Witness, realized_interval, witness
from .whitehead import (
    EulerBoundary,
    InconsistentVerdictError,
    Orderable,
    SurgeryVerdict,
    Ternary,
    WL_MONODROMY,
    classify,
    euler_criterion,
    wl_euler_data,
    wl_euler_vanishes,
    wl_foliation_region,
    wl_lspace_region,
)

__version__ = "0.1.0"
