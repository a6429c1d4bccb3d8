"""Exact contact-topological invariants of lens spaces: Farey geodesics,
tight contact structures, bypass slopes, rational unknot invariants and
mapping class group tables, all in integer arithmetic."""

from types import ModuleType as _ModuleType

from .bypass import TorusState, attach_bypass, basic_slice_walk, tb_from_dividing
from .checks import CheckResult, SweepReport, block_partition, check_sweep, lens_pairs
from .farey import bfs_oracle, farthest_neighbor, geodesic, in_arc, neighbor_family
from .mcg import (
    GroupDescription,
    contact_mcg,
    contact_mcg_rel_torus,
    contact_mcg_s1s2,
    delta_action,
    eta_action,
    inclusion_is_iso,
    inclusion_kernel,
    smooth_mcg,
    unknot_classes,
)
from .slopes import (
    INFINITY,
    ZERO,
    Slope,
    cf_matrix_identity,
    dual_fraction,
    eval_neg_cf,
    farey_mul,
    farey_sum,
    neg_cf,
)
from .surgery import (
    SurgeryChain,
    build_chain,
    det_bareiss,
    linking_det,
    linking_matrix,
    meridian_lk,
    rot_choices,
    rot_q_surgery,
    rot_spectrum,
    solve_exact,
)
from .tight import (
    Decoration,
    ShuffleClass,
    class_from_signs,
    count_tight_lens,
    count_tight_solid,
    decoration,
    enumerate_tight,
    is_universally_tight,
    standard_structures,
)
from .unknots import (
    LegendrianClass,
    MountainRange,
    legendrian_classification,
    mountain_range,
    rot_q_farey,
    sl_q,
    stabilize,
    tb_q_peak,
    transverse_classification,
)

__version__ = "0.1.0"

# Every public name bound above, the submodules aside, in sorted order.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
