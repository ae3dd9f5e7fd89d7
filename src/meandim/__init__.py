"""Pressure counting and metric mean dimension estimation, desk scale.

Library layout:

* ``system_zoo``   -- computable systems, metrics, potentials
* ``orbit_engine`` -- orbit tables, Bowen distances, Birkhoff sums
* ``pressure``     -- separated/spanning weighted counts + sandwich checks
* ``mmdim``        -- growth rates, dimension proxies, property suites
* ``variational``  -- dictionaries, measure functional, max-min, roots
* ``oracle``       -- exhaustive reference computations for tiny instances
* ``cli``          -- estimate | verify | variational | bowen
"""

from .mmdim import MmdimEstimate, estimate_mmdim
from .orbit_engine import OrbitTable, build_table
from .pressure import PressureValue, check_sandwich, greedy_separated, spanning_from_separated
from .system_zoo import (
    Potential,
    System,
    constant_potential,
    make_finite_system,
    make_full_shift,
    make_grid_shift,
)
from .variational import (
    DictMember,
    Dictionary,
    FinMeasure,
    bowen_root,
    bowen_root_consistency,
    equilibrium_candidates,
    make_dict_member,
    maxmin_variational,
    measure_dimension,
    tangent_check,
)

__all__ = [
    "MmdimEstimate",
    "OrbitTable",
    "Potential",
    "PressureValue",
    "System",
    "DictMember",
    "Dictionary",
    "FinMeasure",
    "bowen_root",
    "bowen_root_consistency",
    "build_table",
    "check_sandwich",
    "constant_potential",
    "equilibrium_candidates",
    "estimate_mmdim",
    "greedy_separated",
    "make_dict_member",
    "make_finite_system",
    "make_full_shift",
    "make_grid_shift",
    "maxmin_variational",
    "measure_dimension",
    "spanning_from_separated",
    "tangent_check",
]

__version__ = "0.1.0"
