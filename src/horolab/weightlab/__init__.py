"""Exact weight combinatorics for modules over sl(n+1)."""

from .cartan import h_block, h_principal, sl2_coroot
from .groups import (
    a_x,
    corner_log_lower,
    lower_ones,
    sigma,
    sigma_kappa,
    u_elem,
    u_top,
    upper_ones,
    w_limit,
)
from .identities import identity_suite
from .lemmas import (
    estimate_D1,
    fixed_check,
    s_sets,
    sl2_maxweight_check,
)
from .modules import (
    ModuleVector,
    WeightModule,
    basis_vector,
    build_module,
    vector,
)

__all__ = [
    "WeightModule",
    "ModuleVector",
    "a_x",
    "basis_vector",
    "build_module",
    "corner_log_lower",
    "estimate_D1",
    "fixed_check",
    "h_block",
    "h_principal",
    "identity_suite",
    "lower_ones",
    "s_sets",
    "sigma",
    "sigma_kappa",
    "sl2_coroot",
    "sl2_maxweight_check",
    "u_elem",
    "u_top",
    "upper_ones",
    "vector",
    "w_limit",
]
