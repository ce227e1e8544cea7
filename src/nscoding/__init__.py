"""Exact tools for coding over channels with causal state information.

The package splits into exact-arithmetic machinery (channels, linear
programs, scheme tensors, the classical encoder search — everything
Fraction-based) and float machinery (capacity computations), plus a CLI
(`nscoding`) that wires them into reproducible reports.
"""

from .channels import (
    BlockStateSource,
    ChannelWithState,
    builtin_channel,
    builtin_product_xs,
    builtin_z0z1,
    lift_csir,
    load_channel_file,
    make_channel,
    save_channel_file,
)
from .capacity import (
    blahut_arimoto,
    capacity_table,
    conditional_mi,
    gp_noncausal_capacity,
    ns_capacity,
)
from .type_mapping import Budgets, budgets, flag_predicate, map_sequence, placeholder
from .typicality import jointly_typical, strongly_typical
from .simplex import LinearProgram, SimplexSolution, solve_exact
from .ns_lp import (
    build_lp1,
    build_lp2,
    build_lp4_z0z1,
    certificate_point_z0z1,
    verify_certificate,
)
from .auth_scheme import (
    AuthScheme,
    SchemeTensor,
    build_auth_scheme,
    compute_mu,
    materialize_tensor,
    success_probability,
    tensor_success,
    toy_product_scheme,
    verify_conditions,
)
from .classical import (
    DeterministicEncoder,
    classical_opt_success,
    code_tensor,
    explicit_z0z1_strategy,
)

__version__ = "0.1.0"

__all__ = [
    "BlockStateSource",
    "ChannelWithState",
    "builtin_channel",
    "builtin_product_xs",
    "builtin_z0z1",
    "lift_csir",
    "load_channel_file",
    "make_channel",
    "save_channel_file",
    "blahut_arimoto",
    "capacity_table",
    "conditional_mi",
    "gp_noncausal_capacity",
    "ns_capacity",
    "Budgets",
    "budgets",
    "flag_predicate",
    "map_sequence",
    "placeholder",
    "jointly_typical",
    "strongly_typical",
    "LinearProgram",
    "SimplexSolution",
    "solve_exact",
    "build_lp1",
    "build_lp2",
    "build_lp4_z0z1",
    "certificate_point_z0z1",
    "verify_certificate",
    "AuthScheme",
    "SchemeTensor",
    "build_auth_scheme",
    "compute_mu",
    "materialize_tensor",
    "success_probability",
    "tensor_success",
    "toy_product_scheme",
    "verify_conditions",
    "DeterministicEncoder",
    "classical_opt_success",
    "code_tensor",
    "explicit_z0z1_strategy",
    "__version__",
]
