"""Stability analysis toolkit for fully discrete hyperbolic IBVPs.

Subpackages:

- ``core``       scheme data model, grid sequences, stencil taps, branch continuation
- ``symbol``     Fourier symbol, von Neumann analysis, eigenvalue branches
- ``resolvent``  spatial companion matrix, Kreiss-Lopatinskii determinant
- ``sbp``        discrete summation-by-parts and energy decompositions
- ``sim``        half-line / whole-line solvers and stability estimates
- ``wavepacket`` wave packet construction and trace experiments
- ``cli``        command line front end
"""

from . import core, resolvent, sbp, sim, symbol, wavepacket
from .core import (
    DifferenceOp,
    GridSequence,
    SchemeDef,
    apply_op,
    discrete_derivative,
    lax_friedrichs,
    lax_wendroff,
    leap_frog,
    load_scheme,
    save_scheme,
    three_point,
    upwind,
    validate_scheme,
)
from .resolvent import (
    EigenvalueBranch,
    arg_total_variation,
    assemble_M,
    classify_boundary_blocks,
    kl_boundary_matrix,
    kl_determinant,
    spectral_split,
    uklc_scan,
)
from .sbp import (
    boundary_energy_rate,
    cauchy_criterion_3pt,
    consistent_decomposition,
    energy_balance_step,
    energy_decomposition,
    ibp_hermitian,
    ibp_skew,
)
from .sim import (
    accumulate_norms,
    run_cauchy,
    run_ibvp,
    split_solution,
    verify_semigroup,
    verify_strong_stability,
    verify_thm1,
)
from .symbol import (
    amplification_matrix,
    find_glancing,
    group_velocity,
    track_branches,
    von_neumann_check,
)
from .wavepacket import (
    approx_solution,
    glancing_trace_experiment,
    make_envelope,
    make_packet,
    packet_error,
    packet_initial_data,
)

__version__ = "0.1.0"
