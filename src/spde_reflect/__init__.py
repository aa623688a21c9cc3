"""Spectral-Galerkin laboratory for reflection couplings of monotone SPDEs."""

from .spaces import (
    SpectralSpace, make_space, h_norm, h_inner, q_norm, v_norm,
    to_grid, from_grid, grad_to_grid, quad, h_mode_coeffs,
)
from .models import (
    Porous, PLaplace, FastDiff, ZeroDiffusion, LipschitzDiagonal,
    ModelSpec, DriftOverflowError, drift, pairing_drift_diff,
    apply_B, b_hs_diff, unit_base, signed_power,
)
from .coupling import (
    CouplingParams, cutoff_h, cutoff_h_prime, sqrt1mh2, sqrt1mh2_prime,
    cutoff_h_prime_sup, sigma_n_apply, reflect_apply,
    coupled_diffusion_increments, i_n_value, reflection_qv_rate,
    qv_rate_lower_bound,
)
from .integrator import (
    SimConfig, CouplingState, PathEnsembleRecord, StepOverflow,
    gen_noise, philox_generator, step_single, step_coupled,
    make_coupling_state, run_paths, BLOCK_ROWS,
)
from .inequalities import (
    ConditionReport, SpectrumParams, check_A1prime, check_A1doubleprime,
    check_interpolation_Q, check_spectrum_condition, check_scalar_mean_value,
    nash_exponent_gate, fit_coercivity, kappa_porous_example,
    kappa_plaplace_example, kappa_fastdiff_interval,
)
from .experiments import (
    GSpec, survival_curve, check_lemma31,
    supermartingale_diagnostic, coupling_tail_bound, contraction_fit,
    holder_ratio_scan, ou_oracle, canonical_f, semigroup_difference,
    prop21_chain, marginal_ou_check, d3_rate_bound,
)

__version__ = "0.1.0"
