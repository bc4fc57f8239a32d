"""Nonoscillatory phase functions for y'' + lambda^2 q(t) y = 0.

The solver constructs a slowly varying phase alpha(t) such that
cos(alpha)/sqrt(alpha') and sin(alpha)/sqrt(alpha') span the solution
space, by solving a band-limited nonlinear integral equation in the
frequency domain with a fixed-point iteration."""

from .chebseries import ChebSeries
from .convexp import exp2_star
from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     FitError, GridMismatchError, MagnitudeError,
                     NophaseError, NumericalError, SymmetryError)
from .grid import (RealSample, SpectralGrid, SpectralSample, convolve,
                   forward, inverse, l1_norm, linf_norm)
from .oracle import basis_error, ode_oracle
from .phase import (PhaseFunction, band_limited_evaluator,
                    basis_derivatives, build_phase, eval_basis,
                    kummer_residual)
from .problem import (Coefficient, CoefficientProblem, build_problem,
                      check_hypotheses, load_problem_file)
from .solver import (BoundsReport, SolveResult, fixed_point_solve,
                     make_bump, solve_problem)
from .sweep import run_sweep

__version__ = "0.1.0"
