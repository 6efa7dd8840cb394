"""Tempered convolution norms on desk-scale group models.

The package builds concrete measured models of locally compact groups
(finite Cayley arithmetic, truncated lattices, quadrature grids including
the non-unimodular ax+b group), computes certified bounds for the p -> p
operator norm of right convolution, realizes the transform-side identities
on finite abelian models, and packages the whole statement inventory as a
deterministic batch verification suite with a CLI front end.
"""

__version__ = "0.1.0"

from .errors import (DomainError, LtpError, ModelMismatchError, NotAbelianError,
                     NotPositiveError, ResourceError, SpecParseError, WindowLeakError,
                     WindowTooSmall)
from .groups import (GroupModel, GroupSpec, OUT_OF_WINDOW, build_group,
                     parse_group_spec, validate_group)
from .space import (Exponent, GFunction, box_function, decompose_l1_linf,
                    dirac, dirac_measure, ess_sup, estimate_modular,
                    gauss_function, imag_part, inner, lp_norm,
                    modular_reflect, negative_part, positive_part,
                    random_function, real_part, reflect, translate,
                    LEFT_DIRAC, RIGHT_DIRAC)
from .convolve import ConvOperator, convolve
from .tempered import (IterConfig, NormEstimate, tempered_norm, tempered_norms,
                       tempered_upper, upper_bound_weighted_l1)
from .spectral import DualModel, build_dual, fourier, inverse_fourier
from .folner import FolnerCertificate, averaging_inequality_check, find_folner
from .report import CheckResult, SuiteReport, emit_report
from .suite import REGISTRY, coverage_gaps, registry_self_test, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
