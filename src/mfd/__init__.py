"""Distortion calculus for finite-index inclusions of multifactor von
Neumann algebras: Perron data, Markov traces, distortion extension and
classification, tower dynamics, downward constructions, Morita
rescaling, and an exact loop model for finite-dimensional inclusions.
Perron data are solved in plain Python; only the loop model uses numpy,
which it imports when first called, so importing the package does not load it.
"""

from .core import (BipartiteGraph, InclusionData, PerronData, dual_functor_hom,
                   perron_data, standard_distortion, validate_inclusion)
from .distortion import (DistortionMatrix, ExtremalityReport, GroupoidHom,
                         as_distortion, check_cycle_condition,
                         check_extremality, extend_to_complete,
                         extend_to_groupoid, factorize)
from .errors import (ColumnNormalizationViolation, CycleViolation,
                     DisconnectedSupport, InconsistentDimensions,
                     InconsistentTraces, MFDError, MissingDistortionEntry,
                     MissingEntry, NegativeEntry, NonConvergence,
                     NonPositiveDistortion, NotCentral, ParseError,
                     SupportMismatch, ZeroPi)
from .loopbasis import (BlockBasis, CommutingSquareData, DensitySequence,
                        LoopAlgebraPair, MatrixAlgebraPresentation,
                        basic_construction_square, build_loop_algebra,
                        central_transfer, density_sequence, matrix_algebra,
                        nondegeneracy_check, pimsner_popa_basis,
                        relative_commutant, transfer_matrix, verify_pp_identity)
from .markov import (ExpectationCoefficients, ExtremalInclusionReport,
                     FiniteDimMarkov, TraceMatrices, TracePair,
                     basic_construction_trace, check_extremal_inclusion,
                     check_super_extremal_findim, distortion_from_trace,
                     distortion_from_trace_matrix, expectation_coefficients,
                     finite_dim_markov, markov_trace, trace_matrices)
from .morita import (MoritaWeights, RealizabilityResult, morita_distortion,
                     realizability_check, rescale_to_standard)
from .numbers import (DEFAULT_TOLERANCE, close, close_all, div, format_scalar,
                      is_exact, parse_scalar, to_float)
from .tower import (FeasibilityResult, HomogeneityReport, TowerLevel, TowerTrace,
                    basic_construction_distortion, downward_distortion,
                    downward_feasibility, homogeneity_report,
                    iterate_to_fixed_point, phi_step, relative_residual,
                    tower_limit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
