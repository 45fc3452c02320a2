"""Direct and inverse spectral transforms for decaying peakon data, and the
isospectral evolution they linearize.

The pipeline: encode a peakon/measure pair in string coordinates, read off
its spectrum and coupling data through transfer-matrix products, evolve the
logarithmic couplings linearly in time, and reconstruct the evolved pair by
continued-fraction layer stripping with a mandatory round-trip certificate.
"""

from .direct import (DefinitenessReport, RationalHerglotz, SpectralData,
                     classify_definiteness, herglotz_probe,
                     norming_by_quadrature, parseval_check, spectral_data,
                     spectral_from_coords, spectrum, trace_formulas,
                     weyl_function, wronskian_poly)
from .errors import (ChflowError, DegreeStall, DuplicateEigenvalue,
                     LocationMismatch, NegativeMass, NonpositiveLength,
                     NonpositiveProduct, NotAnEigenvalue, PairFormatError,
                     PoleHit, RootCountMismatch, RoundTripFailure,
                     SingularInterpolation, SupportNotCovered,
                     WeightNonpositive)
from .flow import (BumpTestFunction, ConservedReport, QuadratureSpec,
                   Trajectory, atoms_sidecar, conserved_report,
                   continuity_metric, eval_pressure, evolve_spectral,
                   flow_map, make_trajectory, snapshot, snapshots_csv,
                   truncate_spectral, weak_residual)
from .inverse import (IsospectralCoordinates, Reconstruction,
                      herglotz_from_coords, inverse_transform, layer_strip,
                      reconstruct, reconstruct_plus_side, wdot_from_sigma)
from .pairs import (MeasureSpec, NonEventWarning, PeakonPair, StringData,
                    eval_u, exp_coefficients, from_string, mu_interval,
                    pair_from_json, pair_to_json, project_to_peakons, reflect,
                    to_string)
from .poly import DEFAULT_PREC, Poly, PolyMatrix
from .stringsys import (SolutionVector, asymptotic_coefficients_right,
                        cumulative_transfer, decaying_solution_left,
                        eval_transfer, interval_transfer, mass_transfer,
                        solve_ivp, wronskian_pair)

__version__ = "0.1.0"
