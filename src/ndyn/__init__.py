"""Dynamics of Newton-like root finders in palindromic normal form.

The pipeline: build a method's fixed-point operator for z**2 - c, conjugate
it to the normal form sign * z**n * P(z) / reversed(P)(z), then study that
one object: fixed and critical points, parameter stability regions for the
strange fixed points at +-1, and dynamical or parameter plane renders.
"""

from .analysis import (CriticalPointRecord, FixedPointRecord,
                       classify_multiplier, classify_operator,
                       critical_points, fixed_points, free_critical_points,
                       moebius_sum, multiplier_at, multiplier_at_minus_one_closed,
                       multiplier_at_one_closed, multiplier_of_cycle)
from .builder import (CatalogEntry, SchemeContext, catalog_entry,
                      catalog_names, check_scheme_lambda_odd, conjugated_form,
                      instantiate, parse_scheme)
from .conjugate import (Mobius, OperatorForm, check_iota_symmetry,
                        extract_normal_form, make_form, mobius_conjugate,
                        standard_tau)
from .errors import (DegenerateFamily, NdynError, NonRealCoefficients,
                     NonlinearDependence, NotACycle, NotAFixedPoint,
                     NotPalindromic, PoleAtMinusOne, PoleAtOne,
                     SchemeSyntaxError, UnknownMethod)
from .planes import (PlaneImage, RenderConfig, colorize, dynamical_plane,
                     orbit_outcome, parameter_plane, resolve_workers,
                     write_image, write_metadata)
from .poly import INF, Polynomial, RationalMap, is_inf, poly_roots, rat_eval
from .stability import (LinearCoeffs, StabilityRegion, classify_strange_at,
                        linearize, stability_region_z1, stability_region_zm1)

__version__ = "0.1.0"

import types as _types

__all__ = [name for name, obj in list(globals().items())
           if not name.startswith("_")
           and not isinstance(obj, _types.ModuleType)]
