"""Numerical toolkit for curvature fields of graph surfaces, sphere
inversion transforms, convex support bodies, disk flux quadrature, and
umbilic-point scanning."""

from .curvature import (PlaneField, curvature_difference_field, dk_dtheta,
                        normal_curvature, principal_deviation_field,
                        shape_operator, umbilic_residuals)
from .errors import (ConvexityError, DomainError, GraphConditionError,
                     NonConvergenceError, RegularityError)
from .families import list_families, make_field, parse_field_spec
from .field import Direction, Jet2, ScalarField, decay_profile
from .quad import (QuadScheme, boundary_flux, boundary_majorant,
                   curvature_difference_decay, disk_integral,
                   divergence_consistency, principal_deviation_decay)
from .scan import Grid, contours, grid_field, umbilic_free_floor, umbilic_search
from .transform import (ExteriorGraph, Patch3, ellipsoid_patch, exterior_eval,
                        graph_condition, invert_local_graph, invert_patch,
                        invert_point, parallel_patch, patch_principal,
                        perturbed_sphere_patch, plane_patch,
                        principal_preservation_check, pushforward_inversion,
                        sphere_patch)
from .convexbody import (SupportBody, UmbilicSite, check_convexity, find_umbilic,
                         parallel_body, pose_at_umbilic, radii_of_curvature,
                         theorem1_pipeline, umbilic_sites)

__version__ = "0.1.0"
