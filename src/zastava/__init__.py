"""Exact arithmetic toolkit for trigonometric zastava points: Hankel and
wedge minors, Poisson bracket checks, cluster seeds, and the superpotential."""

# the largest modules first: compiled from source before the other modules'
# code objects sit on the heap, they raise the import's peak memory least
from .multirat import MultiPoly, MultiRat, Ring
from .poisson import (
    BracketTable,
    jacobi_check,
    jacobi_report,
    symplectic_check_trig,
    verify_descent,
)
from .cluster import (
    ExchangeMatrix,
    Seed,
    initial_seed_sl2,
    log_canonicity_check,
    mutate,
)
from .linalg import (
    ExactMatrix,
    det,
    hankel_matrix,
    hankel_minor_C,
    hankel_minor_D,
    solve_linear,
    subresultant_even,
    subresultant_odd,
    sylvester_matrix,
)
from .minors import (
    WedgeWindow,
    crosscheck_three_routes,
    generalized_minor_v0,
    generalized_minor_v1,
    wedge_entry,
)
from .points import (
    GMatrix,
    Tier,
    ZastavaPoint,
    bezout_complete,
    boundary_equation_sl2,
    eta_shift,
    factorization_divisor,
    from_coords,
    g_matrix,
    recover_coords,
)
from .rootdata import RootDatum, datum
from .series import InfSeries, series_coefficients, series_expand
from .superpotential import SuperData, SuperValue, eval_gw, positivity_sample, verify_gw_w
from .unipoly import UniPoly, lagrange_interpolate, poly_divmod, poly_gcd, rational_roots

__version__ = "0.1.0"
