"""Comparison maps between algebraic de Rham forms and singular cochains,
verified in exact rational arithmetic and certified quadrature."""

from .comparison import (
    ParamSimplex,
    SingularFamily,
    chain_map_residual,
    multiplicativity_check,
    naturality_residual,
    period,
    period_cochain,
    pullback_form,
)
from .derham import (
    AlgebraicForm,
    FpAlgebra,
    parse_algebraic_form,
    reduce_form,
    truncated_cohomology,
)
from .errors import RhamcheckError
from .formtext import parse_polynomial
from .linalg import CohomologyPair, kernel_image
from .poly import Polynomial, groebner_basis, normal_form
from .ratfunc import RationalFunc
from .scenarios import Scenario, builtin_names, builtin_text, load_builtin
from .simplex_forms import (
    FormsFamily,
    PolyForm,
    cone_homotopy,
    extend_from_boundary,
    integrate_exact,
    integrate_numeric,
    parse_poly_form,
    pullback_delta,
    to_cochain,
)
from .simplicial import (
    Chain,
    Cochain,
    DeltaMorphism,
    FiniteSimplicialSet,
    aw_cup,
    boundary,
    boundary_complex,
    coboundary,
    is_cycle,
    pair,
    simplicial_cohomology,
    standard_simplex,
)

__version__ = "0.1.0"
