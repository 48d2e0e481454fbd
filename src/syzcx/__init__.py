"""Growth classes of syzygy dimension sequences over monomial path algebras.

The pipeline: parse and validate an algebra (`algebra`), build the syzygy
quiver of a module by the cyclic-key calculus (`syzygy`), condense it into
strongly connected components with exact Perron roots (`spectra`), and read
off the poly-exponential growth class (`complexity`). `curvature` decides
which bases are realizable and constructs witnesses; `oracle` is the
brute-force linear-algebra ground truth; `cli` is the command-line surface.
`graph` holds the component and reachability traversals they share.
"""

from .algebra import (
    Arrow,
    MonomialAlgebra,
    MonomialAlgebraSpec,
    Path,
    PathZero,
    Quiver,
    load_algebra,
    parse_algebra,
    parse_algebra_file,
    validate_algebra,
)
from .complexity import (
    ComplexityClass,
    ModuleComplexityReport,
    compare,
    convolve,
    empirical_class_check,
    join,
    lower_bound_from_partial,
    lower_bound_report,
    module_complexity,
    module_complexity_by_name,
    polyexp_class,
    realize_class,
    subdivide,
    vertex_complexity,
    zero_class,
)
from .curvature import (
    CurvatureVerdict,
    check_condition_c,
    closure_combine,
    companion_polynomial,
    factor_monic_squarefree,
    product_polynomial,
    realize_companion,
    sum_polynomial,
)
from .errors import (
    AlgebraSyntaxError,
    DimensionCapExceededError,
    FiniteProjectiveDimensionError,
    InfiniteDimensionalError,
    InternalInconsistencyError,
    InvalidPartialError,
    MathPreconditionError,
    NoArrowsError,
    NonMonicInputError,
    NotMonicError,
    NotStronglyConnectedError,
    PrimeDisagreementError,
    RelationTooShortError,
    SyzcxError,
    TrailingZeroError,
    ValidationError,
    WindowTooSmallError,
    ZeroConstantTermError,
    ZeroPathError,
    ZeroPolynomialError,
)
from .oracle import (
    AlgebraTable,
    CrosscheckReport,
    TableRepresentation,
    builtin_table,
    crosscheck,
    dim_sequence,
    rep_of,
    syzygy_rep,
    table_rep,
    xyz_local_expected_dims,
    xyz_local_table,
)
from .polynomials import (
    AlgebraicReal,
    IntPolynomial,
    algebraic_real,
    count_real_roots_open,
    isolate_largest_real_root,
    largest_real_root,
    poly,
    poly_gcd_q,
    rational_algebraic,
    resultant_y,
    squarefree_part,
)
from .spectra import (
    SCC,
    Condensation,
    adjacency_matrix,
    algebraic_power,
    char_poly,
    compare_algebraic,
    equal_radius,
    perron_root,
    scc_condense,
)
from .syzygy import (
    CyclicKey,
    ModuleExpr,
    SyzygyQuiver,
    build_syzygy_quiver,
    count_paths,
    cyclic_key,
    key_basis,
    key_dimension,
    minimal_killers,
    module_expr,
    path_key,
    projective_key,
    quiver_dim_sequence,
    resolve_module,
    simple_key,
    singleton,
    sinkfree_reduce,
    syzygy_key,
    syzygy_quiver_from_json,
    syzygy_step,
    validate_partial,
)

__version__ = "0.1.0"
