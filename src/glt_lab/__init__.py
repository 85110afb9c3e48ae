"""glt_lab: a numerical laboratory for spectral distributions of structured
matrix sequences.

The package builds Toeplitz, circulant, diagonal-sampling and locally
Toeplitz/circulant matrix sequences, measures their singular value and
eigenvalue distributions against symbols, computes the approximating-classes
pseudometric, and realizes normal forms, sorting permutations and SVD
embeddings with explicit, testable bounds.
"""

from .acs import AcsEstimate, SplitResult, acs_distance, acs_equivalent, optimal_split, p_metric
from .errors import (
    ConfigError,
    DomainError,
    EvalError,
    ExprSyntaxError,
    GltLabError,
    HermitianError,
    NumericalError,
    UnknownNameError,
    VariableError,
)
from .matrices import (
    BlockLayout,
    MatrixSeq,
    block_layout,
    circulant_seq,
    circulant_spectrum,
    counterexample_seq,
    d_af,
    diag_seq,
    fourier_matrix,
    glt_product_seq,
    identity_seq,
    lc_seq,
    lt_seq,
    q_block,
    toeplitz_seq,
    zero_seq,
)
from .normal_form import (
    EmbeddingPair,
    NormalForm,
    affine_shift_test,
    group_embed,
    hermitian_function,
    normal_form,
    normal_form_seq,
    sort_perm,
    verify_normal_form,
)
from .spectra import (
    ResidualTable,
    TestFamily,
    convergence_tolerance,
    default_family,
    eig_symbol_residual,
    eigenvalues,
    singular_values,
    sv_symbol_residual,
    zero_distributed_test,
)
from .symbols import (
    FuncExpr,
    GltExpr,
    SymbolGrid,
    TrigPoly,
    monotone_rearrangement,
    parse_expr,
    rearrangement_distance,
    sample_symbol,
    symbols_equal_in_distribution,
    trig_poly_from_expr,
)

__version__ = "0.1.0"
