"""baxcheck: exact verification of baxterised R-matrices and the braid-like
algebras behind them.

The package machine-checks, in exact arithmetic, that matrix representations
satisfy the defining relations of five braid-quotient algebras, that the
baxterised R-matrices built from three spectral-function families satisfy the
braided Yang-Baxter equation (symbolically and by randomized evaluation),
the supporting operator identities, and the commutation of transfer matrices.
"""

from .exactnum import (
    ClearedMatrix,
    FieldMatrix,
    MultiPoly,
    PoleError,
    RatFunc,
    SingularMatrixError,
    canonical_vars,
    format_scalar,
    parse_scalar,
    poly_gcd,
)
from .ncalg import NCPoly, RelationSet, flip, nc_commutator, prop1_certificate, relations_for
from .report import VerifyReport
from .reps import (
    Rep,
    ScalarRepClass,
    builtin_rep,
    check_relations,
    classify_scalar,
    correspondence_check,
    flip_rep,
    verify_scalar,
)
from .baxter import (
    H_closed,
    H_series,
    build_R,
    check_regularity,
    check_unitarity,
    h_fun,
    series_agreement_order,
    spectral_fn,
)
from .verify import lemma_suite_A, lemma_suite_B, transfer_commute, ybe_random, ybe_symbolic

__version__ = "0.1.0"

__all__ = [
    "ClearedMatrix",
    "FieldMatrix",
    "H_closed",
    "H_series",
    "MultiPoly",
    "NCPoly",
    "PoleError",
    "RatFunc",
    "RelationSet",
    "Rep",
    "ScalarRepClass",
    "SingularMatrixError",
    "VerifyReport",
    "build_R",
    "builtin_rep",
    "canonical_vars",
    "check_regularity",
    "check_relations",
    "check_unitarity",
    "classify_scalar",
    "correspondence_check",
    "flip",
    "flip_rep",
    "format_scalar",
    "h_fun",
    "lemma_suite_A",
    "lemma_suite_B",
    "nc_commutator",
    "parse_scalar",
    "poly_gcd",
    "prop1_certificate",
    "relations_for",
    "series_agreement_order",
    "spectral_fn",
    "transfer_commute",
    "verify_scalar",
    "ybe_random",
    "ybe_symbolic",
]
