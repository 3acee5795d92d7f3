"""tensorgap: exact-arithmetic subrank-gap classification and degeneration certificates."""

from .errors import (
    CertificateConstructionError,
    ClassificationInconsistencyError,
    DegenerateSpanError,
    DimensionMismatchError,
    DocumentFormatError,
    FieldMismatchError,
    SearchBudgetError,
    SearchSpaceTooLargeError,
    SingularCurveError,
    TensorGapError,
    ZeroTensorError,
)
from .fields import GF, QQ, FieldSpec, Scalar, is_prime
from .ratfunc import EpsField, RatFunc
from .linalg import Matrix, mat_det, mat_inverse, mat_rank, mat_solve
from .tensors import (
    Tensor,
    flatten,
    identity_maps,
    compose_maps,
    kronecker,
    lift_tensor,
    pad,
    restrict,
    unit_tensor,
    w_tensor,
)
from .ranks import (
    RankSignature,
    generic_compress,
    has_rank_one_flattening,
    pr_at_least_two,
    rank_signature,
    restricts_to_bruteforce,
    subrank_bruteforce,
)
from .classify import (
    AsymptoticClass,
    ClassificationReport,
    GapValue,
    Orbit222,
    TrichotomyClass,
    cayley_hyperdet,
    classify_222,
    gap_constant,
    multilinear_rank_le_2,
    trichotomy,
    unit_restriction_witness,
)
from .degeneration import (
    DegenerationCertificate,
    WedgePoint,
    construct_w_degeneration,
    pluecker_wedge,
    scaling_map_tuple,
    stab_scaling_curve,
    stab_shear,
    unit_to_w_certificate,
    verify_certificate,
)
from .io import (
    load_certificate,
    load_tensor,
    save_certificate,
    save_tensor,
)
from .census import CensusRow, census_222

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
