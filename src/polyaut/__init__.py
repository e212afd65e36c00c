"""Exact computer algebra for polynomial automorphisms: relation ideals of
leading terms, locally nilpotent derivation witnesses, degree drop bounds,
constructive plane tame decomposition and the three-variable classification
of principal relation generators with tame normal forms."""

from .polycore import (
    MINUS_INFINITY,
    ExponentOverflow,
    Polynomial,
    WeightVector,
    compose,
    format_poly,
    is_homogeneous,
    jacobian,
    leading_term,
    parse_poly,
    partial,
    wdeg,
)
from .autmap import (
    Affine,
    AutWord,
    Elementary,
    InverseMismatch,
    PolyMap,
    Transposition,
    certify,
    compose_map,
    deg2_weights,
    expand,
    format_map,
    format_word,
    invert_word,
    jacobian_constant,
    parse_map,
    parse_word,
)
from .derivation import (
    Derivation,
    LocallyNilpotent,
    NilpotenceVerdict,
    NoWitnessIndex,
    Unknown,
    apply,
    delta_derivation,
    derivation_degree,
    format_derivation,
    is_locally_nilpotent,
    leading_derivation,
    lnd_witness,
    nilpotence_order,
)
from .groebner import (
    IdealBasis,
    ResourceCapExceeded,
    buchberger,
    graded_kernel_oracle,
    kernel_ideal,
    normal_form,
)
from .relations import (
    OracleMismatch,
    RelationReport,
    check_degree_lemma,
    check_parachute,
    relation_report,
)
from .jvdk import (
    Decomposition,
    NotAnAutomorphism,
    NotAnAutomorphismError,
    ReductionStep,
    decompose2,
    reduce_step,
    relation2,
)
from .classify3 import (
    Classified,
    ClassifyOutcome,
    Forbidden,
    NeedsExtension,
    NormalForm,
    NotInList,
    NotWeightedHomogeneous,
    RelationType,
    Tag,
    canonical_lnd,
    classify,
    normalize,
    reconstruct,
    sample_classified,
    sample_forbidden,
)

__version__ = "0.1.0"
