"""Unitary orthonormal bases for inclusions of multi-matrix algebras."""

from .algebra import (
    BlockOperator,
    MultiMatrixAlgebra,
    TracialState,
    circulant,
    epsilon,
    roots,
)
from .bases import (
    UnitaryBasis,
    abelian_basis,
    adjoint_basis,
    basic_model_basis,
    concat_basis,
    construct,
    direct_sum_basis,
    full_matrix_sub_basis,
    full_matrix_super_basis,
    identity_basis,
    tensor_basis,
    tensor_spec,
    weyl_basis,
)
from .errors import UobError
from .expectation import (
    conditional_expectation,
    markov_expectation,
    mixed_unitary_channel,
)
from .inclusion import (
    InclusionSpec,
    check_spectral_condition,
    embed,
    markov_trace,
    spectral_d,
    unembed,
)
from .tower import (
    BasicConstruction,
    basic_construction_basis,
    build_basic_construction,
    dual_expectation,
)
from .verify import (
    VerificationReport,
    all_passed,
    verify_basis,
    verify_expectation_axioms,
    verify_orthonormality,
    verify_reconstruction,
    verify_trace_conditions,
    verify_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "BlockOperator",
    "MultiMatrixAlgebra",
    "TracialState",
    "circulant",
    "epsilon",
    "roots",
    "UnitaryBasis",
    "abelian_basis",
    "adjoint_basis",
    "basic_model_basis",
    "concat_basis",
    "construct",
    "direct_sum_basis",
    "full_matrix_sub_basis",
    "full_matrix_super_basis",
    "identity_basis",
    "tensor_basis",
    "tensor_spec",
    "weyl_basis",
    "UobError",
    "conditional_expectation",
    "markov_expectation",
    "mixed_unitary_channel",
    "InclusionSpec",
    "check_spectral_condition",
    "embed",
    "markov_trace",
    "spectral_d",
    "unembed",
    "BasicConstruction",
    "basic_construction_basis",
    "build_basic_construction",
    "dual_expectation",
    "VerificationReport",
    "all_passed",
    "verify_basis",
    "verify_expectation_axioms",
    "verify_orthonormality",
    "verify_reconstruction",
    "verify_trace_conditions",
    "verify_unitary",
]
