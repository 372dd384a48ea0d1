"""bornlab: derives the exact rational constraint ledger that pins a
transition-probability function to |overlap|^2, tests candidate
distributions against the defining axioms, and falsifies non-conforming
candidates with replayable witnesses."""

__version__ = "0.1.0"

from .axioms import (
    Axiom,
    AxiomReport,
    CandidateDistribution,
    born_candidate,
    candidate_from_expression,
    check_n_independence,
    check_normalization,
    check_orthogonality_axiom,
    check_unitary_invariance,
    check_well_defined,
    run_axiom_suite,
)
from .construction import (
    PartialDftBasis,
    SymmetricState,
    overlap_with_symmetric,
    partial_dft_basis,
    symmetric_state,
)
from .derivation import (
    ConstraintLedger,
    build_ledger,
    compare_to_born,
    continuity_extension_check,
    verify_ledger,
)
from .errors import (
    BornlabError,
    CertificateError,
    DimensionError,
    DomainError,
    EvalError,
    ParameterError,
    ParseError,
    UnknownNameError,
)
from .falsifier import (
    ConstructionTag,
    FalsifierConfig,
    FalsifyResult,
    Witness,
    falsify,
    replay_witness,
)
from .hilbert import (
    OrthonormalBasis,
    StateVector,
    haar_unitary,
    orthonormality_defect,
    random_state,
    standard_basis,
)
from .montecarlo import (
    SimulationReport,
    frequentist_report,
    simulate_fractions,
)
