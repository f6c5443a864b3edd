"""triqent: canonical decomposition, operational entanglement measures and
classification for pure 3-qubit states, plus a Bell-measurement generation
protocol simulator."""

from .qcore import (
    BiseparableInput,
    DensityOperator,
    LocalUnitary,
    PureState,
    apply_local,
    basis_state,
    entropy,
    genuine_tripartite,
    ghz_state,
    haar_state,
    haar_unitary,
    partial_trace,
    permute_qubits,
    real_state,
    state_from_amplitudes,
    w_state,
)
from .bipartite import (
    SchmidtSplit,
    TauMatrix,
    concurrence_pair,
    concurrence_pure,
    eof,
    schmidt_split,
    spin_flip,
    tangle,
    tau_matrix,
)
from .canonical import (
    CanonicalForm,
    OmegaCase,
    canonical_decomposition,
    canonicalize_params,
    form_from_params,
    reconstruct_state,
    solve_omega,
)
from .measures import (
    InconsistentMeasures,
    MeasureSet,
    SPsiSet,
    invert_measures,
    measure_set,
    s_psi_set,
)
from .classification import (
    AcinForm,
    ClassLabel,
    InvariantSet,
    NotCLU,
    StateClass,
    acin_standard_form,
    classify,
    det_tau_sign,
    is_clu,
    j_invariants,
    lu_equivalent,
    standard_forms,
)
from .gensim import (
    ClosureViolation,
    ControlledGate,
    GenerationOutcome,
    bell_project,
    cj_state,
    enumerate_generation,
)

__version__ = "0.1.0"
