"""triqent: canonical decomposition, operational entanglement measures and
classification for pure 3-qubit states, plus a Bell-measurement generation
protocol simulator."""

from .qcore import (
    BiseparableInput,
    LocalUnitary,
    PureState,
    apply_local,
    genuine_tripartite,
    ghz_state,
    haar_state,
    haar_unitary,
    permute_qubits,
    real_state,
    w_state,
)
from .bipartite import (
    SchmidtSplit,
    TauMatrix,
    eof,
    schmidt_split,
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
    StateAnalysis,
    StateClass,
    acin_standard_form,
    analyze,
    classify,
    det_tau_sign,
    j_invariants,
    lu_equivalent,
    standard_forms,
)
from .gensim import (
    ClosureViolation,
    ControlledGate,
    GenerationOutcome,
    cj_state,
    enumerate_generation,
)

__version__ = "0.1.0"
