"""Spectral solver and long-time profile analytics for a dissipatively
coupled pair of one-dimensional cubic Schrodinger equations."""

__version__ = "0.1.0"

from .errors import (
    CheckpointError,
    ConfigError,
    GuardViolation,
    NumericsError,
    PicardDivergence,
)
from .spectral import (
    ComplexField,
    FieldPair,
    Grid,
)
from .dynamics import (
    Checkpoint,
    DtPolicy,
    SolverConfig,
    Trajectory,
    mass_ledger,
    run,
)
from .profiles import (
    CaseTable,
    DecouplingReport,
    build_case_records,
    classify,
    decoupling_history,
    profile_history,
)
from .asymptotics import (
    LemmaCertificate,
    LemmaMParams,
    LinearODERecord,
    lemma_m_certificate,
    linear_ode_limit,
    reduced_flow_profiles,
)
from .scattering import (
    FinalStateSpec,
    ObstructionReport,
    PicardState,
    ScatteringReport,
    build_final_state,
    obstruction_probe,
    picard_construct,
    verify_scattering,
)
from .harness import (
    ExperimentConfig,
    generate_initial_data,
    load_checkpoint,
    persist_checkpoint,
)
