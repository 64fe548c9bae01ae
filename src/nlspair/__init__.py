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
    NormReport,
    apply_D,
    apply_J,
    apply_M,
    forward_transform,
    free_propagate,
    inverse_transform,
    l2_norm,
    make_grid,
    norms,
    sobolev_norm,
)
from .dynamics import (
    Checkpoint,
    DtPolicy,
    MassLedger,
    SolverConfig,
    Trajectory,
    coupled_decay_ratios,
    mass_ledger,
    nonlinear_substep,
    rk4_reference,
    run,
    strang_step,
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
    ReducedState,
    lemma_m_certificate,
    linear_ode_limit,
    reduced_flow,
    reduced_flow_profiles,
)
from .scattering import (
    AsymptoticWave,
    FinalStateSpec,
    ObstructionReport,
    PicardState,
    ScatteringReport,
    asymptotic_wave,
    build_final_state,
    obstruction_probe,
    picard_construct,
    verify_scattering,
)
from .harness import (
    ExperimentConfig,
    RunManifest,
    generate_initial_data,
    load_checkpoint,
    persist_checkpoint,
)
