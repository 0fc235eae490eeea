"""Two-photon Jaynes-Cummings simulation of ladder-operator photon
addition and subtraction on a truncated Fock space."""

from .errors import (
    AllMassRemoved,
    ConfigInvalid,
    DiagonalizationFailure,
    DimensionMismatch,
    IoFailure,
    TpjcError,
    TruncationTooSmall,
    ZeroMeanPhoton,
)
from .fock import (
    DEFAULT_TOL,
    LOW_MASS_TOL,
    DensityMatrix,
    FockVector,
    Tolerances,
    apply_annihilation,
    default_dim,
    fidelity,
    fock_distribution,
    make_coherent,
    make_fock,
    mean_photon,
    pure_density,
)
from .sg import (
    EigenResidual,
    Mode,
    add_photons_ideal,
    apply_A,
    eigen_residual,
    ideal_state,
    low_component_mass,
    mandel_q,
    mandel_q_coherent_predict,
    subtract_photons_ideal,
    subtracted_mean_predict,
)
from .dynamics import (
    ProtocolResult,
    approx_error,
    build_hamiltonian,
    evolve_closed_form,
    evolve_oracle,
    hamiltonian_eig,
    pass_add,
    pass_subtract,
    rabi_angle,
    run_protocol,
)
from .experiment import (
    ExperimentConfig,
    OracleReport,
    approx_error_table,
    load_config,
    load_result,
    oracle_check,
    run_experiment,
)

__version__ = "0.1.0"
