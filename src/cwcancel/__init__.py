"""Digital coupling-wave canceler design and BER evaluation toolkit."""

from .lti import StateSpace, DimensionError, matrix_exponential, discretize_zoh, spectral_radius
from .riccati import NumericalFailure, NoStabilizingSolution, solve_care, care_stabilizing
from .hnorm import UnstableSystemError, hinf_norm_discrete, frequency_response
from .plant import (
    ModelError,
    RepresentabilityError,
    RelayParams,
    HybridPlant,
    carrier_rotation,
    first_order_lowpass,
    build_hybrid_plant,
    default_relay_params,
)
from .lifting import (
    LiftedPlant,
    InterconnectionError,
    WellPosednessError,
    lift,
    closed_loop,
)
from .synthesis import (
    DigitalController,
    SynthesisResult,
    Infeasible,
    SynthesisError,
    synthesize_at_gamma,
    bisect_gamma,
    save_controller,
    load_controller,
)
from .simulate import SimConfig, Waveform, SimOutput, ConfigError, noise_amplitude, simulate_chain
from .ber import (
    CommsConfig,
    BerPoint,
    BerCurve,
    FramingError,
    modulate,
    demodulate,
    run_ber,
    sweep_beta,
    default_beta_grid,
    q_function,
    wilson_interval,
)

__version__ = "0.1.0"
