"""Digital coupling-wave canceler design and BER evaluation toolkit."""

from .lti import (StateSpace, DimensionError, NumericalFailure, matrix_exponential,
                  discretize_zoh, spectral_radius)
from .riccati import NoStabilizingSolution, solve_care, care_stabilizing
from .hnorm import UnstableSystemError, hinf_norm_discrete, frequency_response
from .plant import (
    ModelError,
    RepresentabilityError,
    RelayParams,
    carrier_rotation,
    first_order_lowpass,
)
from .lifting import (
    LiftedPlant,
    InterconnectionError,
    StepMismatchError,
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
from .simulate import SimConfig, SimOutput, ConfigError, noise_amplitude, simulate_chain
from .ber import (
    BerPoint,
    BerCurve,
    FramingError,
    modulate,
    demodulate,
    sweep_beta,
    default_beta_grid,
    q_function,
    wilson_interval,
)

__version__ = "0.1.0"
