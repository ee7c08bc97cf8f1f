"""Digital coupling-wave canceler design and BER evaluation toolkit."""

from .lti import StateSpace, NumericalFailure, matrix_exponential, discretize_zoh, spectral_radius
from .riccati import solve_care, care_stabilizing
from .hnorm import UnstableSystemError, hinf_norm_discrete, frequency_response
from .plant import RelayParams, carrier_rotation, first_order_lowpass
from .lifting import LiftedPlant, StepMismatchError, lift, closed_loop
from .synthesis import (
    DigitalController,
    SynthesisResult,
    Probe,
    SynthesisError,
    bisect_gamma,
    save_controller,
    load_controller,
)
from .simulate import SimConfig, SimOutput, noise_amplitude, simulate_chain
from .ber import (
    BerPoint,
    BerCurve,
    modulate,
    demodulate,
    sweep_beta,
    default_beta_grid,
    q_function,
    wilson_interval,
)

__version__ = "0.1.0"
