"""Double-integrator observers with frequency-sweep characterization.

The package simulates two state observers (a nonlinear one and its linear
degeneration) that estimate the onefold and double integrals of a signal,
and characterizes them in the frequency domain by driving them with
sinusoids and least-squares-fitting the outputs.  The linear observer's
exact transfer function is the cross-validation oracle.
"""

from .analytic import (
    TransferEval,
    cutoff_frequency,
    discrete_response,
    is_hurwitz_cubic,
    limit_transfer,
    signal_states,
    step_map,
    transfer_eval,
)
from .errors import (
    ConfigError,
    CutoffNotFound,
    DivergedState,
    DomainError,
    DoubleIntError,
    IllConditioned,
    InvalidParams,
    SingularAtDC,
    SingularDenominator,
    UnsupportedTruth,
)
from .observers import (
    ObserverParams,
    ObserverState,
    ValidationReport,
    derive_alphas,
    power_sign,
    rhs,
    validate_params,
)
from .signals import (
    NoiseTerm,
    SignalSpec,
    input_values,
    make_input_fn,
    paper_reference_spec,
    truth_arrays,
)
from .solver import (
    SimConfig,
    Trajectory,
    settle_time,
    simulate,
    step,
    trajectory_metrics,
)
from .sweep import (
    BodeCurve,
    BodeRow,
    SinusoidFit,
    SweepConfig,
    bode_from_transfer,
    default_grid,
    fit_sinusoid,
    phase_unwrap,
    sweep_observer,
    sweep_observers,
)

__version__ = "0.1.0"
