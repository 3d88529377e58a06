"""Loading simulations for trapped-atom quantum memories.

Computes the probability of transferring a traveling single photon (or
an entangled biphoton) into the metastable state of a trapped atom in a
single-ended cavity, for two-level, Lambda, double-Lambda and paired
double-Lambda configurations, and finds the coupling rates that maximize
it for a given input bandwidth.  A pair's memories are modeled as
two-level legs; no pair route takes Lambda memories.  ``LambdaParams``
has a constant control: a time-dependent one enters only ``full_ode``.
"""

from .numerics import OdeFailure, OdeSystem, QuadratureFailure, QuadratureSpec
from .pulses import (
    PulseShape,
    frequency_shifted,
    make_named,
    make_sech,
    make_zero,
)
from .two_level import (
    Trajectory,
    TwoLevelParams,
    amplitude_closed_form,
    amplitude_ode,
    peak_loading,
    spectral_amplitude,
    stepped_trajectory,
)
from .lambda_memory import (
    LambdaParams,
    ReducedParams,
    adiabatic_control_pulse,
    adiabatic_load,
    adiabatic_offset_scan,
    compensated_pulse,
    full_ode,
    nonadiabatic_trajectory,
    reduce,
    stark_compensation,
)
from .entangled_loading import (
    BiphotonAmplitude,
    PolarizationQubit,
    SpdcParams,
    c_ee,
    spdc_biphoton,
    v_level_load,
)
from .optimize import (
    OptimumPoint,
    SweepSpec,
    optimize_coupling,
    sweep,
    throughput_compare,
)

__version__ = "0.1.0"

__all__ = [
    "PulseShape",
    "make_sech",
    "make_named",
    "make_zero",
    "frequency_shifted",
    "OdeSystem",
    "QuadratureSpec",
    "OdeFailure",
    "QuadratureFailure",
    "TwoLevelParams",
    "Trajectory",
    "amplitude_closed_form",
    "amplitude_ode",
    "spectral_amplitude",
    "peak_loading",
    "stepped_trajectory",
    "LambdaParams",
    "ReducedParams",
    "full_ode",
    "reduce",
    "stark_compensation",
    "compensated_pulse",
    "nonadiabatic_trajectory",
    "adiabatic_control_pulse",
    "adiabatic_load",
    "adiabatic_offset_scan",
    "PolarizationQubit",
    "BiphotonAmplitude",
    "SpdcParams",
    "v_level_load",
    "spdc_biphoton",
    "c_ee",
    "OptimumPoint",
    "SweepSpec",
    "optimize_coupling",
    "sweep",
    "throughput_compare",
    "__version__",
]
