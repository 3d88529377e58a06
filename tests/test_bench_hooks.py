"""The benchmark's traced run wraps package functions by module attribute.

``perfbench.tracing.Tracer.install`` replaces named attributes of the
package's modules.  A renamed function, or a caller that holds a function
reference taken at import, would leave the traced run's counters at zero
without any error, so this test runs each hooked layer once under the
tracer and requires every counter it reads to be nonzero.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer  # noqa: E402

from cavity_loader import (  # noqa: E402
    cli,
    entangled_loading,
    lambda_memory,
    numerics,
    optimize,
    pulses,
    two_level,
)


def _package():
    return SimpleNamespace(
        cli=cli,
        entangled_loading=entangled_loading,
        lambda_memory=lambda_memory,
        numerics=numerics,
        optimize=optimize,
        pulses=pulses,
        two_level=two_level,
    )


def test_tracer_sees_every_hooked_layer(tmp_path):
    pkg = _package()
    original = optimize.scenario_probability
    # the biphoton is cached per (kT, kT0); start cold so it is built here
    optimize._mitnu_biphoton.cache_clear()
    tracer = Tracer()
    tracer.install(pkg)
    try:
        for scenario, fixed in (
            ("two_level", {"kT": 2.0}),
            ("lambda_adiabatic_zed", {"kT": 4.5}),
            ("mitnu", {"kT": 2.0, "kT0": 2.0}),
        ):
            p, _ = optimize.scenario_probability(scenario, 1.0, fixed)
            assert 0.0 < p <= 1.0
        adiabatic_runs = tracer.calls["lambda_memory.adiabatic_run"]
        # the timing scan reaches the adiabatic runs through the module
        lambda_memory.adiabatic_offset_scan(1.0, 1.0, 4.5, [0.0, 1.0], detuned=False)
        assert tracer.calls["lambda_memory.adiabatic_run"] == adiabatic_runs + 2
        rc = cli.main(
            [
                "optimize",
                "--scenario",
                "two_level",
                "--kT",
                "2",
                "--g_min",
                "1.0",
                "--g_max",
                "1.01",
                "--tol",
                "0.1",
                "--out",
                str(tmp_path / "opt.csv"),
            ]
        )
        assert rc == 0
    finally:
        tracer.uninstall()
    for name in (
        "optimize.objective",
        "optimize.optimize_coupling",
        "two_level.peak_loading",
        "lambda_memory.adiabatic_run",
        "entangled_loading.peak_joint_loading",
        "entangled_loading.spdc_biphoton",
        "cli.main",
    ):
        assert tracer.calls[name] > 0, name
    assert optimize.scenario_probability is original


def test_tracer_sees_the_optimizer_route():
    # the batched coarse scan and the Brent calls must both go through the
    # module attributes the tracer wraps
    optimize._mitnu_biphoton.cache_clear()
    tracer = Tracer()
    tracer.install(_package())
    try:
        opt = optimize.optimize_coupling("mitnu", {"kT": 2.5, "kT0": 3.5}, (0.5, 0.6), tol=0.05)
    finally:
        tracer.uninstall()
    assert 0.0 < opt.P_max <= 1.0
    for name in (
        "optimize.objective",
        "entangled_loading.peak_joint_loading",
        "entangled_loading.spdc_biphoton",
    ):
        assert tracer.calls[name] > 0, name
