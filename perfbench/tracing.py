"""Spans around the calls into the package's modules, for the traced run.

``install`` replaces the modules' public functions (and the two callback
boundaries: the ODE right-hand side handed to ``numerics.integrate`` and
the integrand handed to ``numerics.quad1``) with wrappers that time each
call; ``uninstall`` puts the originals back.  Nothing is wrapped in an
untraced run.

Every call to a wrapped function records its self time (its duration
minus the time spent in wrapped calls it made) and a count.  Calls at
layer boundaries also become spans (id, name, start, end, parent id),
kept in memory and written out at the end.  The three per-point
callbacks (pulse amplitude, right-hand side, integrand) are called up
to millions of times per round, so they are counted and timed but not
stored as spans.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections import Counter, defaultdict

# per-point callbacks: aggregated, not stored as spans
AGGREGATED = ("pulses.amplitude", "numerics.rhs", "numerics.integrand")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self._stack = []  # [start, child time, span id]
        self._ids = itertools.count()
        self._patches = []

    def wrap(self, name, func):
        record = name not in AGGREGATED
        stack, spans = self._stack, self.spans
        self_time, calls = self.self_time, self.calls
        clock = time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent else -1
            span_id = next(ids) if record else parent_id
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_time[name] += duration - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                if record:
                    spans.append((span_id, name, frame[0], end, parent_id))

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, pkg):
        """Wrap the public entry points of every layer of ``pkg``."""
        numerics = pkg.numerics
        integrate, quad1 = numerics.integrate, numerics.quad1

        def integrate_counting_rhs(system, *args, **kwargs):
            system = dataclasses.replace(system, rhs=self.wrap("numerics.rhs", system.rhs))
            return integrate(system, *args, **kwargs)

        def quad1_counting_integrand(f, *args, **kwargs):
            return quad1(self.wrap("numerics.integrand", f), *args, **kwargs)

        self._patch(pkg.pulses.PulseShape, "amplitude",
                    self.wrap("pulses.amplitude", pkg.pulses.PulseShape.amplitude))
        self._patch(numerics, "integrate", self.wrap("numerics.integrate", integrate_counting_rhs))
        self._patch(numerics, "quad1", self.wrap("numerics.quad1", quad1_counting_integrand))
        for module, attr, name in (
            (pkg.two_level, "peak_loading", "two_level.peak_loading"),
            (pkg.two_level, "amplitude_closed_form", "two_level.amplitude_closed_form"),
            (pkg.two_level, "spectral_amplitude", "two_level.spectral_amplitude"),
            (pkg.lambda_memory, "_adiabatic_reduced_run", "lambda_memory.adiabatic_run"),
            (pkg.lambda_memory, "full_ode", "lambda_memory.full_ode"),
            (pkg.lambda_memory, "nonadiabatic_amplitude", "lambda_memory.nonadiabatic_amplitude"),
            (pkg.entangled_loading, "peak_joint_loading", "entangled_loading.peak_joint_loading"),
            (pkg.entangled_loading, "spdc_biphoton", "entangled_loading.spdc_biphoton"),
            (pkg.entangled_loading, "c_ee", "entangled_loading.c_ee"),
            (pkg.optimize, "scenario_probability", "optimize.objective"),
            (pkg.optimize, "optimize_coupling", "optimize.optimize_coupling"),
            (pkg.optimize, "sweep", "optimize.sweep"),
            (pkg.cli, "main", "cli.main"),
        ):
            self._patch(module, attr, self.wrap(name, getattr(module, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round: (value, unit) by name."""
        out = {}

        def count(name, metric):
            out[metric] = (self.calls[name] / rounds, "count")

        def seconds(name, metric):
            out[metric] = (self.self_time[name] / rounds, "s")

        count("pulses.amplitude", "pulses.amplitude_calls")
        seconds("pulses.amplitude", "pulses.amplitude_s")
        count("numerics.integrate", "numerics.integrate_calls")
        count("numerics.rhs", "numerics.rhs_calls")
        seconds("numerics.integrate", "numerics.integrate_s")
        seconds("numerics.rhs", "numerics.rhs_s")
        count("numerics.quad1", "numerics.quad1_calls")
        count("numerics.integrand", "numerics.integrand_calls")
        seconds("numerics.quad1", "numerics.quad1_s")
        seconds("numerics.integrand", "numerics.integrand_s")
        count("two_level.peak_loading", "two_level.peak_loading_calls")
        seconds("two_level.peak_loading", "two_level.peak_loading_s")
        seconds("two_level.amplitude_closed_form", "two_level.amplitude_closed_form_s")
        seconds("two_level.spectral_amplitude", "two_level.spectral_amplitude_s")
        count("lambda_memory.adiabatic_run", "lambda_memory.adiabatic_run_calls")
        seconds("lambda_memory.adiabatic_run", "lambda_memory.adiabatic_run_s")
        seconds("lambda_memory.full_ode", "lambda_memory.full_ode_s")
        seconds("lambda_memory.nonadiabatic_amplitude", "lambda_memory.nonadiabatic_amplitude_s")
        for name in ("peak_joint_loading", "spdc_biphoton"):
            count(f"entangled_loading.{name}", f"entangled_loading.{name}_calls")
            seconds(f"entangled_loading.{name}", f"entangled_loading.{name}_s")
        seconds("entangled_loading.c_ee", "entangled_loading.c_ee_s")
        count("optimize.objective", "optimize.objective_evals")
        optima = self.calls["optimize.optimize_coupling"]
        out["optimize.objective_evals_per_optimum"] = (
            self.calls["optimize.objective"] / optima if optima else 0.0,
            "evals/optimum",
        )
        seconds("optimize.objective", "optimize.objective_s")
        seconds("optimize.optimize_coupling", "optimize.optimize_coupling_s")
        seconds("optimize.sweep", "optimize.sweep_s")
        count("cli.main", "cli.main_calls")
        seconds("cli.main", "cli.main_s")
        return out
