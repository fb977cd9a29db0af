"""Outside-in tracing of zermelo for the benchmark's traced run.

The tracer replaces module-level bindings with timing wrappers and puts the
originals back afterwards; zermelo itself is not modified.  It wraps the
binding each caller looks up: ``from .flow import state_at`` copies the
name into the importing module, so ``cusp.state_at`` and
``reachability.state_at`` are wrapped separately, under one span name.

A span's self time is its duration minus the time of the spans it
directly contains.  Counts ride on the same wrappers.  Trial and rejected
steps come from a counter on ``_kernels._attempt_step``, which the numpy
kernels look up on every step; that counter is the main cost of tracing.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter

from zermelo import _kernels, cli, closedform, cusp, flow, reachability, svg

HALT_NAMES = {
    _kernels.STATUS_DOMAIN_EXIT: "domain-exit",
    _kernels.STATUS_STEP_COLLAPSE: "step-collapse",
    _kernels.STATUS_MAX_STEPS: "max-steps",
}

CLI_COMMANDS = ("classify", "integrate", "cusp", "wavefront", "ball", "value", "synthesis")


def _halt(counts, status):
    if status in HALT_NAMES:
        counts[f"kernels.halts.{HALT_NAMES[status]}"] += 1


def _after_at_times(counts, args, result):
    counts["kernels.rk45_at_times.targets"] += len(args[7])
    _halt(counts, result[1])


def _after_trajectory(counts, args, result):
    counts["kernels.rk45_trajectory.steps"] += result[0] - 1  # row 0 is the start
    _halt(counts, result[1])


def _after_endpoints(counts, args, result):
    counts["closedform.historical_endpoints.lanes"] += result.shape[0]


def _after_value(counts, args, result):
    counts["reachability.value_function.unreachable"] += not result.reachable


def _after_write(counts, args, result):
    counts["output.bytes"] += os.path.getsize(args[0])


def _cli_span(args):
    return f"cli.{args[0][0]}"


# (owner, attribute, span name or name function, count hook)
BINDINGS = (
    (_kernels, "rk45_at_times", "kernels.rk45_at_times", _after_at_times),
    (_kernels, "rk45_trajectory", "kernels.rk45_trajectory", _after_trajectory),
    (reachability, "value_function", "reachability.value_function", _after_value),
    (reachability, "build_shooting_grid", "reachability.build_shooting_grid", None),
    (reachability, "wavefront", "reachability.wavefront", None),
    (reachability, "sphere_and_ball", "reachability.sphere_and_ball", None),
    (reachability, "discontinuity_scan", "reachability.discontinuity_scan", None),
    (reachability, "cut_locus_estimate", "reachability.cut_locus_estimate", None),
    (reachability, "self_intersections", "reachability.self_intersections", None),
    (reachability, "cusp_numeric", "cusp.cusp_numeric", None),
    (reachability, "classify", "brackets.classify", None),
    (reachability, "abnormal_headings", "brackets.abnormal_headings", None),
    (reachability, "state_at", "flow.state_at", None),
    (reachability, "integrate_numeric", "flow.integrate_numeric", None),
    (reachability, "polyline_self_intersections", "geometry.polyline_self_intersections", None),
    (reachability, "refine_curve_intersection", "geometry.refine_curve_intersection", None),
    (cusp, "cusp_numeric", "cusp.cusp_numeric", None),
    (cusp, "state_at", "flow.state_at", None),
    (cusp, "position_speed", "flow.position_speed", None),
    (cusp, "integrate_numeric", "flow.integrate_numeric", None),
    (cusp, "classify", "brackets.classify", None),
    (flow, "integrate_numeric", "flow.integrate_numeric", None),
    (flow, "first_integral_residuals", "flow.first_integral_residuals", None),
    (closedform, "historical_endpoints", "closedform.historical_endpoints", _after_endpoints),
    (closedform, "historical_positions", "closedform.historical_positions", None),
    (cli, "main", _cli_span, None),
    (cli, "write_csv", "output.write", _after_write),
    (cli, "write_text", "output.write", _after_write),
    (cli, "classify", "brackets.classify", None),
    (cli, "integrate_numeric", "flow.integrate_numeric", None),
    (cli, "cusp_numeric", "cusp.cusp_numeric", None),
    (svg.SvgFigure, "render", "svg.render", None),
)


class Tracer:
    """Span totals, self times and counts gathered while installed."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._children = []  # child time of each open span, innermost last
        self._open = Counter()
        self._saved = []

    def _span(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if span_name == "flow.state_at" and tracer._open["cusp.cusp_numeric"]:
                tracer.counts["cusp.state_at_in_search"] += 1
            tracer._open[span_name] += 1
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open[span_name] -= 1
                children = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += elapsed
                tracer.calls[span_name] += 1
                tracer.total[span_name] += elapsed
                tracer.self_time[span_name] += elapsed - children
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return span

    def _step_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def attempt(*args):
            result = fn(*args)
            err = result[3]
            counts["kernels.trial_steps"] += 1
            if err > 1.0:  # the kernels' own rejection test
                counts["kernels.rejected_steps"] += 1
            if math.isfinite(err):
                counts["kernels.finite_trial_steps"] += 1
            return result

        return attempt

    def _replace(self, owner, attr, wrapper_of):
        # getattr raises on a binding that is gone: the trace must not
        # silently report zero for a layer it no longer sees
        original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner.__name__}.{attr} is not callable")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def install(self) -> None:
        if _kernels.BACKEND != "numpy":
            raise RuntimeError(
                f"step counts need the numpy kernels; backend is {_kernels.BACKEND!r}"
            )
        self._replace(_kernels, "_attempt_step", self._step_counter)
        for owner, attr, name, after in BINDINGS:
            self._replace(owner, attr, lambda fn, n=name, a=after: self._span(n, fn, a))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_tasks: int, overhead_frac: float, diag: dict) -> dict:
    """Per-layer metrics of a traced run, per task where the unit says so."""
    if tracer.calls["kernels.rk45_at_times"] + tracer.calls["kernels.rk45_trajectory"] and not (
        tracer.counts["kernels.trial_steps"]
    ):
        raise RuntimeError("kernels ran but the step counter saw no trial step")
    calls, total, own, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    out = {}

    def per_task(name, value, unit):
        out[name] = (value / n_tasks, unit)

    for span in ("kernels.rk45_at_times", "kernels.rk45_trajectory"):
        per_task(f"{span}.calls", calls[span], "count/task")
    per_task("kernels.rk45_at_times.targets", counts["kernels.rk45_at_times.targets"], "count/task")
    per_task("kernels.rk45_trajectory.steps", counts["kernels.rk45_trajectory.steps"], "count/task")
    for span in ("kernels.rk45_at_times", "kernels.rk45_trajectory"):
        per_task(f"{span}.self_s", own[span], "s/task")
    per_task("kernels.trial_steps", counts["kernels.trial_steps"], "count/task")
    per_task("kernels.rejected_steps", counts["kernels.rejected_steps"], "count/task")
    # computed, not counted: a finite trial step evaluates the RHS 7 times
    per_task("kernels.rhs_evals", 7 * counts["kernels.finite_trial_steps"], "count/task")
    kernel_s = own["kernels.rk45_at_times"] + own["kernels.rk45_trajectory"]
    out["kernels.trial_steps_per_s"] = (_ratio(counts["kernels.trial_steps"], kernel_s), "1/s")
    for halt in HALT_NAMES.values():
        per_task(f"kernels.halts.{halt}", counts[f"kernels.halts.{halt}"], "count/task")

    per_task("flow.integrate_numeric.calls", calls["flow.integrate_numeric"], "count/task")
    per_task("flow.integrate_numeric.self_s", own["flow.integrate_numeric"], "s/task")
    per_task("flow.state_at.calls", calls["flow.state_at"], "count/task")
    per_task("flow.state_at.total_s", total["flow.state_at"], "s/task")
    per_task("flow.position_speed.calls", calls["flow.position_speed"], "count/task")
    per_task("flow.position_speed.self_s", own["flow.position_speed"], "s/task")
    per_task("flow.first_integral_residuals.self_s", own["flow.first_integral_residuals"], "s/task")

    per_task("cusp.cusp_numeric.calls", calls["cusp.cusp_numeric"], "count/task")
    per_task("cusp.cusp_numeric.total_s", total["cusp.cusp_numeric"], "s/task")
    per_task("cusp.cusp_numeric.self_s", own["cusp.cusp_numeric"], "s/task")
    out["cusp.state_at_per_search"] = (
        _ratio(counts["cusp.state_at_in_search"], calls["cusp.cusp_numeric"]),
        "count",
    )

    span = "closedform.historical_endpoints"
    per_task(f"{span}.calls", calls[span], "count/task")
    per_task(f"{span}.lanes", counts[f"{span}.lanes"], "count/task")
    per_task(f"{span}.self_s", own[span], "s/task")
    per_task("closedform.historical_positions.self_s", own["closedform.historical_positions"],
             "s/task")

    span = "reachability.value_function"
    per_task(f"{span}.calls", calls[span], "count/task")
    per_task(f"{span}.total_s", total[span], "s/task")
    per_task(f"{span}.self_s", own[span], "s/task")
    out[f"{span}.s_per_target"] = (_ratio(total[span], calls[span]), "s")
    out[f"{span}.unreachable_frac"] = (_ratio(counts[f"{span}.unreachable"], calls[span]), "ratio")
    span = "reachability.build_shooting_grid"
    per_task(f"{span}.total_s", total[span], "s/task")
    per_task(f"{span}.self_s", own[span], "s/task")
    for name in ("sphere_and_ball", "discontinuity_scan", "cut_locus_estimate", "wavefront",
                 "self_intersections"):
        per_task(f"reachability.{name}.total_s", total[f"reachability.{name}"], "s/task")

    for span in ("geometry.polyline_self_intersections", "geometry.refine_curve_intersection"):
        per_task(f"{span}.calls", calls[span], "count/task")
        per_task(f"{span}.self_s", own[span], "s/task")

    per_task("brackets.classify.calls", calls["brackets.classify"], "count/task")
    per_task("brackets.classify.self_s", own["brackets.classify"], "s/task")
    per_task("brackets.abnormal_headings.calls", calls["brackets.abnormal_headings"], "count/task")

    for command in CLI_COMMANDS:
        per_task(f"cli.{command}.s", total[f"cli.{command}"], "s/task")
    per_task("output.write_s", total["output.write"], "s/task")
    per_task("output.bytes", counts["output.bytes"], "B/task")
    per_task("svg.render_s", total["svg.render"], "s/task")

    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    out["check.cusp_norm_err_max"] = (diag.get("cusp_norm_err", 0.0), "ratio")
    out["check.jump_left_err_max"] = (diag.get("jump_left_err", 0.0), "s")
    return out
