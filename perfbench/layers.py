"""What the traced run wraps, and the per-layer metrics it reports.

Each metric names the end-to-end metric and workload it should move, so
that a later change to one layer states its prediction against this table.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import Tracer

PACKAGE = "qsteer"


def _wrap_objective(tracer: Tracer, args, kwargs):
    # nelder_mead(f, x0, ...): time every evaluation of the objective.
    if args:
        args = (tracer.wrap("optimize.objective", args[0]),) + tuple(args[1:])
    elif "f" in kwargs:
        kwargs = dict(kwargs, f=tracer.wrap("optimize.objective", kwargs["f"]))
    return args, kwargs


def _count_simplex(tracer: Tracer, result):
    tracer.counters["optimize.nelder_mead.runs"] += 1
    if isinstance(result, tuple) and len(result) >= 3 and result[2] is False:
        tracer.counters["optimize.nelder_mead.unconverged"] += 1


def _count_msc(tracer: Tracer, result):
    tracer.counters["msc.results"] += 1
    if getattr(result, "degenerate_path", False):
        tracer.counters["msc.degenerate"] += 1
    if getattr(result, "converged", True) is False:
        tracer.counters["msc.unconverged"] += 1


# Public functions wrapped in the traced run, by module, with (before, after)
# hooks. `coherence`, `states` and `rand` only build inputs and references.
TRACED = {
    "qcore.validate_density": (None, None),
    "qcore.pauli_decompose": (None, None),
    "qcore.eigen_hermitian": (None, None),
    "qcore.partial_trace": (None, None),
    "steering.qse": (None, None),
    "steering.canonical_transform": (None, None),
    "steering.steer": (None, None),
    "channels.apply_on_b": (None, None),
    "channels.kraus_channel": (None, None),
    "optimize.nelder_mead": (_wrap_objective, _count_simplex),
    "msc.msc_two_qubit": (None, _count_msc),
    "msc.msc_general": (None, _count_msc),
    "statefile.load_state": (None, None),
    "cli.main": (None, None),
}


@dataclass
class Context:
    """What a traced run measured, for computing the metrics."""

    tracer: Tracer
    ops: int
    overhead_frac: float
    oracle_calls: int
    oracle_seconds: float
    oracle_points: int


def _per_op(x: float, ctx: Context) -> float:
    return x / ctx.ops if ctx.ops else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_ms(name):
    return lambda c: _per_op(1e3 * c.tracer.totals(name).self_s, c)


def _calls(name):
    return lambda c: _per_op(c.tracer.totals(name).calls, c)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move
    compute: object


PER_LAYER = (
    LayerMetric("qcore.validate_density.calls_per_op", "calls/op", "lower",
                "op_ms_p50 on damping-sweep and generic-2q", _calls("qcore.validate_density")),
    LayerMetric("qcore.validate_density.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on damping-sweep and generic-2q", _self_ms("qcore.validate_density")),
    LayerMetric("qcore.pauli_decompose.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on damping-sweep and generic-2q", _self_ms("qcore.pauli_decompose")),
    LayerMetric("qcore.eigen_hermitian.calls_per_op", "calls/op", "lower",
                "op_ms_p50 on damping-sweep and generic-2q", _calls("qcore.eigen_hermitian")),
    LayerMetric("qcore.eigen_hermitian.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on damping-sweep and generic-2q", _self_ms("qcore.eigen_hermitian")),
    LayerMetric("qcore.partial_trace.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on damping-sweep and generic-2q", _self_ms("qcore.partial_trace")),
    LayerMetric("steering.qse.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on generic-2q", _self_ms("steering.qse")),
    LayerMetric("steering.canonical_transform.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on generic-2q", _self_ms("steering.canonical_transform")),
    LayerMetric("steering.steer.calls_per_op", "calls/op", "lower",
                "op_ms_p50 on generic-2q", _calls("steering.steer")),
    LayerMetric("steering.steer.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on generic-2q", _self_ms("steering.steer")),
    LayerMetric("channels.apply_on_b.self_ms_per_op", "ms/op", "lower",
                "ops_per_s on damping-sweep", _self_ms("channels.apply_on_b")),
    LayerMetric("channels.kraus_channel.self_ms_per_op", "ms/op", "lower",
                "ops_per_s on damping-sweep", _self_ms("channels.kraus_channel")),
    LayerMetric("optimize.nelder_mead.runs_per_op", "runs/op", "lower",
                "ops_per_s and op_ms_p50 on generic-2q, damping-sweep, degenerate-2q; none on qudit",
                _calls("optimize.nelder_mead")),
    LayerMetric("optimize.nelder_mead.fevals_per_op", "evals/op", "lower",
                "ops_per_s and op_ms_p50 on generic-2q, damping-sweep, degenerate-2q; none on qudit",
                _calls("optimize.objective")),
    LayerMetric("optimize.nelder_mead.self_ms_per_op", "ms/op", "lower",
                "ops_per_s and op_ms_p50 on generic-2q, damping-sweep, degenerate-2q; none on qudit",
                _self_ms("optimize.nelder_mead")),
    LayerMetric("optimize.objective.ms_per_op", "ms/op", "lower",
                "ops_per_s and op_ms_p50 on generic-2q, damping-sweep, degenerate-2q; none on qudit",
                _self_ms("optimize.objective")),
    LayerMetric("optimize.nelder_mead.unconverged_frac", "frac", "lower",
                "verified_frac on qudit",
                lambda c: _ratio(c.tracer.counters["optimize.nelder_mead.unconverged"],
                                 c.tracer.counters["optimize.nelder_mead.runs"])),
    LayerMetric("msc.msc_two_qubit.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on degenerate-2q", _self_ms("msc.msc_two_qubit")),
    LayerMetric("msc.msc_general.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on qudit", _self_ms("msc.msc_general")),
    LayerMetric("msc.degenerate_frac", "frac", "lower",
                "none; the base of every degenerate-branch ratio",
                lambda c: _ratio(c.tracer.counters["msc.degenerate"], c.tracer.counters["msc.results"])),
    LayerMetric("msc.unconverged_frac", "frac", "lower",
                "verified_frac on qudit",
                lambda c: _ratio(c.tracer.counters["msc.unconverged"], c.tracer.counters["msc.results"])),
    LayerMetric("msc.msc_oracle.ms_per_call", "ms/call", "lower",
                "none; timed in the checks, outside op time; sizes the verify oracle",
                lambda c: _ratio(1e3 * c.oracle_seconds, c.oracle_calls)),
    LayerMetric("msc.msc_oracle.points_per_s", "1/s", "higher",
                "none; timed in the checks, outside op time; sizes the verify oracle",
                lambda c: _ratio(c.oracle_points, c.oracle_seconds)),
    LayerMetric("statefile.load_state.ms_per_call", "ms/call", "lower",
                "op_ms_p50 on damping-sweep", lambda c: _ratio(1e3 * c.tracer.totals("statefile.load_state").total_s,
                                                               c.tracer.totals("statefile.load_state").calls)),
    LayerMetric("cli.main.self_ms_per_op", "ms/op", "lower",
                "op_ms_p50 on damping-sweep", _self_ms("cli.main")),
    LayerMetric("trace.overhead_frac", "frac", "lower",
                "none; traced against untraced op time of the same ops", lambda c: c.overhead_frac),
)


def compute(ctx: Context) -> dict:
    return {m.name: {"value": float(m.compute(ctx)), "unit": m.unit} for m in PER_LAYER}
