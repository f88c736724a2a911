"""Where the traced run wraps threesphere, and the per-layer metrics it derives.

Each wrapper replaces a module attribute that a caller looks up at call
time, so the program itself is unchanged.  A layer is charged from the
point where another layer calls into it; work it delegates through its own
module namespace stays with it.  Layers are the package's modules:
protocol, correlations, algebra, topology, suites, tables and cli.
"""

from __future__ import annotations

import math
import os
import statistics

from spans import layer_self_times, self_times

LAYERS = ("protocol", "correlations", "algebra", "topology", "suites", "tables", "cli")

# Called once per sample by the suites, i.e. about 10^4 times per job or more.
_ALGEBRA_PRODUCTS = ("geometric_product", "even_product", "oriented_even_product", "wedge")
_ALGEBRA_OTHER = ("dual_bivector", "bivector_identity_residual")
_TOPOLOGY = ("factorize_s3_point", "s2_nonclosure_witness", "stereographic_project",
             "stereographic_unproject")
_PROTOCOL_SCALAR = ("alice_outcome", "bob_outcome", "joint_product_closed_form")

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER = [
    ("protocol.stream_calls", "count", "lower"),
    ("protocol.signs", "count", "lower"),
    ("protocol.stream_busy_s", "s", "lower"),
    ("protocol.signs_per_s", "1/s", "higher"),
    ("protocol.peak_bytes_per_sign", "B", "lower"),
    ("protocol.self_s", "s", "lower"),
    ("correlations.estimate_calls", "count", "lower"),
    ("correlations.estimate_busy_s", "s", "lower"),
    ("correlations.reduce_self_s", "s", "lower"),
    ("correlations.shard_parallelism", "ratio", "higher"),
    ("correlations.sign_sum_useful_ratio", "ratio", "higher"),
    ("correlations.chsh_grid_points", "count", "higher"),
    ("correlations.chsh_correlation_calls", "count", "lower"),
    ("correlations.chsh_matrix_s", "s", "lower"),
    ("correlations.chsh_search_s", "s", "lower"),
    ("correlations.self_s", "s", "lower"),
    ("algebra.product_calls", "count", "lower"),
    ("algebra.busy_s", "s", "lower"),
    ("algebra.products_per_s", "1/s", "higher"),
    ("topology.calls", "count", "lower"),
    ("topology.busy_s", "s", "lower"),
    ("suites.instances", "count", "higher"),
    ("suites.self_s", "s", "lower"),
    ("suites.checks_failed", "count", "lower"),
    ("tables.rows_written", "count", "lower"),
    ("tables.bytes_written", "B", "lower"),
    ("tables.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("tracing.job_wall_s", "s", "lower"),
    ("tracing.self_sum_s", "s", "lower"),
    ("tracing.parallel_overlap_s", "s", "higher"),
    ("tracing.overhead_s", "s", "lower"),
]


def _stream_attrs(args, kwargs, result):
    start = kwargs.get("start", args[2] if len(args) > 2 else 0)
    return {"seed": int(args[0]), "count": int(args[1]), "start": int(start)}


def _grid_attrs(args, kwargs, result):
    return {"grid_points": max(1, math.ceil(math.pi / args[0] - 1e-9))}


def _table_attrs(args, kwargs, result):
    return {"rows": len(args[2]), "bytes": os.path.getsize(args[0])}


def _manifest_attrs(args, kwargs, result):
    return {"rows": 0, "bytes": os.path.getsize(result)}


def _suite_attrs(args, kwargs, result):
    return {
        "instances": kwargs["samples"] * len(result),
        "failed": sum(not check.passed for check in result),
    }


def patches(tracer, cli, correlations, suites) -> list:
    """The ``(module, attribute, wrapper)`` triples for one traced job."""
    span, aggregate = tracer.span, tracer.aggregate
    points = [
        (correlations, "handedness_signs",
         span("protocol.handedness_signs", correlations.handedness_signs, _stream_attrs)),
        (suites, "handedness_signs",
         span("protocol.handedness_signs", suites.handedness_signs, _stream_attrs)),
        (cli, "joint_expectation", span("correlations.joint_expectation", cli.joint_expectation)),
        (cli, "chsh_maximize", span("correlations.chsh_maximize", cli.chsh_maximize, _grid_attrs)),
        (cli, "quantum_reference", aggregate("correlations.quantum_reference", cli.quantum_reference)),
        (cli, "write_table", span("tables.write_table", cli.write_table, _table_attrs)),
        (cli, "write_manifest", span("tables.write_manifest", cli.write_manifest, _manifest_attrs)),
        (cli, "SUITES", {name: span(f"suites.{name}", suite, _suite_attrs)
                         for name, suite in cli.SUITES.items()}),
    ]
    for layer, names in (("algebra", _ALGEBRA_PRODUCTS + _ALGEBRA_OTHER),
                         ("topology", _TOPOLOGY), ("protocol", _PROTOCOL_SCALAR)):
        points += [(suites, n, aggregate(f"{layer}.{n}", getattr(suites, n))) for n in names]
    return points


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 where the layer did no work on this job."""
    return num / den if den > 0 else 0.0


def job_metrics(spans, aggregates) -> dict:
    """Per-layer metrics of one traced job, from its spans and aggregates."""
    own, overlap = self_times(spans, aggregates)
    layers = layer_self_times(spans, aggregates)
    (root,) = [s for s in spans if s.parent is None]
    named = lambda name: [s for s in spans if s.name == name]  # noqa: E731

    streams = named("protocol.handedness_signs")
    estimates = named("correlations.joint_expectation")
    estimate_ids = {s.id for s in estimates}
    sums = [s for s in streams if s.parent in estimate_ids]
    searches = named("correlations.chsh_maximize")
    search_ids = {s.id for s in searches}
    grid_calls = [a for a in aggregates
                  if a.name == "correlations.quantum_reference" and a.parent in search_ids]
    products = [a for a in aggregates if a.name in {f"algebra.{n}" for n in _ALGEBRA_PRODUCTS}]
    algebra = [a for a in aggregates if a.layer == "algebra"]
    topology = [a for a in aggregates if a.layer == "topology"]
    suite_spans = [s for s in spans if s.layer == "suites"]
    tables = [s for s in spans if s.layer == "tables"]

    signs = sum(s.attrs["count"] for s in streams)
    stream_busy = sum(s.duration for s in streams)
    estimate_busy = sum(s.duration for s in estimates)
    product_calls = sum(a.count for a in products)
    return {
        "protocol.stream_calls": len(streams),
        "protocol.signs": signs,
        "protocol.stream_busy_s": stream_busy,
        "protocol.signs_per_s": _ratio(signs, stream_busy),
        "correlations.estimate_calls": len(estimates),
        "correlations.estimate_busy_s": estimate_busy,
        "correlations.reduce_self_s": sum(own[s.id] for s in estimates),
        "correlations.shard_parallelism": _ratio(sum(s.duration for s in sums), estimate_busy),
        "correlations.sign_sum_useful_ratio": _ratio(
            len({(s.attrs["seed"], s.attrs["count"], s.attrs["start"]) for s in sums}), len(sums)),
        "correlations.chsh_grid_points": sum(s.attrs["grid_points"] for s in searches),
        "correlations.chsh_correlation_calls": sum(a.count for a in grid_calls),
        "correlations.chsh_matrix_s": sum(a.busy for a in grid_calls),
        "correlations.chsh_search_s": sum(own[s.id] for s in searches),
        "algebra.product_calls": product_calls,
        "algebra.busy_s": sum(a.busy for a in algebra),
        "algebra.products_per_s": _ratio(product_calls, sum(a.busy for a in products)),
        "topology.calls": sum(a.count for a in topology),
        "topology.busy_s": sum(a.busy for a in topology),
        "suites.instances": sum(s.attrs["instances"] for s in suite_spans),
        "suites.checks_failed": sum(s.attrs["failed"] for s in suite_spans),
        "tables.rows_written": sum(s.attrs["rows"] for s in tables),
        "tables.bytes_written": sum(s.attrs["bytes"] for s in tables),
        "tables.write_s": sum(s.duration for s in tables),
        **{f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS},
        "tracing.job_wall_s": root.duration,
        "tracing.self_sum_s": sum(layers.values()),
        "tracing.parallel_overlap_s": overlap,
    }


def median_metrics(per_job: list) -> dict:
    """Median over jobs of each per-layer metric."""
    return {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
