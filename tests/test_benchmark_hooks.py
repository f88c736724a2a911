"""The benchmark's traced run can still find every name it wraps."""

import math
from collections import Counter
from pathlib import Path

import pytest

import threesphere
from threesphere import algebra, cli, correlations, protocol, suites, topology
from threesphere.tables import read_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TSIRELSON = 2.0 * math.sqrt(2.0)


class PassThrough:
    """Tracer stub: every wrapper is the wrapped function itself."""

    def span(self, name, func, attrs=None):
        return func

    def aggregate(self, name, func):
        return func


def test_every_wrap_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument

    assert instrument.patches(PassThrough(), cli, correlations, suites)


def test_every_public_name_resolves():
    for name in threesphere.__all__:
        assert hasattr(threesphere, name), name


def test_package_names_come_from_disjoint_layer_lists():
    layers = [algebra, topology, protocol, correlations]
    names = [name for layer in layers for name in layer.__all__]
    assert len(names) == len(set(names)), "a name is declared by two layers"
    assert threesphere.__all__ == ["__version__", *names]
    assert len(threesphere.__all__) == len(set(threesphere.__all__))
    for layer in layers:
        for name in layer.__all__:
            assert getattr(threesphere, name) is getattr(layer, name), name


@pytest.mark.parametrize("source", [("--analytic",)])
def test_traced_grid_search_runs_with_real_wrappers(monkeypatch, tmp_path, source):
    """The tracer's wrappers, around ``cli.quantum_reference`` too, pass radian arrays through."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument
    import spans

    out = tmp_path / "chsh.csv"
    tracer = spans.Tracer()
    with spans.patched(instrument.patches(tracer, cli, correlations, suites)):
        with tracer.job(0):
            code = cli.main(["chsh", "--maximize", "--step-deg", "22.5", *source, "--out", str(out)])
    assert code == 0
    (row,) = read_table(out)
    assert abs(row["chsh_value"] - TSIRELSON) <= 1e-12
    (job_spans, aggregates), = tracer.by_job().values()
    metrics = instrument.job_metrics(job_spans, aggregates)
    assert metrics["correlations.chsh_grid_points"] == 8
    # One array call of the quantum reference fills the grid.
    assert metrics["correlations.chsh_correlation_calls"] == 1


def test_traced_verify_counts_every_instance_and_one_protocol_pipeline_per_block(
    monkeypatch, capsys
):
    """Each protocol block draws its outcomes once and every check reads them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument
    import spans

    calls = Counter()

    def counting(name):
        kernel = getattr(suites, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    pipeline = ("alice_outcome", "bob_outcome", "oriented_even_product", "joint_product_closed_form",
                "handedness_signs")
    for name in pipeline:
        monkeypatch.setattr(suites, name, counting(name))
    samples = 2 * suites.BLOCK
    tracer = spans.Tracer()
    with spans.patched(instrument.patches(tracer, cli, correlations, suites)):
        with tracer.job(0):
            code = cli.main(["verify", "all", "--samples", str(samples)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: all properties hold"
    (job_spans, aggregates), = tracer.by_job().values()
    metrics = instrument.job_metrics(job_spans, aggregates)
    assert metrics["suites.instances"] == 19 * samples
    assert metrics["suites.checks_failed"] == 0
    # Two blocks; the half-turn check is the only second alice_outcome call, and
    # the stream check reads each block's signs twice.
    assert calls == {"alice_outcome": 4, "bob_outcome": 2, "oriented_even_product": 2,
                     "joint_product_closed_form": 2, "handedness_signs": 4}
