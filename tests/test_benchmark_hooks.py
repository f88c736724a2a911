"""The benchmark's traced run can still find every name it wraps."""

from pathlib import Path

import threesphere
from threesphere import cli, correlations, suites

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
