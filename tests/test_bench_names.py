"""The benchmark's tracer wraps limitlab's public names from outside the
package; installing and uninstalling it here catches a renamed or deleted
name in the tier-1 suite rather than only in the slow bench smoke test."""

import importlib.util
from pathlib import Path

from limitlab import adversaries, catalog, harness

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_bindings():
    original = catalog.canonical_fragment
    registries = (harness.LEARNERS, harness.GAMMAS)
    builders = [dict(registry) for registry in registries]
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert catalog.canonical_fragment is not original
        assert adversaries.canonical_fragment is not original
        # the registries' values, classes or compositions, are rebound
        for registry, before in zip(registries, builders):
            assert registry.keys() == before.keys()
            assert all(registry[n] is not before[n] for n in before)
    finally:
        tracer.uninstall()
    assert catalog.canonical_fragment is original
    assert adversaries.canonical_fragment is original
    assert [dict(registry) for registry in registries] == builders
