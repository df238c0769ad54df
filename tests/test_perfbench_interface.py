"""The package names that the benchmark's layer tracer wraps must exist.

``perfbench/layers.py`` looks up functions and methods of the package by
name; a rename in the package would crash every traced benchmark run, so
these tests read the tracer's tables (without changing them) and check
that they still resolve, and that tracing can be installed and removed.
"""

import importlib.util
from pathlib import Path

import pytest

from _oracles import constant_field
from orientedcp import critfind, harris
from orientedcp.lattice import BoxSpec
from orientedcp.weights import WeightDistribution

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings(layers):
    """Every module attribute and traced class attribute, by identity."""
    out = {(mod.__name__, k): v for mod in layers.MODULES for k, v in vars(mod).items()}
    for cls, attr, _ in layers.METHODS:
        out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return out


def test_traced_functions_resolve(layers):
    for mod, names in layers.FUNCTIONS.items():
        for name in names:
            assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"


def test_lattice_tables_keep_their_caches(layers):
    # clear_tables and table_builds call these on the traced names
    for table in layers.LATTICE_TABLES:
        assert callable(getattr(table, "cache_clear", None)), table.__name__
        assert callable(getattr(table, "cache_info", None)), table.__name__


def test_traced_methods_are_own_class_attributes(layers):
    for cls, attr, _ in layers.METHODS:
        assert attr in cls.__dict__, f"{cls.__qualname__}.{attr}"


def test_install_then_uninstall_restores_every_original(layers):
    before = _bindings(layers)
    tracer = layers.Tracer()
    tracer.install(0)
    try:
        assert harris.build is not before[("orientedcp.harris", "build")]
        box = BoxSpec(2, 4)
        rep = harris.build(box, constant_field(1.0, box), 0.8, 2.0, seed=1)
        rep.event_arrays()
        assert tracer.counts["harris.events"] == rep.n_events() > 0
    finally:
        tracer.uninstall()
    after = _bindings(layers)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_replicate_loops_reach_the_traced_layers(layers):
    # the tracer rebinds module globals, so a replicate loop that held the
    # layer functions in a default argument or a captured local would leave
    # their per-layer metrics at 0 without any error
    dist = WeightDistribution.two_point(0.7)
    calls = (
        (lambda: critfind.survival_probability(dist, 2, 4, 0.8, 2.0, reps=3, seed=1),
         "kinetics.run"),
        (lambda: harris.duality_sweep(dist, BoxSpec(2, 4), 0.8, 2.0, reps=3, seed=1),
         "harris.build"),
    )
    for call, layer in calls:
        tracer = layers.Tracer()
        tracer.install(0)
        try:
            call()
        finally:
            tracer.uninstall()
        names = [span[3] for span in tracer.spans]
        assert names.count("weights.sample_field") == 3
        assert names.count(layer) == 3, layer
