"""Tests of the benchmark itself: inputs, pinned outputs and tracing."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from shardsim.harness import ScenarioConfig  # noqa: E402

from perfbench import bench, golden, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def _patch_surface() -> dict:
    """Every binding the tracer or the height clock may replace."""
    from shardsim import adversary, crypto, harness

    surface = {}
    for name, mod in sys.modules.items():
        if name == "shardsim" or name.startswith("shardsim."):
            for attr, value in vars(mod).items():
                surface[(name, attr)] = value
    classes = [crypto.Prg, harness.EventLog, harness.Metrics, harness.Simulation]
    classes += [
        cls
        for cls in vars(adversary).values()
        if isinstance(cls, type) and issubclass(cls, adversary.Strategy)
    ]
    for cls in classes:
        for attr, value in vars(cls).items():
            surface[(cls.__qualname__, attr)] = value
    return surface


def _small_corpus() -> bench.Workload:
    wl = bench.Workload("corpus", workloads.DEFAULT_SEED)
    wl.configs = wl.configs[:1]
    return wl


def test_tracer_rebinds_are_undone():
    before = _patch_surface()
    tracer = Tracer()
    with tracer:
        during = _patch_surface()
        _small_corpus().run_pass(tracer=tracer)
    assert _patch_surface() == before
    changed = {key for key in before if during.get(key) is not before[key]}
    assert ("shardsim.harness", "route") in changed
    assert ("shardsim.overlay", "route") in changed
    assert ("Prg", "draw") in changed
    assert tracer.totals()["harness.run"]["calls"] == 1


def test_step_clock_is_undone():
    before = _patch_surface()
    res = _small_corpus().run_pass()
    assert _patch_surface() == before
    assert len(res.steps_s) == 30
    assert 0 < sum(res.steps_s) < res.run_s


def test_traced_run_reproduces_pinned_outputs():
    wl = _small_corpus()
    tracer = Tracer()
    with tracer:
        res = wl.run_pass(tracer=tracer)
    name = wl.configs[0].name
    assert res.outputs[name] == golden.PINNED["corpus"][name]
    assert all(ok for _, ok in res.checks)
    assert tracer.counts["crypto.tagged_hash"] > 0


def test_traced_monte_carlo_reproduces_pinned_estimate():
    wl = bench.Workload("montecarlo", workloads.DEFAULT_SEED)
    wl.cases = [case for case in wl.cases if case.kind == "core"][:1]
    tracer = Tracer()
    with tracer:
        res = wl.run_pass(tracer=tracer)
    key = wl.cases[0].key
    assert res.outputs[key] == golden.PINNED["montecarlo"][key]
    assert all(ok for _, ok in res.checks)


def test_workload_builders_are_deterministic():
    for seed in (0, 1, 12345):
        for build in workloads.SCENARIO_BUILDERS.values():
            assert build(seed) == build(seed)
        assert workloads.montecarlo_cases(seed) == workloads.montecarlo_cases(seed)
    assert workloads.corpus_mappings(1) != workloads.corpus_mappings(2)
    assert workloads.wide_mappings(1) != workloads.wide_mappings(2)
    assert workloads.montecarlo_cases(1) != workloads.montecarlo_cases(2)


def test_default_seed_reproduces_acceptance_corpus():
    spec = importlib.util.spec_from_file_location(
        "acceptance_corpus", ROOT / "tests" / "test_acceptance.py"
    )
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    suite = acceptance._suite_configs()

    mappings = workloads.corpus_mappings(workloads.DEFAULT_SEED)
    assert len(mappings) == 18
    picked = suite[:: workloads.CORPUS_STRIDE]
    assert [ScenarioConfig.from_mapping(m) for m in mappings] == picked
    assert {cfg.adversary_strategy for cfg in picked} == set(workloads.STRATEGIES)


def test_every_workload_has_pins():
    assert set(golden.PINNED) == set(workloads.WORKLOADS)
    for name in workloads.SCENARIO_WORKLOADS:
        wl = bench.Workload(name, workloads.DEFAULT_SEED)
        assert {cfg.name for cfg in wl.configs} == set(golden.PINNED[name])
    keys = {case.key for case in workloads.montecarlo_cases(workloads.DEFAULT_SEED)}
    assert keys == set(golden.PINNED["montecarlo"])
