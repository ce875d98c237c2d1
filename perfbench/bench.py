"""Workload passes, timing and metric reduction.

A *pass* runs a workload's fixed inputs once.  An untraced run repeats
passes until the next one would end past ``--seconds``, so a workload
whose pass is longer than ``--seconds`` still runs one whole pass; the
end-to-end metrics are medians over passes, steps and set-ups.

A *step* is one simulated height on scenario workloads, delimited by the
calls to ``Metrics.record_height`` (one per height).  On ``montecarlo`` a
step is a whole pass: its calls differ in cost by an order of magnitude,
so a median over them would sit on the boundary between two kinds of call.

Every measured interval is reported in *reference seconds*: its wall time
scaled by ``REFERENCE_S`` over the time of a fixed pure-Python loop run
right before and right after it.  On a shared host the speed of the same
code can swing by a third within seconds as other tenants load the cores;
the loop slows down with the host, so scaling removes the part of that
swing the loop also sees.  Raw wall times are printed alongside.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import checks, golden, micro, workloads
from .trace import Tracer

SETUP_REPEATS = {"corpus": 3, "wide": 5, "txheavy": 5, "montecarlo": 25}

# Median time of one ``_reference_loop`` on the machine the benchmark was
# defined on (2-vCPU Intel Xeon, CPython 3.11.7): reference seconds equal
# wall seconds there when it runs at its usual speed.
REFERENCE_S = 7.5e-4


def _reference_loop() -> int:
    table: dict[int, int] = {}
    pairs = []
    for i in range(2000):
        key = i & 511
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    return len(table) + len(pairs)


def gauge() -> float:
    """Current duration of the reference loop: median of three, with the
    collector off so the program's heap cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` seconds in reference seconds, from the gauge readings
    taken next to the interval."""
    return wall * 2.0 * REFERENCE_S / (before + after)


class Interval:
    """Times one interval in wall and reference seconds."""

    def __enter__(self):
        self._before = gauge()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        self.ref = scaled(self.wall, self._before, gauge())
        return False


class StepClock:
    """Patches ``Metrics.record_height`` to mark step boundaries; each
    boundary reads the gauge outside the steps it delimits."""

    def __init__(self):
        self.steps: list[float] = []  # reference seconds
        self.wall = 0.0

    def mark(self):
        now = time.perf_counter()
        reading = gauge()
        self.wall += now - self._t
        self.steps.append(scaled(now - self._t, self._reading, reading))
        self._reading = reading
        self._t = time.perf_counter()

    def __enter__(self):
        from shardsim.harness import Metrics

        self._original = Metrics.__dict__["record_height"]
        original, mark = self._original, self.mark

        def record_height(metrics, **fields):
            mark()
            return original(metrics, **fields)

        Metrics.record_height = record_height
        self._reading = gauge()
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc):
        from shardsim.harness import Metrics

        Metrics.record_height = self._original
        return False


@dataclass
class PassResult:
    run_s: float = 0.0  # reference seconds in the timed calls
    setup_s: float = 0.0
    wall_s: float = 0.0  # wall seconds of the same intervals
    steps_s: list = field(default_factory=list)  # reference seconds
    checks: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # name -> comparable output
    heights: int = 0
    blocks: int = 0
    installs: int = 0
    serialize_s: float = 0.0
    mc_s: dict = field(default_factory=dict)  # kind -> reference seconds


# -- workload inputs ----------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int):
        if name not in workloads.WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.pinned = golden.PINNED.get(name) if seed == workloads.DEFAULT_SEED else None
        if name == "montecarlo":
            self.cases = workloads.montecarlo_cases(seed)
            self.configs = []
        else:
            from shardsim.harness import ScenarioConfig

            mappings = workloads.SCENARIO_BUILDERS[name](seed)
            self.configs = [ScenarioConfig.from_mapping(m) for m in mappings]
            self.cases = []
        self.references: dict = {}

    @property
    def is_scenario(self) -> bool:
        return bool(self.configs)

    # -- set-up -------------------------------------------------------------

    def setup_only(self) -> float:
        """One set-up of every scenario (or of the Monte Carlo reference
        probabilities), discarding what it builds; reference seconds."""
        if not self.is_scenario:
            return self._mc_references()
        from shardsim.harness import Simulation

        total = 0.0
        for cfg in self.configs:
            gc.collect()
            with Interval() as iv:
                sim = Simulation(cfg)
            total += iv.ref
            del sim
        return total

    def _mc_references(self) -> float:
        """Exact probabilities the Monte Carlo checks compare against."""
        from shardsim.analysis import exact_core_tail, exact_single_shard_tail

        refs = {}
        with Interval() as iv:
            for case in self.cases:
                if case.kind == "core":
                    s, m, s_min, mu_core, _trials = case.args
                    refs[case.key] = float(exact_core_tail(s, m, s_min, mu_core))
                elif case.kind == "assign":
                    n, k, size, cred_frac, mu_shard, _trials = case.args
                    threshold = math.ceil(Fraction(mu_shard) * size)
                    per_shard = exact_single_shard_tail(threshold, size, n, cred_frac)
                    refs[case.key] = (per_shard, min(1.0, k * per_shard))
        self.references = refs
        return iv.ref

    # -- passes ---------------------------------------------------------------

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        if self.is_scenario:
            return self._scenario_pass(tracer)
        return self._mc_pass(tracer)

    def _scenario_pass(self, tracer) -> PassResult:
        from shardsim.harness import Simulation

        res = PassResult()
        for run_id, cfg in enumerate(self.configs):
            gc.collect()
            if tracer is not None:
                tracer.run_id = run_id
                with Interval() as setup, tracer.span("harness.setup"):
                    sim = Simulation(cfg)
            else:
                with Interval() as setup:
                    sim = Simulation(cfg)
            if tracer is not None:
                # No step marks: their gauge readings would count as
                # harness self time.
                with Interval() as run:
                    metrics, events = sim.run()
                run_s, run_wall = run.ref, run.wall
            else:
                with StepClock() as clock:
                    metrics, events = sim.run()
                    clock.mark()  # the last height's renewals and the verdicts
                run_s, run_wall = sum(clock.steps), clock.wall
                res.steps_s += clock.steps[:-1]
            res.setup_s += setup.ref
            res.run_s += run_s
            res.wall_s += setup.wall + run_wall
            del sim

            t0 = time.perf_counter()
            events.to_jsonl()
            metrics.to_json()
            events_digest = events.digest()
            metrics_digest = metrics.digest()
            res.serialize_s += time.perf_counter() - t0

            res.heights += len(metrics.rows)
            res.blocks += metrics.summary["blocks"]
            res.installs += sum(1 for rec in events if rec["kind"] == "view-installed")
            pinned = self.pinned.get(cfg.name) if self.pinned is not None else None
            res.checks += checks.scenario_checks(
                cfg.name, metrics, events_digest, metrics_digest, pinned
            )
            res.outputs[cfg.name] = {
                "events": events_digest,
                "metrics": metrics_digest,
                "summary": checks.pinned_summary(metrics.summary),
            }
        return res

    def _mc_pass(self, tracer) -> PassResult:
        from shardsim.analysis import (
            compare_grind_passive,
            monte_carlo_assignment,
            monte_carlo_core,
        )

        if not self.references:
            self._mc_references()
        res = PassResult()
        for run_id, case in enumerate(self.cases):
            if tracer is not None:
                tracer.run_id = run_id
            gc.collect()
            draws_before = tracer.counts.get("crypto.Prg.draw", 0) if tracer else 0
            with Interval() as call:
                if case.kind == "core":
                    result = monte_carlo_core(*case.args, case.seed, workers=1)
                elif case.kind == "assign":
                    result = monte_carlo_assignment(*case.args, case.seed, workers=1)
                else:
                    result = compare_grind_passive(*case.args, case.seed)
            if tracer is not None and case.kind == "core":
                draws = tracer.counts.get("crypto.Prg.draw", 0) - draws_before
                tracer.add("analysis.mc_core.draws", draws)
            res.run_s += call.ref
            res.wall_s += call.wall
            res.mc_s[case.kind] = res.mc_s.get(case.kind, 0.0) + call.ref
            pinned = self.pinned.get(case.key) if self.pinned is not None else None
            res.checks += checks.mc_checks(
                case, result, self.references.get(case.key), len(self.cases), pinned
            )
            if case.kind == "grind":
                res.outputs[case.key] = [list(result.grind_counts), list(result.passive_counts)]
            else:
                res.outputs[case.key] = result
        res.steps_s.append(res.run_s)
        return res

    def mc_units(self) -> dict:
        """Trials (core, assign) or epochs (grind) per pass, by kind."""
        units: dict = {}
        for case in self.cases:
            n = case.args[-1]
            units[case.kind] = units.get(case.kind, 0) + n
        return units


# -- runs ------------------------------------------------------------------------


@dataclass
class RunReport:
    metrics: dict
    attempted: int
    failed: int
    failures: list
    info: list


def _report(metrics: dict, passes: list, info: list) -> RunReport:
    all_checks = [c for p in passes for c in p.checks] + _determinism_checks(passes)
    failures = [name for name, ok in all_checks if not ok]
    return RunReport(metrics, len(all_checks), len(failures), failures, info)


def _determinism_checks(passes: list) -> list:
    first = passes[0].outputs
    return [
        (f"replay:{key}:pass{i}", p.outputs.get(key) == value)
        for i, p in enumerate(passes[1:], start=1)
        for key, value in first.items()
    ]


def timed_run(wl: Workload, seconds: float) -> RunReport:
    """Untraced run: end-to-end metrics."""
    start = time.perf_counter()
    passes: list[PassResult] = []
    while True:
        passes.append(wl.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    setups = [p.setup_s for p in passes] if wl.is_scenario else []
    while len(setups) < SETUP_REPEATS[wl.name]:
        setups.append(wl.setup_only())

    steps = [s for p in passes for s in p.steps_s]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(p.run_s for p in passes), "s"),
        "step_ms_p50": (1e3 * statistics.median(steps), "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    info = [
        f"workload={wl.name} seed={wl.seed} passes={len(passes)} steps={len(steps)} "
        f"setup_samples={len(setups)} pass_wall_s={[round(p.wall_s, 3) for p in passes]} "
        f"run_wall_s={time.perf_counter() - start:.3f}",
    ]
    return _report(metrics, passes, info)


def traced_run(wl: Workload, trace_dir: Path) -> RunReport:
    """One untraced pass for reference, then one traced pass; per-layer
    metrics.  Micro-benchmarks run before either, with tracing off."""
    micro_ns = micro.run_all(wl.seed)

    plain = wl.run_pass()

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        traced = wl.run_pass(tracer=tracer)
    traced_wall = time.perf_counter() - t0

    totals = tracer.totals()
    counts = tracer.counts
    sums = tracer.sums

    def calls(name):
        if name in totals:
            return totals[name]["calls"]
        return counts.get(name, 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return totals.get(name, {}).get("s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    blocks, installs = traced.blocks, traced.installs
    units = wl.mc_units() if not wl.is_scenario else {}
    core_trials = units.get("core", 0)
    core_draws = sums.get("analysis.mc_core.draws", 0)
    untraced_pass = plain.run_s + plain.setup_s
    traced_pass = traced.run_s + traced.setup_s

    m = {}
    m["crypto.tagged_hash.calls"] = (calls("crypto.tagged_hash"), "count")
    m["crypto.tagged_hash.ns_per_call"] = (micro_ns["tagged_hash"], "ns")
    m["crypto.Prg.draw.calls"] = (calls("crypto.Prg.draw"), "count")
    m["crypto.Prg.draw.ns_per_call"] = (micro_ns["Prg.draw"], "ns")
    for fn in ("sign", "verify_sig", "vrf_eval", "keygen"):
        m[f"crypto.{fn}.calls"] = (calls(f"crypto.{fn}"), "count")

    m["sampling.sample_without_replacement.calls"] = (calls("sampling.sample_without_replacement"), "count")
    m["sampling.sample_without_replacement.items_drawn"] = (
        sums.get("sampling.sample_without_replacement.items_drawn", 0),
        "count",
    )
    m["sampling.sample_without_replacement.self_s"] = (self_s("sampling.sample_without_replacement"), "s")

    for fn in ("derive_credential", "verify_credential"):
        m[f"credentials.{fn}.calls"] = (calls(f"credentials.{fn}"), "count")
        m[f"credentials.{fn}.self_s"] = (self_s(f"credentials.{fn}"), "s")

    m["ledger.apply_transaction.calls"] = (calls("ledger.apply_transaction"), "count")
    m["ledger.apply_transaction.self_s"] = (self_s("ledger.apply_transaction"), "s")
    m["ledger.apply_transaction.entries_copied"] = (
        sums.get("ledger.apply_transaction.entries_copied", 0),
        "count",
    )
    m["ledger.validate_block.calls"] = (calls("ledger.validate_block"), "count")
    m["ledger.validate_block.self_s"] = (self_s("ledger.validate_block"), "s")
    m["ledger.validate_block.per_block"] = (ratio(calls("ledger.validate_block"), blocks), "1/block")
    m["ledger.header_hash.calls"] = (calls("ledger.header_hash"), "count")
    m["ledger.header_hash.per_block"] = (ratio(calls("ledger.header_hash"), blocks), "1/block")
    m["ledger.validate_block.ns_per_call"] = (micro_ns["validate_block"], "ns")
    m["ledger.apply_block.ns_per_call"] = (micro_ns["apply_block"], "ns")

    m["overlay.route.calls"] = (calls("overlay.route"), "count")
    m["overlay.route.self_s"] = (self_s("overlay.route"), "s")
    m["overlay.route.labels_scanned"] = (
        ratio(sums.get("overlay.route.labels_scanned", 0), calls("overlay.route")),
        "labels",
    )
    m["overlay.route.ns_per_call"] = (micro_ns["route"], "ns")
    m["overlay.label_matches.calls"] = (calls("overlay.label_matches"), "count")
    m["overlay.verify_view_transition.calls"] = (calls("overlay.verify_view_transition"), "count")
    m["overlay.verify_view_transition.self_s"] = (self_s("overlay.verify_view_transition"), "s")
    for fn in ("maybe_split", "maybe_merge", "check_prefix_free_cover"):
        m[f"overlay.{fn}.self_s"] = (self_s(f"overlay.{fn}"), "s")

    for fn in ("update_view", "view_digest"):
        m[f"membership.{fn}.calls"] = (calls(f"membership.{fn}"), "count")
        m[f"membership.{fn}.self_s"] = (self_s(f"membership.{fn}"), "s")
        m[f"membership.{fn}.per_install"] = (ratio(calls(f"membership.{fn}"), installs), "1/install")
    m["membership.view_digest.ns_per_call"] = (micro_ns["view_digest"], "ns")
    for fn in ("install_and_diffuse", "form_view"):
        m[f"membership.{fn}.calls"] = (calls(f"membership.{fn}"), "count")
        m[f"membership.{fn}.self_s"] = (self_s(f"membership.{fn}"), "s")

    m["protocols.vector_consensus.calls"] = (calls("protocols.vector_consensus"), "count")
    m["protocols.vector_consensus.self_s"] = (self_s("protocols.vector_consensus"), "s")
    m["protocols.random_beacon.calls"] = (calls("protocols.random_beacon"), "count")
    m["protocols.verifiable_ba.calls"] = (calls("protocols.verifiable_ba"), "count")
    m["protocols.verifiable_ba.self_s"] = (self_s("protocols.verifiable_ba"), "s")
    m["protocols.verifiable_ba.rounds"] = (
        ratio(sums.get("protocols.verifiable_ba.rounds", 0), calls("protocols.verifiable_ba")),
        "rounds",
    )

    for fn in ("build_proposal", "shard_sign_block"):
        m[f"blocks.{fn}.calls"] = (calls(f"blocks.{fn}"), "count")
        m[f"blocks.{fn}.self_s"] = (self_s(f"blocks.{fn}"), "s")
    m["blocks.elect_committee.calls"] = (calls("blocks.elect_committee"), "count")

    m["adversary.activate_due.self_s"] = (self_s("adversary.activate_due"), "s")
    m["adversary.schedule_corruption.calls"] = (calls("adversary.schedule_corruption"), "count")
    m["adversary.strategy.self_s"] = (self_s("adversary.strategy"), "s")
    m["adversary.beacon_choice.calls"] = (calls("adversary.beacon_choice"), "count")

    for fn in ("monte_carlo_core", "monte_carlo_assignment", "compare_grind_passive"):
        m[f"analysis.{fn}.s"] = (total_s(f"analysis.{fn}"), "s")
    m["analysis.mc_core.draws_per_trial"] = (ratio(core_draws, core_trials), "1/trial")
    m["analysis.mc_core.trials_per_s"] = (ratio(core_trials, plain.mc_s.get("core", 0.0)), "1/s")
    m["analysis.mc_assign.trials_per_s"] = (ratio(units.get("assign", 0), plain.mc_s.get("assign", 0.0)), "1/s")
    m["analysis.mc_grind.epochs_per_s"] = (ratio(units.get("grind", 0), plain.mc_s.get("grind", 0.0)), "1/s")

    m["harness.setup.s"] = (total_s("harness.setup"), "s")
    m["harness.run.s"] = (total_s("harness.run"), "s")
    m["harness.self_s"] = (self_s("harness.run"), "s")
    m["harness.check_safety.self_s"] = (self_s("harness.check_safety"), "s")
    m["harness.EventLog.emit.calls"] = (calls("harness.EventLog.emit"), "count")
    m["harness.serialize_s"] = (traced.serialize_s, "s")
    m["harness.heights_per_s"] = (ratio(plain.heights, plain.run_s), "1/s")
    m["harness.height_ms_p90"] = (
        1e3 * statistics.quantiles(plain.steps_s, n=10)[-1] if wl.is_scenario else 0.0,
        "ms",
    )
    m["trace.overhead_ratio"] = (ratio(traced_pass, untraced_pass), "ratio")

    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(trace_dir / f"trace-{wl.name}-seed{wl.seed}.npz")

    info = [
        f"workload={wl.name} seed={wl.seed} traced spans={len(tracer.span_start)} "
        f"untraced_pass_s={untraced_pass:.3f} traced_pass_s={traced_pass:.3f} "
        f"traced_wall_s={traced_wall:.3f} heights={plain.heights} steps={len(plain.steps_s)}",
    ]
    return _report(m, [plain, traced], info)
