"""Span and call-count tracing of ``shardsim``, installed from outside.

``Tracer.install`` rebinds the traced public functions in every
``shardsim`` module namespace that holds them (``harness`` imports by name,
so patching the defining module alone would miss its calls) and patches
``Prg.draw``, ``EventLog.emit``, ``Simulation.run`` and the ``Strategy``
hooks on their classes.  ``uninstall`` puts every original back.

Spans are kept in flat arrays (name, start, end, parent, run id) and
reduced to per-name totals and self times when the run ends.  The hot
primitives are only counted: a span around each would cost more than the
call itself.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function, span name or None for count-only)
FUNCTIONS = (
    ("crypto", "tagged_hash", None),
    ("crypto", "sign", None),
    ("crypto", "verify_sig", None),
    ("crypto", "vrf_eval", None),
    ("crypto", "keygen", None),
    ("sampling", "sample_without_replacement", "sampling.sample_without_replacement"),
    ("credentials", "derive_credential", "credentials.derive_credential"),
    ("credentials", "verify_credential", "credentials.verify_credential"),
    ("ledger", "apply_transaction", "ledger.apply_transaction"),
    ("ledger", "apply_block", "ledger.apply_block"),
    ("ledger", "validate_block", "ledger.validate_block"),
    ("ledger", "header_hash", None),
    ("overlay", "route", "overlay.route"),
    ("overlay", "label_matches", None),
    ("overlay", "verify_view_transition", "overlay.verify_view_transition"),
    ("overlay", "maybe_split", "overlay.maybe_split"),
    ("overlay", "maybe_merge", "overlay.maybe_merge"),
    ("overlay", "check_prefix_free_cover", "overlay.check_prefix_free_cover"),
    ("membership", "update_view", "membership.update_view"),
    ("membership", "view_digest", "membership.view_digest"),
    ("membership", "install_and_diffuse", "membership.install_and_diffuse"),
    ("membership", "form_view", "membership.form_view"),
    ("protocols", "vector_consensus", "protocols.vector_consensus"),
    ("protocols", "random_beacon", None),
    ("protocols", "verifiable_ba", "protocols.verifiable_ba"),
    ("blocks", "build_proposal", "blocks.build_proposal"),
    ("blocks", "shard_sign_block", "blocks.shard_sign_block"),
    ("blocks", "elect_committee", None),
    ("adversary", "activate_due", "adversary.activate_due"),
    ("adversary", "schedule_corruption", None),
    ("analysis", "monte_carlo_core", "analysis.monte_carlo_core"),
    ("analysis", "monte_carlo_assignment", "analysis.monte_carlo_assignment"),
    ("analysis", "compare_grind_passive", "analysis.compare_grind_passive"),
    ("harness", "check_safety", "harness.check_safety"),
)

STRATEGY_HOOKS = (
    "vector_decision",
    "beacon_choice",
    "signs",
    "buffers_joins",
    "ba_decision",
    "equivocate_blocks",
    "issue_transactions",
)


def _shardsim_namespaces():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "shardsim" or name.startswith("shardsim."))
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self._stack: list[int] = []
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, self._name_id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: float):
        self.sums[name] = self.sums.get(name, 0.0) + amount

    # -- wrappers ----------------------------------------------------------

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name: str, after=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_hooks(self):
        def route(args, kwargs, result):
            for pos, label in enumerate(args[0]):
                if label == result:
                    self.add("overlay.route.labels_scanned", pos + 1)
                    return

        def apply_transaction(args, kwargs, result):
            self.add("ledger.apply_transaction.entries_copied", len(args[0]))

        def sample(args, kwargs, result):
            self.add("sampling.sample_without_replacement.items_drawn", len(result))

        def verifiable_ba(args, kwargs, result):
            self.add("protocols.verifiable_ba.rounds", result.rounds)

        return {
            "overlay.route": route,
            "ledger.apply_transaction": apply_transaction,
            "sampling.sample_without_replacement": sample,
            "protocols.verifiable_ba": verifiable_ba,
        }

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        import shardsim.adversary as adversary
        import shardsim.crypto as crypto
        import shardsim.harness as harness

        namespaces = _shardsim_namespaces()
        after = self._after_hooks()
        for module, fname, span in FUNCTIONS:
            original = getattr(sys.modules[f"shardsim.{module}"], fname)
            if span is None:
                wrapped = self._counted(original, f"{module}.{fname}")
            else:
                wrapped = self._spanned(original, span, after.get(span))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, attr, wrapped)

        self._set(crypto.Prg, "draw", self._counted(crypto.Prg.__dict__["draw"], "crypto.Prg.draw"))
        self._set(
            harness.EventLog,
            "emit",
            self._counted(harness.EventLog.__dict__["emit"], "harness.EventLog.emit"),
        )
        self._set(
            harness.Simulation,
            "run",
            self._spanned(harness.Simulation.__dict__["run"], "harness.run"),
        )
        strategy_classes = [
            cls
            for cls in vars(adversary).values()
            if isinstance(cls, type) and issubclass(cls, adversary.Strategy)
        ]
        for cls in strategy_classes:
            for hook in STRATEGY_HOOKS:
                if hook not in cls.__dict__:
                    continue
                method = self._spanned(cls.__dict__[hook], "adversary.strategy")
                if hook == "beacon_choice":
                    method = self._counted(method, "adversary.beacon_choice")
                self._set(cls, hook, method)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.span_run, dtype=np.int32).copy(),
        }

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (total
        minus the time covered by direct child spans)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


class _SpanContext:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
