"""Span tracer: times calls into the program's public functions from outside.

The benchmark never edits the program. To see where a publication's time
goes it wraps, for the duration of one traced phase, the class methods
at each layer boundary (``IngressTier.pump``, ``Enclave.ecall``,
``MemorySubsystem.touch_many`` ...). Every wrapped call is a span; a
span's *self* time is its duration minus the part its child spans
cover, so the self times of all spans plus the harness's own time add
up to the phase's wall-clock. Simulated enclave cycles are read around
each span the same way, so every stage has a wall-clock and a
simulated column that are never mixed.

Spans are aggregated as they close (per layer and per function), not
kept one by one: a traced closed-loop phase makes hundreds of thousands
of ``touch`` calls on the paging workload.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: layer -> (module, class, method) boundaries wrapped in a traced phase.
LAYER_TARGETS: Dict[str, List[Tuple[str, str, str]]] = {
    "ingress": [("repro.ingress.tier", "IngressTier", "pump")],
    "bus": [("repro.network.bus", "MessageBus", "deliver")],
    "router": [("repro.core.router", "Router", "handle_publish"),
               ("repro.core.router", "Router", "handle_publish_batch"),
               ("repro.core.router", "Router", "handle_register"),
               ("repro.core.router", "Router", "handle_unregister")],
    "enclave": [("repro.sgx.enclave", "Enclave", "ecall")],
    "crypto": [("repro.core.messages", "SecureChannel", "open"),
               ("repro.core.messages", "SecureChannel", "open_many"),
               ("repro.core.messages", "SecureChannel", "protect"),
               ("repro.crypto.rsa", "RsaPublicKey", "verify"),
               ("repro.crypto.rsa", "RsaPrivateKey", "decrypt"),
               ("repro.crypto.rsa", "RsaPrivateKey", "sign")],
    "matching": [("repro.matching.poset", "ContainmentForest",
                  "match_traced"),
                 ("repro.matching.poset", "ContainmentForest", "insert"),
                 ("repro.matching.poset", "ContainmentForest",
                  "remove_subscriber"),
                 ("repro.matching.columnar", "ColumnarMatchPlane",
                  "match_batch_traced"),
                 ("repro.matching.columnar", "ColumnarMatchPlane",
                  "_compile")],
    "memory": [("repro.sgx.memory", "MemorySubsystem", "touch"),
               ("repro.sgx.memory", "MemorySubsystem", "touch_many")],
    "provider": [("repro.core.provider", "ServiceProvider",
                  "handle_subscription_request"),
                 ("repro.core.provider", "ServiceProvider",
                  "revoke_client")],
    "recovery": [("repro.recovery.wal", "WriteAheadLog", "append"),
                 ("repro.recovery.checkpoint", "CheckpointManager",
                  "checkpoint")],
    "cluster": [("repro.core.cluster", "MatcherCluster", "match_batch")],
}

LAYERS: Tuple[str, ...] = tuple(LAYER_TARGETS)

#: name of the pseudo-layer holding time spent outside every wrapped
#: call: the load generator, the router's drain loop, bus pops.
OUTSIDE = "harness"


class _Acc:
    """Running totals for one function (or one layer)."""

    __slots__ = ("self_s", "total_s", "calls", "self_sim")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.total_s = 0.0
        self.calls = 0
        self.self_sim = 0.0


class Tracer:
    """Wraps the layer boundaries and aggregates spans per function.

    ``sim_cycles`` returns the simulated cycle count of the platforms
    whose work should be attributed (0 when nothing in-process is
    simulated); it is read at every span boundary.
    """

    def __init__(self, sim_cycles: Callable[[], float]) -> None:
        self._sim = sim_cycles
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[type, str, object]] = []
        self.functions: Dict[Tuple[str, str], _Acc] = {}
        #: the traced phase itself; its self time is the harness's.
        self.root = _Acc()

    # -- installation ----------------------------------------------------

    def _wrap(self, layer: str, label: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter
        sim = self._sim
        accs = self.functions

        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0, 0.0]  # wall and sim covered by child spans
            stack.append(frame)
            sim0 = sim()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = clock() - t0
                cycles = sim() - sim0
                stack.pop()
                name = label
                if label == "Enclave.ecall" and len(args) > 1:
                    name = f"ecall {args[1]}"
                acc = accs.get((layer, name))
                if acc is None:
                    acc = accs[(layer, name)] = _Acc()
                acc.calls += 1
                acc.total_s += wall
                acc.self_s += wall - frame[0]
                acc.self_sim += cycles - frame[1]
                parent = stack[-1]
                parent[0] += wall
                parent[1] += cycles

        functools.update_wrapper(traced, fn)
        return traced

    def install(self) -> None:
        """Wrap every boundary in :data:`LAYER_TARGETS`."""
        for layer, targets in LAYER_TARGETS.items():
            for module_name, class_name, attribute in targets:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                original = cls.__dict__[attribute]
                label = f"{class_name}.{attribute.lstrip('_')}"
                setattr(cls, attribute, self._wrap(layer, label, original))
                self._patched.append((cls, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        for cls, attribute, original in reversed(self._patched):
            setattr(cls, attribute, original)
        self._patched = []

    # -- the traced phase --------------------------------------------------

    def run(self, phase: Callable[[], object]) -> object:
        """Run ``phase`` as the root span with every boundary wrapped."""
        self.install()
        frame = [0.0, 0.0]
        self._stack = [frame]
        sim0 = self._sim()
        t0 = time.perf_counter()
        try:
            return phase()
        finally:
            wall = time.perf_counter() - t0
            cycles = self._sim() - sim0
            self.uninstall()
            self._stack = []
            self.root.self_s += wall - frame[0]
            self.root.self_sim += cycles - frame[1]

    # -- aggregation -------------------------------------------------------

    def layer_totals(self) -> Dict[str, _Acc]:
        """Per-layer sums, plus :data:`OUTSIDE` for the root's self."""
        totals = {layer: _Acc() for layer in LAYERS}
        for (layer, _name), acc in self.functions.items():
            total = totals[layer]
            total.self_s += acc.self_s
            total.calls += acc.calls
            total.self_sim += acc.self_sim
        outside = _Acc()
        outside.self_s = self.root.self_s
        outside.self_sim = self.root.self_sim
        totals[OUTSIDE] = outside
        return totals

    def calls(self, name: str) -> int:
        """Calls of one function label (e.g. ``"ecall match_publication"``)."""
        return sum(acc.calls for (_layer, label), acc
                   in self.functions.items() if label == name)

    def total_ms(self, name: str) -> Tuple[float, int]:
        """(inclusive ms summed over calls, calls) for one label."""
        total, calls = 0.0, 0
        for (_layer, label), acc in self.functions.items():
            if label == name:
                total += acc.total_s
                calls += acc.calls
        return total * 1e3, calls


def stage_table(tracer: Tracer, n_ops: int, cycles_to_us: Callable,
                wall_s: float, tolerance: float) -> Tuple[str, float]:
    """Render the per-layer stage table; returns (text, reconcile error).

    Wall-clock and simulated columns sit side by side and are never
    added to each other. The reconcile error is ``|sum of self times -
    wall| / wall`` where ``wall`` is measured independently around the
    traced phase.
    """
    totals = tracer.layer_totals()
    self_sum = sum(acc.self_s for acc in totals.values())
    error = abs(self_sum - wall_s) / wall_s if wall_s > 0 else 0.0
    sim_sum = sum(acc.self_sim for acc in totals.values())
    ops = max(n_ops, 1)
    lines = [
        f"stage table: {n_ops} ops, traced wall {wall_s * 1e3:.1f} ms, "
        f"simulated {cycles_to_us(sim_sum) / 1e3:.3f} ms",
        f"  {'layer':10s} {'self ms/op':>11s} {'wall %':>7s} "
        f"{'calls/op':>9s} {'sim us/op':>10s} {'sim %':>6s}",
    ]
    for layer, acc in sorted(totals.items(),
                             key=lambda item: -item[1].self_s):
        wall_share = 100.0 * acc.self_s / self_sum if self_sum else 0.0
        sim_share = 100.0 * acc.self_sim / sim_sum if sim_sum else 0.0
        lines.append(
            f"  {layer:10s} {acc.self_s * 1e3 / ops:11.4f} "
            f"{wall_share:7.2f} {acc.calls / ops:9.2f} "
            f"{cycles_to_us(acc.self_sim) / ops:10.3f} {sim_share:6.2f}")
    lines.append(
        f"  sum of self times {self_sum * 1e3:.2f} ms vs wall "
        f"{wall_s * 1e3:.2f} ms: error {100 * error:.3f}% "
        f"(tolerance {100 * tolerance:.1f}%) "
        f"{'ok' if error <= tolerance else 'FAILED'}")
    lines.append("  by function (self ms/op, calls/op):")
    for (layer, name), acc in sorted(tracer.functions.items(),
                                     key=lambda item: -item[1].self_s):
        lines.append(f"    {layer:9s} {name:38s} "
                     f"{acc.self_s * 1e3 / ops:10.4f} "
                     f"{acc.calls / ops:8.2f}")
    return "\n".join(lines), error


def no_sim() -> float:
    """Sim clock for phases with no in-process simulated platform."""
    return 0.0


__all__ = ["Tracer", "LAYERS", "LAYER_TARGETS", "OUTSIDE", "stage_table",
           "no_sim"]
