"""Engine provenance: record *which* engine produced a run's numbers.

Every other probe forces the event engine (their hooks fire per event),
so a manifest built from an observed sweep could not previously say
anything about engine selection — the act of observing decided it.  This
probe only consumes run-level metadata: it declares
``requires_event_loop = False`` so it never perturbs
:meth:`ClusterSimulation.engine_decision`, and drivers call its
:meth:`on_engine` hook with the resolved decision before executing.

Attached alongside the standard probes (which *do* force the event
engine) it records that honestly: the manifest says ``"event"`` with the
probes' blocking reason, which is exactly what ran.
"""

from __future__ import annotations

from repro.obs.probes import Probe

__all__ = ["EngineProvenanceProbe"]


class EngineProvenanceProbe(Probe):
    """Records the engine-selection outcome of each run it observes."""

    name = "engine"
    requires_event_loop = False

    def __init__(self) -> None:
        self.engine: str | None = None
        self.reason: str | None = None
        self._simulation = None

    def on_engine(self, engine: str, reason: str, simulation) -> None:
        """Called by the driver once :meth:`engine_decision` resolves."""
        self.engine = engine
        self.reason = reason
        self._simulation = simulation

    def summary(self) -> dict:
        if self.engine is None:
            # The driver never reported (e.g. a custom driver without
            # engine selection); say so rather than guessing.
            return {"engine": "unrecorded"}
        digest: dict = {
            "engine": self.engine,
            "reason": self.reason,
            "driver": type(self._simulation).__name__,
        }
        fluid = getattr(self._simulation, "last_fluid_summary", None)
        if self.engine == "fluid" and fluid is not None:
            digest["fluid"] = fluid
        batch = getattr(self._simulation, "last_batch_summary", None)
        if self.engine in ("fast", "vector") and batch is not None:
            digest["batch"] = batch
        return digest
