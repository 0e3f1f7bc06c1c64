"""Stable content-hashed run identities for sweep cells.

A *run ID* is the sha256 digest of the canonical JSON form of a cell's
fully-resolved specification: the registry coordinates (figure, curve, x,
seed, jobs, metric) plus a recursive description of every component the
materialized simulation will actually run with — policy, λ estimator,
staleness model, arrival source, service distribution, faults, overload
protection, autoscaler, dispatcher count, engine.  Two cells get the same
ID exactly when they are guaranteed to produce the same metric value, and
any change to any spec field — a different seed, a swapped estimator, a
re-tuned registry constant — changes the ID.

Canonicalization rules (DESIGN.md §13):

- Scalars (int/float/str/bool/None) pass through; numpy scalars are
  converted to their Python equivalents so dtype never leaks into the ID.
- Sequences become lists; numpy arrays become nested lists; sets are
  ordered by their canonical JSON form.
- Callables (classes, functions, ``functools.partial``) are described by
  qualified name — and, for partials, their described args/keywords —
  matching how registry factories ship to worker processes by name.
- Objects exposing ``describe()`` (fault injectors, overload configs,
  rate programs, autoscalers) contribute ``{"type": ..., **describe()}``,
  reusing the digests the obs layer already records in manifests.
- Other objects contribute their class plus every public, non-volatile
  attribute, recursively.  Volatile run-state (probes, ``engine_used``,
  ``last_*`` summaries) is excluded: it does not determine results.
- Dictionaries are serialized with sorted keys and no whitespace, so key
  order never matters.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any

__all__ = [
    "RUN_ID_SCHEMA_VERSION",
    "describe_value",
    "canonical_json",
    "run_id",
    "resolve_simulation_spec",
    "resolve_live_spec",
    "live_run_id",
]

#: Bump when the canonicalization rules change: every run ID embeds this
#: version, so a rule change invalidates all previously cached results
#: instead of silently colliding with them.
RUN_ID_SCHEMA_VERSION = 1

#: Simulation attributes that never influence the metric value: observers
#: and post-run state.  ``trace_jobs``/``trace_response_times`` stay *in*
#: the spec — they do not change the metric either, but they change what
#: the result object carries, and a conservative ID is a correct ID.
_VOLATILE_ATTRS = frozenset(
    {
        "probes",
        "engine_used",
        "last_breaker_summary",
        "last_fluid_summary",
        "last_batch_summary",
        "last_scaling_summary",
        # The requested engine is folded to its equivalence class by
        # resolve_simulation_spec (event/fast/vector are bit-identical),
        # so the raw attribute must not leak into the description.
        "engine",
    }
)

#: Recursion budget for component description.  Registry components
#: bottom out well within this depth; exceeding it raises (rather than
#: silently truncating, which could alias two different specs).
_MAX_DEPTH = 10


def _qualname(obj: Any) -> str:
    module = getattr(obj, "__module__", None) or ""
    name = getattr(obj, "__qualname__", None) or type(obj).__name__
    return f"{module}.{name}" if module else name


def describe_value(value: Any, depth: int = _MAX_DEPTH, _seen: frozenset = frozenset()) -> Any:
    """Reduce ``value`` to canonical JSON-serializable form.

    Raises ``ValueError`` when the recursion budget is exhausted and
    ``TypeError`` via :func:`canonical_json` for anything that still is
    not serializable — a run ID must never be built from a partial
    description.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    # numpy scalars and arrays (imported lazily: hashing plain specs must
    # not require numpy at import time).
    item = getattr(value, "item", None)
    shape = getattr(value, "shape", None)
    if shape is not None and hasattr(value, "tolist"):
        return value.tolist()
    if item is not None and callable(item) and type(value).__module__ == "numpy":
        return value.item()
    if depth <= 0:
        raise ValueError(
            f"component description exceeded depth budget at {value!r}"
        )
    if id(value) in _seen:
        raise ValueError(f"cyclic component reference at {value!r}")
    seen = _seen | {id(value)}
    if isinstance(value, (list, tuple)):
        return [describe_value(v, depth - 1, seen) for v in value]
    if isinstance(value, (set, frozenset)):
        described = [describe_value(v, depth - 1, seen) for v in value]
        return sorted(described, key=lambda v: canonical_json(v))
    if isinstance(value, dict):
        return {
            str(k): describe_value(v, depth - 1, seen)
            for k, v in value.items()
        }
    if isinstance(value, functools.partial):
        return {
            "partial": describe_value(value.func, depth - 1, seen),
            "args": [describe_value(v, depth - 1, seen) for v in value.args],
            "keywords": {
                str(k): describe_value(v, depth - 1, seen)
                for k, v in value.keywords.items()
            },
        }
    if isinstance(value, type) or callable(value):
        return {"callable": _qualname(value)}
    describe = getattr(value, "describe", None)
    if callable(describe):
        return {
            "type": _qualname(type(value)),
            "describe": describe_value(describe(), depth - 1, seen),
        }
    attrs = _public_attrs(value)
    return {
        "type": _qualname(type(value)),
        **{
            name: describe_value(attr, depth - 1, seen)
            for name, attr in attrs
        },
    }


def _public_attrs(obj: Any) -> list[tuple[str, Any]]:
    """Public, non-volatile instance attributes, sorted by name."""
    names: set[str] = set()
    if hasattr(obj, "__dict__"):
        names.update(vars(obj))
    for klass in type(obj).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    out = []
    for name in sorted(names):
        if name.startswith("_") or name in _VOLATILE_ATTRS:
            continue
        try:
            attr = getattr(obj, name)
        except AttributeError:  # declared slot never assigned
            continue
        out.append((name, attr))
    return out


def canonical_json(spec: Any) -> str:
    """The unique JSON serialization hashed into the run ID.

    Sorted keys, no whitespace, ASCII-only: byte-identical for equal
    specs regardless of dict ordering, platform or locale.
    """
    return json.dumps(
        spec, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def run_id(spec: dict) -> str:
    """The content hash (64 hex chars) identifying a resolved cell spec."""
    return hashlib.sha256(canonical_json(spec).encode("ascii")).hexdigest()


def resolve_simulation_spec(
    simulation: Any,
    *,
    figure_id: str,
    curve: str,
    x: float,
    seed: int,
    jobs: int,
    metric: str,
    engine: str = "auto",
) -> dict:
    """The fully-resolved canonical spec of one materialized sweep cell.

    ``simulation`` is the (not yet run) object the registry built for the
    cell, with every override already applied — so the description
    captures what will actually execute, not just the request.  The
    event, fast and vector engines are bit-identical by contract, so the
    effective engine (the simulation's own ``engine`` attribute when it
    has one, else the requested string) is folded to a single equivalence
    class in the hash input unless it is ``"fluid"`` (which genuinely
    changes the result).
    """
    effective_engine = getattr(simulation, "engine", engine)
    engine_class = "fluid" if effective_engine == "fluid" else "simulation"
    return {
        "runid_schema": RUN_ID_SCHEMA_VERSION,
        "figure": figure_id,
        "curve": curve,
        "x": float(x),
        "seed": int(seed),
        "jobs": int(jobs),
        "metric": metric,
        "engine_class": engine_class,
        "driver": _qualname(type(simulation)),
        "simulation": describe_value(simulation),
    }


def resolve_live_spec(spec: Any) -> dict:
    """The canonical spec of one live (on-the-wire) cell.

    ``spec`` is a :class:`repro.live.harness.LiveSpec`.  Wall-clock-
    volatile execution parameters (the spec's own ``VOLATILE_FIELDS``:
    time scale, bind host, duration cap) are folded out — they decide
    how fast and where a cell runs, never which cell it is — so the
    same experiment replayed slower, elsewhere or uncapped resolves to
    the same ID.  Everything else (policy, n, λ, T, seed, estimator,
    overload and arrivals specs, loop mode, chaos configuration) is
    identity.

    Chaos spec *strings* (``faults``, ``impair``, ``health``) are folded
    to their parsed canonical digests, so two orderings of the same
    ``key=value`` pairs — or a default written out explicitly — resolve
    to the same ID.  A spec without chaos fields omits them from its
    description entirely, keeping pre-chaos IDs bit-for-bit stable.
    """
    described = dict(spec.describe())
    for name in getattr(spec, "VOLATILE_FIELDS", ()):
        described.pop(name, None)
    if described.get("faults") is not None:
        from repro.faults.parse import parse_fault_spec

        described["faults"] = parse_fault_spec(described["faults"]).describe()
    if described.get("impair") is not None:
        from repro.live.chaos import parse_impairment_spec

        described["impair"] = parse_impairment_spec(
            described["impair"]
        ).describe()
    if described.get("health") is not None:
        from repro.live.dispatcher import parse_health_spec

        described["health"] = parse_health_spec(described["health"]).describe()
    return {
        "runid_schema": RUN_ID_SCHEMA_VERSION,
        "driver": "live",
        "spec": describe_value(described),
    }


def live_run_id(spec: Any) -> str:
    """The content hash identifying one live cell (see :func:`run_id`)."""
    return run_id(resolve_live_spec(spec))
