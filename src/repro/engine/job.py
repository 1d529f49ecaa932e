"""Declarative simulation jobs and their deterministic content hash.

A :class:`SimJob` is the engine's unit of work: *what* to simulate,
named entirely with strings and numbers (workload abbreviation, GPU
product name, scheme label, scale, seed, warmups, plus kind-specific
extras).  Keeping jobs declarative has two payoffs:

* the job pickles trivially, so it can be shipped to worker processes
  that rebuild kernels/plans from the registries on their side;
* the job serializes canonically, so its SHA-256 content hash is
  stable across processes and sessions and can key a persistent
  result cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

#: Engine schema version.  Participates in the cache salt: bump it
#: whenever a change to the engine, the simulator or the workload
#: models makes previously cached results stale.
ENGINE_VERSION = "7"  # 7: cluster(seed=) seeds the throttling vote


def canonical_value(value):
    """Normalize a job parameter to a hashable, JSON-stable form.

    Scalars pass through; lists/tuples become tuples; mappings become
    sorted ``(key, value)`` pair tuples.  Anything else is rejected so
    job identity can never silently depend on ``repr`` of a live
    object.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(canonical_value(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), canonical_value(v))
                            for k, v in value.items()))
    raise TypeError(
        f"job parameters must be scalars/sequences/mappings of scalars, "
        f"got {type(value).__name__}: {value!r}")


def _jsonable(value):
    """Canonical value -> JSON-serializable structure (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class SimJob:
    """One cacheable, shippable unit of simulation work.

    ``kind`` selects the executor (see :mod:`repro.engine.executors`);
    the named fields cover the parameters every sweep shares, and
    ``extras`` carries kind-specific knobs as sorted key/value pairs.
    Build instances through :meth:`make` so extras are canonicalized.
    """

    kind: str
    workload: "str | None" = None
    gpu: "str | None" = None
    scheme: "str | None" = None
    scale: float = 1.0
    seed: int = 0
    warmups: int = 1
    extras: "tuple[tuple[str, object], ...]" = field(default=())

    @classmethod
    def make(cls, kind: str, *, workload: str = None, gpu: str = None,
             scheme: str = None, scale: float = 1.0, seed: int = 0,
             warmups: int = 1, **extras) -> "SimJob":
        """Construct a job, canonicalizing the extra parameters."""
        pairs = tuple(sorted((k, canonical_value(v))
                             for k, v in extras.items()))
        return cls(kind=kind, workload=workload, gpu=gpu, scheme=scheme,
                   scale=scale, seed=seed, warmups=warmups, extras=pairs)

    def extra(self, key: str, default=None):
        """Look up one extra parameter by name."""
        for k, v in self.extras:
            if k == key:
                return v
        return default

    def descriptor(self) -> dict:
        """JSON-serializable canonical description of this job."""
        return {
            "kind": self.kind,
            "workload": self.workload,
            "gpu": self.gpu,
            "scheme": self.scheme,
            "scale": self.scale,
            "seed": self.seed,
            "warmups": self.warmups,
            "extras": [[k, _jsonable(v)] for k, v in self.extras],
        }

    @property
    def key(self) -> str:
        """Deterministic SHA-256 content hash of the job description."""
        blob = json.dumps(self.descriptor(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for logs and progress lines."""
        parts = [self.kind]
        for part in (self.workload, self.gpu, self.scheme):
            if part:
                parts.append(part)
        return "/".join(parts)
