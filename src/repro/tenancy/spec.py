"""Frozen descriptions of a multi-tenant workload mix.

A :class:`TenantMix` names everything the co-tenant runner needs —
which registry workloads share the GPU, each tenant's clustering
scheme, throttling degree and bypass flag, and the SM-partitioning
policy — with plain strings and numbers, so a mix canonicalizes into
an engine job (``cotenant`` kind) exactly like every other sweep unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.planner import SCHEME_TABLE

#: SM-partitioning policies the runner implements.
#:
#: * ``shared`` — every tenant dispatches onto every SM and the waves
#:   of different tenants interleave through the same L1s and the one
#:   shared L2: the maximal-interference baseline.
#: * ``sm-split`` — each tenant owns a contiguous, statically sized
#:   slice of the SMs (private L1s by construction) but the L2 stays
#:   shared.
#: * ``cluster-isolated`` — ``sm-split`` plus a static L2 partition:
#:   each tenant's traffic is confined to its own ``1/n`` slice of the
#:   L2, so no tenant can evict another's lines anywhere.
POLICIES = ("shared", "sm-split", "cluster-isolated")

#: Schemes a tenant may run.  These are the demand-caching members of
#: :data:`repro.core.planner.SCHEMES`: the oracle bound
#: (:mod:`repro.analysis.bound`) models demand fetches only, so the
#: prefetching ``PFH+TOT`` plan — which installs lines without counted
#: misses — is excluded from tenant configs to keep the
#: ``bound >= measured`` invariant assertable on every mix.
TENANT_SCHEMES = tuple(n for n, s in SCHEME_TABLE.items() if s.kind != "pfh")


@dataclass(frozen=True)
class TenantSpec:
    """One kernel's slot in a mix: workload + per-tenant mitigation.

    ``active_agents`` overrides the throttling vote of the ``CLU+TOT``
    family (the throttle knob); ``bypass`` forces stream bypassing on
    whatever plan the scheme builds (the bypass knob) — together with
    ``scheme`` these are the three mitigation axes the tenancy study
    sweeps.
    """

    workload: str
    scheme: str = "BSL"
    scale: float = 1.0
    seed: int = 0
    active_agents: "int | None" = None
    bypass: bool = False

    def __post_init__(self):
        if self.scheme not in TENANT_SCHEMES:
            raise ValueError(
                f"unknown tenant scheme {self.scheme!r}; known: "
                f"{TENANT_SCHEMES} (prefetching schemes are excluded — "
                f"the oracle bound models demand caching)")
        if not self.scale > 0:
            raise ValueError(f"tenant scale must be > 0, got {self.scale}")
        if self.seed < 0:
            raise ValueError(f"tenant seed must be >= 0, got {self.seed}")
        if self.active_agents is not None and self.active_agents < 1:
            raise ValueError("active_agents must be >= 1 when given")

    def descriptor(self) -> dict:
        """JSON-stable form, as ``cotenant`` jobs carry tenants."""
        return {"workload": self.workload, "scheme": self.scheme,
                "scale": self.scale, "seed": self.seed,
                "active_agents": self.active_agents,
                "bypass": self.bypass}

    @classmethod
    def from_descriptor(cls, entry) -> "TenantSpec":
        """Rebuild a spec from its descriptor (or accept one as-is)."""
        if isinstance(entry, TenantSpec):
            return entry
        if isinstance(entry, str):
            return cls(workload=entry)
        if isinstance(entry, (tuple, list)):
            entry = dict(entry)
        if not isinstance(entry, dict):
            raise TypeError(f"tenant must be a TenantSpec, abbreviation or "
                            f"mapping, got {type(entry).__name__}")
        known = {"workload", "scheme", "scale", "seed", "active_agents",
                 "bypass"}
        unknown = set(entry) - known
        if unknown:
            raise ValueError(f"unknown tenant fields {sorted(unknown)}; "
                             f"known: {sorted(known)}")
        if "workload" not in entry:
            raise ValueError("tenant needs a 'workload' abbreviation")
        active = entry.get("active_agents")
        return cls(workload=str(entry["workload"]),
                   scheme=str(entry.get("scheme", "BSL")),
                   scale=float(entry.get("scale", 1.0)),
                   seed=int(entry.get("seed", 0)),
                   active_agents=int(active) if active is not None else None,
                   bypass=bool(entry.get("bypass", False)))


@dataclass(frozen=True)
class TenantMix:
    """An ordered set of tenants plus the SM-partitioning policy."""

    tenants: "tuple[TenantSpec, ...]"
    policy: str = "shared"

    def __post_init__(self):
        if not self.tenants:
            raise ValueError("a TenantMix needs at least one tenant")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; "
                             f"known: {POLICIES}")

    @classmethod
    def of(cls, *tenants, policy: str = "shared") -> "TenantMix":
        """Build a mix from specs, abbreviations or descriptors."""
        return cls(tenants=tuple(TenantSpec.from_descriptor(t)
                                 for t in tenants),
                   policy=policy)

    def descriptor(self) -> dict:
        """JSON-stable form of the whole mix."""
        return {"policy": self.policy,
                "tenants": [t.descriptor() for t in self.tenants]}

    def label(self) -> str:
        """Short human tag, e.g. ``NN+ATX/sm-split``."""
        return "+".join(t.workload for t in self.tenants) \
            + "/" + self.policy
