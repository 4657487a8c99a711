"""Typed, seedable fault plans for restoration chaos testing.

Medusa's safety argument (§4–§5) is that restoration either reproduces the
offline process's state exactly or fails loudly.  A :class:`FaultPlan` is
the instrument that *provokes* those failures deterministically: a seed plus
a list of typed :class:`FaultSpec` entries, each naming one realistic way a
restore can go wrong.  The same (seed, faults) pair always injects the same
faults at the same sites, so every chaos-test failure replays exactly.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import InvalidValueError
from repro.utils.rng import SeedSequence


class FaultKind(enum.Enum):
    """The fault taxonomy, one entry per realistic restoration hazard."""

    #: A poisoned artifact: a pointer-restore rule in one batch-size graph
    #: points outside its replayed allocation (the on-SSD copy went stale).
    ARTIFACT_CORRUPTION = "artifact_corruption"
    #: The online allocator returns a different allocation than the recorded
    #: event stream expects — the deterministic-control-flow assumption broke.
    REPLAY_DIVERGENCE = "replay_divergence"
    #: A kernel resolves through neither dlsym nor module enumeration (its
    #: triggering kernel no longer covers it, §5).
    HIDDEN_KERNEL_UNRESOLVED = "hidden_kernel_unresolved"
    #: cudaMalloc fails mid-replay (fragmentation / a co-tenant grabbed VRAM).
    REPLAY_OOM = "replay_oom"
    #: A permanent-buffer dump (§4.3) comes back with flipped bits.
    PERMANENT_DUMP_BITFLIP = "permanent_dump_bitflip"
    #: A triggering-kernel launch wedges past its watchdog budget (§5.1).
    TRIGGER_TIMEOUT = "trigger_timeout"


#: Replay-fault phases: before the KV allocation lands (kills the KV
#: restore) or in the warm-up remainder (KV survives, graphs do not).
PHASE_KV = "kv"
PHASE_WARMUP = "warmup"
_PHASES = ("", PHASE_KV, PHASE_WARMUP)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.  Unset targets are resolved deterministically
    from the plan seed against the artifact (see ``FaultInjector.prepare``).
    """

    kind: FaultKind
    batch_size: Optional[int] = None    # ARTIFACT_CORRUPTION: target graph
    event_index: Optional[int] = None   # replay faults: replay_events index
    kernel_name: str = ""               # symbol / trigger faults
    alloc_index: Optional[int] = None   # PERMANENT_DUMP_BITFLIP: target dump
    phase: str = ""                     # replay faults: "kv" | "warmup"
    note: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise InvalidValueError(
                f"FaultSpec.kind must be a FaultKind, got {self.kind!r}")
        if self.phase not in _PHASES:
            raise InvalidValueError(
                f"FaultSpec.phase must be one of {_PHASES}, "
                f"got {self.phase!r}")

    def to_dict(self) -> Dict:
        payload: Dict = {"kind": self.kind.value}
        for key in ("batch_size", "event_index", "alloc_index"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        for key in ("kernel_name", "phase", "note"):
            value = getattr(self, key)
            if value:
                payload[key] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultSpec":
        try:
            kind = FaultKind(payload["kind"])
        except (KeyError, ValueError) as exc:
            raise InvalidValueError(
                f"fault spec payload has no valid kind: {payload!r}") from exc
        return cls(kind=kind,
                   batch_size=payload.get("batch_size"),
                   event_index=payload.get("event_index"),
                   kernel_name=payload.get("kernel_name", ""),
                   alloc_index=payload.get("alloc_index"),
                   phase=payload.get("phase", ""),
                   note=payload.get("note", ""))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one cold start."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def rng(self, *names: object):
        """A numpy Generator derived from (plan seed, names) — stable."""
        return SeedSequence(self.seed).generator("faultplan", *names)

    # -- (de)serialization: chaos runs are shareable as JSON ----------------

    def to_json(self) -> str:
        return json.dumps({"seed": self.seed,
                           "faults": [f.to_dict() for f in self.faults]})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidValueError(
                f"fault plan is not valid JSON: {exc}") from exc
        return cls(seed=int(payload.get("seed", 0)),
                   faults=tuple(FaultSpec.from_dict(f)
                                for f in payload.get("faults", ())))
