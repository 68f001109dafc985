"""Caps and tunables. Every brute-force sweep checks its cap before running."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

DEFAULT_ENUMERATION_CAP = 1 << 16
DEFAULT_GROUP_ORDER_CAP = 64
DEFAULT_WITNESS_CANDIDATE_BUDGET = 20000

_ENV_PREFIX = "SKEWSIMPLE_"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_PREFIX}{name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{_ENV_PREFIX}{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Caps:
    """Resource caps honoured by enumeration and closure sweeps."""

    enumeration: int = DEFAULT_ENUMERATION_CAP
    group_order: int = DEFAULT_GROUP_ORDER_CAP
    witness_candidates: int = DEFAULT_WITNESS_CANDIDATE_BUDGET

    @classmethod
    def from_env(cls) -> "Caps":
        """Defaults, overridable through SKEWSIMPLE_* environment variables."""
        return cls(
            enumeration=_env_int("ENUMERATION_CAP", DEFAULT_ENUMERATION_CAP),
            group_order=_env_int("GROUP_ORDER_CAP", DEFAULT_GROUP_ORDER_CAP),
            witness_candidates=_env_int(
                "WITNESS_CANDIDATE_BUDGET", DEFAULT_WITNESS_CANDIDATE_BUDGET
            ),
        )

    def with_enumeration(self, cap: int) -> "Caps":
        return replace(self, enumeration=cap)
