"""Learning-rate schedules: constant and warmup-stable-decay.

The warmup-stable-decay shape is peak * min((t+1)/w, 1, (T-t)/d) for 0-based
step t, with w = round(warmup_frac*T) warmup steps and d = round(decay_frac*T)
decay steps: linear ramp, constant plateau, linear cooldown. The function is
continuous at both breakpoints (the adjoining pieces evaluate to the peak
exactly) and reaches the floor (default 0) exactly at t = T; training loops
sample t = 0 .. T-1, so every applied rate is positive. A floor above the
peak is capped at the peak, so no rate exceeds it, as with ``constant``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "constant"  # "constant" | "wsd"
    warmup_frac: float = 0.02
    decay_frac: float = 0.20
    floor: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "wsd"):
            raise ConfigError(f"kind must be 'constant' or 'wsd', got {self.kind!r}")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ConfigError(f"warmup_frac must lie in [0, 1], got {self.warmup_frac}")
        if not 0.0 <= self.decay_frac <= 1.0:
            raise ConfigError(f"decay_frac must lie in [0, 1], got {self.decay_frac}")
        if self.warmup_frac + self.decay_frac > 1.0:
            raise ConfigError("decay_frac must be <= 1 - warmup_frac")
        if not (self.floor >= 0.0 and math.isfinite(self.floor)):
            raise ConfigError(f"floor must be >= 0 and finite, got {self.floor}")


def eta_at(spec: ScheduleSpec, step: float, total: int, peak: float) -> float:
    """Learning rate at a (possibly fractional) 0-based step in [0, total]."""
    if total < 1:
        raise ConfigError("total steps must be >= 1")
    if spec.kind == "constant":
        return peak
    w = round(spec.warmup_frac * total)
    d = round(spec.decay_frac * total)
    value = peak
    if w > 0 and step + 1 < w:
        value = peak * (step + 1) / w
    elif d > 0 and step > total - d:
        value = peak * (total - step) / d
    return max(value, min(spec.floor, peak))
