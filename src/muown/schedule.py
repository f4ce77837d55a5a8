"""Learning-rate schedule: warmup-stable-decay, constant at zero fractions.

The rate is peak * min((t+1)/w, 1, (T-t)/d) at 0-based step t, with
w = round(warmup_frac*T) warmup and d = round(decay_frac*T) decay steps: a
linear ramp, a plateau and a linear cooldown, each piece a fraction <= 1 of
the peak. With both fractions 0 (the default) every rate is the peak. The
pieces meet at the peak exactly and reach the floor (default 0) exactly at
t = T. The shape rises, then falls, so the smallest rates of training steps
0 .. T-1 are at both ends. A floor above the peak is capped at the peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ScheduleSpec:
    warmup_frac: float = 0.0
    decay_frac: float = 0.0
    floor: float = 0.0

    def __post_init__(self):
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
    w = round(spec.warmup_frac * total)
    d = round(spec.decay_frac * total)
    value = peak
    if w > 0 and step + 1 < w:
        value = peak * ((step + 1) / w)
    elif d > 0 and step > total - d:
        value = peak * ((total - step) / d)
    return max(value, min(spec.floor, peak))
