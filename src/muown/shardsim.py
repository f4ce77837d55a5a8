"""Round-robin optimizer sharding simulated with virtual ranks.

Per-layer optimizer work is assigned layer i -> rank i mod num_ranks. A rank
stands for ownership: its layers' optimizer state never leaves it, and an
all-gather republishes the updated parameters to every rank. The simulation
keeps the plan and accounts for that gathered traffic, which counts
parameter bytes only (8 bytes per entry) and never optimizer state.
Execution goes through ``step_all``, which may step heavy layers
concurrently; per-layer steps are pure, so the sharded result is bitwise
identical to stepping every layer in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .optimizers import HyperParams, step_all


@dataclass(frozen=True)
class ShardPlan:
    num_ranks: int
    assignment: tuple[int, ...]  # layer index -> owning rank

    def layers_of(self, rank: int) -> list[int]:
        return [i for i, r in enumerate(self.assignment) if r == rank]


def make_plan(num_layers: int, num_ranks: int) -> ShardPlan:
    if num_layers < 1 or num_ranks < 1:
        raise ValueError("num_layers and num_ranks must be >= 1")
    return ShardPlan(
        num_ranks=num_ranks,
        assignment=tuple(i % num_ranks for i in range(num_layers)),
    )


def run_sharded(layers, grads, hp: HyperParams, plan: ShardPlan):
    """One sharded optimizer step; returns (updated layers, gathered bytes).

    The plan must cover every layer. A failed layer step raises
    ``StepAllError``, as in ``step_all``.
    """
    if len(plan.assignment) != len(layers):
        raise ValueError(
            f"plan covers {len(plan.assignment)} layers, got {len(layers)}"
        )
    updated = step_all(layers, grads, hp)
    return updated, sum(8 * layer.state.param.size for layer in updated)
