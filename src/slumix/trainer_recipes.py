"""Training recipes and the warmup+cosine learning-rate schedule.

``published_recipe`` carries the published fine-tuning settings (these are what
exported manifests echo to external trainers); ``desk_recipe`` scales the
step sizes up to magnitudes the linear reference learner can actually use.
Curriculum recipes carry a second, reduced-LR phase for the final epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import TrainError


@dataclass(frozen=True)
class TrainRecipe:
    peak_lr: float
    warmup_ratio: float
    epochs: int
    batch_size: int
    grad_accum: int
    beams: int
    phase2_peak_lr: Optional[float] = None
    phase2_warmup_ratio: Optional[float] = None

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise TrainError(f"peak_lr must be > 0 (got {self.peak_lr})")
        if not 0 <= self.warmup_ratio < 1:
            raise TrainError(f"warmup_ratio must be in [0, 1) (got {self.warmup_ratio})")
        for name in ("epochs", "batch_size", "grad_accum", "beams"):
            if getattr(self, name) < 1:
                raise TrainError(f"{name} must be >= 1 (got {getattr(self, name)})")
        if (self.phase2_peak_lr is None) != (self.phase2_warmup_ratio is None):
            raise TrainError("phase2_peak_lr and phase2_warmup_ratio go together")
        if self.phase2_peak_lr is not None:
            if self.phase2_peak_lr <= 0:
                raise TrainError("phase2_peak_lr must be > 0")
            if not 0 <= self.phase2_warmup_ratio < 1:
                raise TrainError("phase2_warmup_ratio must be in [0, 1)")

    @property
    def has_phase2(self) -> bool:
        return self.phase2_peak_lr is not None


def check_recipe_for_scheme(recipe: TrainRecipe, scheme: str) -> None:
    """Phase-2 settings exist exactly for curriculum runs."""
    if scheme == "curriculum" and not recipe.has_phase2:
        raise TrainError("curriculum runs need phase2_peak_lr/phase2_warmup_ratio")
    if scheme != "curriculum" and recipe.has_phase2:
        raise TrainError(f"scheme {scheme!r} must not carry phase-2 settings")


def published_recipe(scheme: str, epochs: int = 3) -> TrainRecipe:
    """Published fine-tuning settings, for manifest export."""
    phase2 = (3.0e-6, 0.02) if scheme == "curriculum" else (None, None)
    return TrainRecipe(peak_lr=5.0e-6, warmup_ratio=0.04, epochs=epochs,
                       batch_size=2, grad_accum=8, beams=3,
                       phase2_peak_lr=phase2[0], phase2_warmup_ratio=phase2[1])


def desk_recipe(scheme: str, epochs: int = 3, batch_size: int = 16) -> TrainRecipe:
    """Settings sized for the linear reference learner."""
    phase2 = (0.3, 0.02) if scheme == "curriculum" else (None, None)
    return TrainRecipe(peak_lr=0.5, warmup_ratio=0.04, epochs=epochs,
                       batch_size=batch_size, grad_accum=1, beams=1,
                       phase2_peak_lr=phase2[0], phase2_warmup_ratio=phase2[1])


def lr_at(recipe: TrainRecipe, step: int, total_steps: int, phase: int = 1) -> float:
    """Learning rate at a step: linear warmup to the peak over
    warmup_ratio * total_steps, then cosine decay to zero at total_steps."""
    if total_steps <= 0:
        raise TrainError(f"total_steps must be > 0 (got {total_steps})")
    if not 0 <= step <= total_steps:
        raise TrainError(f"step {step} outside [0, {total_steps}]")
    if phase == 1:
        peak, warmup_ratio = recipe.peak_lr, recipe.warmup_ratio
    elif phase == 2:
        if not recipe.has_phase2:
            raise TrainError("recipe has no phase-2 settings")
        peak, warmup_ratio = recipe.phase2_peak_lr, recipe.phase2_warmup_ratio
    else:
        raise TrainError(f"phase must be 1 or 2 (got {phase})")
    warmup_steps = warmup_ratio * total_steps
    if step <= warmup_steps and warmup_steps > 0:
        return peak * step / warmup_steps
    decay_span = total_steps - warmup_steps
    return peak * 0.5 * (1 + math.cos(math.pi * (step - warmup_steps) / decay_span))
