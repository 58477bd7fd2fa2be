"""Training recipes and the warmup+cosine learning-rate schedule.

``published_recipe`` carries the published fine-tuning settings (these are what
exported manifests echo to external trainers); ``desk_recipe`` scales the
step sizes up to magnitudes the linear reference learner can actually use.
Every recipe carries the settings of a second, reduced-LR phase; the scheme
alone decides whether it runs (``epoch_phases``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TrainError


def is_int(value) -> bool:
    """An ``int`` that is not a ``bool``: the integer rule of recipe and manifest fields."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An ``int`` or a ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainRecipe:
    peak_lr: float
    warmup_ratio: float
    batch_size: int
    grad_accum: int
    beams: int
    phase2_peak_lr: float
    phase2_warmup_ratio: float

    def __post_init__(self):
        for name in ("batch_size", "grad_accum", "beams"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise TrainError(f"{name} must be an integer >= 1 (got {value!r})")
        for name in ("peak_lr", "warmup_ratio", "phase2_peak_lr", "phase2_warmup_ratio"):
            value = getattr(self, name)
            if not is_number(value):
                raise TrainError(f"{name} must be a number (got {value!r})")
            if name.endswith("peak_lr") and not value > 0:
                raise TrainError(f"{name} must be > 0 (got {value})")
            if name.endswith("warmup_ratio") and not 0 <= value < 1:
                raise TrainError(f"{name} must be in [0, 1) (got {value})")

    def phase_settings(self, phase: int) -> tuple[float, float]:
        """(peak_lr, warmup_ratio) of phase 1 or 2."""
        if phase == 1:
            return self.peak_lr, self.warmup_ratio
        if phase == 2:
            return self.phase2_peak_lr, self.phase2_warmup_ratio
        raise TrainError(f"phase must be 1 or 2 (got {phase})")


def published_recipe() -> TrainRecipe:
    """Published fine-tuning settings, for manifest export."""
    return TrainRecipe(peak_lr=5.0e-6, warmup_ratio=0.04, batch_size=2, grad_accum=8, beams=3,
                       phase2_peak_lr=3.0e-6, phase2_warmup_ratio=0.02)


def desk_recipe(batch_size: int = 16) -> TrainRecipe:
    """Settings sized for the linear reference learner."""
    return TrainRecipe(peak_lr=0.5, warmup_ratio=0.04, batch_size=batch_size, grad_accum=1,
                       beams=1, phase2_peak_lr=0.3, phase2_warmup_ratio=0.02)


# The recipe of each profile a manifest or ``--recipe-profile`` may name.
RECIPE_PROFILES = {"desk": desk_recipe(), "published": published_recipe()}


def epoch_phases(scheme: str, epochs: int) -> list[int]:
    """The phase each epoch runs at: curriculum's final epoch at phase 2 (when
    there are two or more epochs), every other epoch at phase 1."""
    if scheme == "curriculum" and epochs > 1:
        return [1] * (epochs - 1) + [2]
    return [1] * epochs


def lr_at(recipe: TrainRecipe, step: int, total_steps: int, phase: int = 1) -> float:
    """Learning rate at a step: linear warmup to the peak over
    warmup_ratio * total_steps, then cosine decay to zero at total_steps."""
    if total_steps <= 0:
        raise TrainError(f"total_steps must be > 0 (got {total_steps})")
    if not 0 <= step <= total_steps:
        raise TrainError(f"step {step} outside [0, {total_steps}]")
    peak, warmup_ratio = recipe.phase_settings(phase)
    warmup_steps = warmup_ratio * total_steps
    if step <= warmup_steps and warmup_steps > 0:
        return peak * step / warmup_steps
    decay_span = total_steps - warmup_steps
    return peak * 0.5 * (1 + math.cos(math.pi * (step - warmup_steps) / decay_span))
