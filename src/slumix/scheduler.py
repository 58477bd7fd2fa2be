"""Deterministic per-epoch mix plans for the three fine-tuning schemes.

A plan fixes, for every epoch, the exact ordered lists of text and speech
training items:

* ``text_only``   -- all transcripts every epoch, no speech.
* ``direct``      -- all transcripts plus a fixed subset of speech pairs every
                     epoch (reshuffled order per epoch).
* ``curriculum``  -- transcript-only epochs, then one final epoch carrying the
                     whole speech exposure: the direct subset cycled E times.

Both speech schemes consume exactly ``speech_budget(N, p) * E`` speech items
in total, so comparisons across schemes hold the speech exposure fixed. The
speech subset at proportion p is the p-budget prefix of one seeded
permutation, which makes the subsets nested across proportions: every larger
level contains the smaller ones.

All randomness is drawn from streams derived via SHA-256 from (seed, purpose,
epoch), so plans are bit-identical across runs and platforms.

A plan file holds only what ``build_plan`` takes (config, text ids, speech
permutation), and loading one rebuilds the plan, so it keeps these invariants.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PlanError
from .jsonio import read_json, write_json
from .trainer_recipes import is_int, is_number

SCHEMES = ("text_only", "direct", "curriculum")


def derive_seed(root: int, *tags) -> int:
    """Stable 64-bit stream seed from a root seed and string tags."""
    material = ":".join([str(int(root))] + [str(t) for t in tags]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def derive_rng(root: int, *tags) -> random.Random:
    return random.Random(derive_seed(root, *tags))


def speech_budget(n: int, p) -> int:
    """Number of speech-label pairs selected at proportion p of n.

    Round-half-up on the exact decimal value of p (not its float image), so
    budgets are monotone in p and stable at .5 boundaries.
    """
    if n < 0:
        raise PlanError(f"speech pool size must be >= 0 (got {n})")
    p_exact = Fraction(repr(float(p)))
    if not 0 <= p_exact <= 1:
        raise PlanError(f"speech proportion must be in [0, 1] (got {p})")
    return int(p_exact * n + Fraction(1, 2))


@dataclass(frozen=True)
class SchedulerConfig:
    scheme: str
    p: float
    epochs: int
    seed: int
    n_speech: int

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise PlanError(f"unknown scheme {self.scheme!r} (expected one of {SCHEMES})")
        for name in ("epochs", "seed", "n_speech"):
            value = getattr(self, name)
            if not is_int(value):
                raise PlanError(f"{name} must be an integer (got {value!r})")
        if not is_number(self.p):
            raise PlanError(f"speech proportion must be a number (got {self.p!r})")
        if not 0 <= self.p <= 1:
            raise PlanError(f"speech proportion must be in [0, 1] (got {self.p})")
        if self.epochs < 1:
            raise PlanError(f"epoch count must be >= 1 (got {self.epochs})")
        if self.n_speech < 0:
            raise PlanError(f"n_speech must be >= 0 (got {self.n_speech})")
        if self.scheme == "text_only":
            object.__setattr__(self, "p", 0.0)

    @property
    def budget(self) -> int:
        return speech_budget(self.n_speech, self.p)


@dataclass(frozen=True)
class EpochPlan:
    epoch: int  # 1-based
    text_item_ids: tuple[str, ...]
    speech_item_ids: tuple[str, ...]  # repetition allowed (curriculum cycling)


@dataclass(frozen=True)
class MixPlan:
    config: SchedulerConfig
    epochs: tuple[EpochPlan, ...]
    permutation: tuple[str, ...]  # seeded speech ordering used for nesting


def nested_permutation(speech_ids: Sequence[str], seed: int) -> list[str]:
    """One seeded permutation of the speech pool.

    Prefixes of this ordering are the per-proportion subsets, so subsets at
    increasing proportions form a chain under inclusion by construction.
    """
    ids = list(speech_ids)
    if len(set(ids)) != len(ids):
        raise PlanError("speech ids contain duplicates")
    derive_rng(seed, "speech-permutation").shuffle(ids)
    return ids


def _shuffled(items: Iterable[str], rng: random.Random) -> list[str]:
    out = list(items)
    rng.shuffle(out)
    return out


def build_plan(config: SchedulerConfig, text_ids: Sequence[str],
               speech_ordering: Sequence[str]) -> MixPlan:
    """Materialize the per-epoch item lists for one scheme."""
    text_ids = list(text_ids)
    if len(set(text_ids)) != len(text_ids):
        raise PlanError("text ids contain duplicates")
    ordering = list(speech_ordering)
    if len(set(ordering)) != len(ordering):
        raise PlanError("speech ordering contains duplicates")
    n_p = config.budget
    if n_p > len(ordering):
        raise PlanError(
            f"speech budget {n_p} exceeds available speech ordering ({len(ordering)})")
    prefix = ordering[:n_p]

    epochs = []
    for e in range(1, config.epochs + 1):
        if config.scheme == "direct":
            speech = _shuffled(prefix, derive_rng(config.seed, "epoch-speech", e))
        elif config.scheme == "curriculum" and e == config.epochs:
            # The final epoch replays the selected subset once per epoch of
            # the comparison scheme, each cycle reshuffled, so the multiset
            # of speech exposures matches direct mixing exactly.
            speech = []
            for cycle in range(1, config.epochs + 1):
                speech.extend(_shuffled(prefix, derive_rng(config.seed, "cycle", cycle)))
        else:
            speech = []
        epochs.append(EpochPlan(epoch=e, text_item_ids=tuple(text_ids),
                                speech_item_ids=tuple(speech)))
    return MixPlan(config=config, epochs=tuple(epochs), permutation=tuple(ordering))


def epoch_batches(plan: MixPlan, epoch: int, batch_size: int,
                  seed: int) -> list[list[tuple[str, str]]]:
    """Jointly shuffle the epoch's text and speech items and chunk them.

    Items are (item_id, modality) pairs with modality "text" or "speech",
    since the same record id may be consumed in both modalities. The final
    short batch is kept.
    """
    if batch_size <= 0:
        raise PlanError(f"batch size must be >= 1 (got {batch_size})")
    if not 1 <= epoch <= len(plan.epochs):
        raise PlanError(f"epoch {epoch} outside plan range 1..{len(plan.epochs)}")
    ep = plan.epochs[epoch - 1]
    items = [(i, "text") for i in ep.text_item_ids]
    items += [(i, "speech") for i in ep.speech_item_ids]
    derive_rng(seed, "batches", epoch).shuffle(items)
    return [items[i:i + batch_size] for i in range(0, len(items), batch_size)]


def plan_totals(plan: MixPlan) -> dict:
    """Per-epoch and total text/speech exposure counts."""
    per_text = [len(ep.text_item_ids) for ep in plan.epochs]
    per_speech = [len(ep.speech_item_ids) for ep in plan.epochs]
    return {
        "per_epoch_text": per_text,
        "per_epoch_speech": per_speech,
        "total_text": sum(per_text),
        "total_speech": sum(per_speech),
    }


def plan_to_dict(plan: MixPlan) -> dict:
    """The plan file: what ``build_plan`` takes, the text ids once."""
    return {
        "kind": "mix_plan",
        "config": asdict(plan.config),
        "text_item_ids": list(plan.epochs[0].text_item_ids),
        "permutation": list(plan.permutation),
    }


def plan_from_dict(obj: dict) -> MixPlan:
    """``build_plan`` of a plan file, so a loaded plan keeps the scheduler's rules."""
    return build_plan(SchedulerConfig(**obj["config"]), obj["text_item_ids"],
                      obj["permutation"])


def save_plan(plan: MixPlan, path) -> None:
    write_json(path, plan_to_dict(plan))


def load_plan(path) -> MixPlan:
    """The plan a plan file holds; every error, a broken scheduler rule
    included, names the file."""
    def build(obj):
        try:
            return plan_from_dict(obj)
        except PlanError as exc:
            raise PlanError(f"{path}: {exc}") from exc
    return read_json(path, PlanError, "plan", build)
