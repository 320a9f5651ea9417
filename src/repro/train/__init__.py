"""Offline training tier: checkpointing learner, checkpoints, policy registry.

The training loop of :mod:`repro.cdrl` trains one policy per request.  This
package trains a policy offline, survives interruption, and serves it:

* :mod:`repro.train.checkpoint` — schema-versioned, bit-identical training
  checkpoints (network weights, optimizer moments, pending gradient batch,
  elite replay set and history), so resume-at-episode-k equals an
  uninterrupted run exactly.
* :mod:`repro.train.learner` — the :class:`Learner`, which collects
  lock-step waves of the spec's ``num_envs`` episodes in-process through
  the trainer's own wave loop and checkpoints at wave boundaries.
* :mod:`repro.train.registry` — a sqlite-backed :class:`PolicyRegistry` of
  named, versioned policy artifacts that self-registers session-generator
  factories (``cdrl:<name>-v<N>``) into the serving tier's stage registry.

``python -m repro.train`` is the operational CLI (train / resume / list /
promote).
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    TrainingCheckpoint,
    TrainSpec,
)
from .learner import Learner
from .registry import PolicyRegistry, RegisteredPolicySessionGenerator

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Learner",
    "PolicyRegistry",
    "RegisteredPolicySessionGenerator",
    "TrainSpec",
    "TrainingCheckpoint",
]
