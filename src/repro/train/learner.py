"""The checkpointing learner: offline CDRL training that can stop and resume.

The learner builds the agent its :class:`~repro.train.checkpoint.TrainSpec`
describes and trains it with
:meth:`~repro.rl.trainer.PolicyGradientTrainer.collect_waves` — the same
wave loop ``trainer.train()`` runs for ``num_envs > 1`` — so gradient
batching, elite replay, greedy evaluations and history are shared, not
reimplemented.  The wave size is the spec's ``num_envs``.

Bit-identity invariant: every episode of a wave is collected with the
wave-start weights and samples from its own ``(seed, episode_index)``
stream, so the RNG "position" of a run is ``(seed, episodes_completed)``.
Checkpoints are taken at wave boundaries (:mod:`repro.train.checkpoint`),
which makes kill-and-resume exact: the resumed run finishes with the
weights, optimizer state and history of the uninterrupted one.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.cdrl.agent import CdrlResult
from repro.explore.operations import operation_from_signature
from repro.explore.session import session_from_operations

from .checkpoint import TrainingCheckpoint, TrainSpec, capture, restore_into


class Learner:
    """Trains the CDRL policy a :class:`TrainSpec` describes, in waves.

    ``checkpoint_path`` (with ``checkpoint_every``, in waves) enables
    periodic wave-boundary checkpoints, and :meth:`from_checkpoint` resumes
    one bit-identically.
    """

    def __init__(
        self,
        spec: TrainSpec,
        *,
        checkpoint_path: str | os.PathLike | None = None,
        checkpoint_every: int = 1,
    ):
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.spec = spec
        self.agent = spec.build_agent()
        self.trainer = self.agent.trainer
        self.total_episodes = spec.config.episodes
        self.episodes_completed = 0
        self.checkpoint_path = os.fspath(checkpoint_path) if checkpoint_path else None
        self.checkpoint_every = checkpoint_every

    # -- resume ----------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path: str | os.PathLike,
        *,
        checkpoint_path: str | os.PathLike | None = None,
        checkpoint_every: int = 1,
    ) -> "Learner":
        """Rebuild a learner from a checkpoint, positioned to continue exactly.

        The wave size comes from the checkpointed spec's ``num_envs``.
        """
        checkpoint = TrainingCheckpoint.load(path)
        learner = cls(
            TrainSpec.from_payload(checkpoint.spec),
            checkpoint_path=checkpoint_path if checkpoint_path is not None else path,
            checkpoint_every=checkpoint_every,
        )
        restore_into(checkpoint, learner.trainer)
        learner.episodes_completed = checkpoint.episodes_completed
        learner.total_episodes = checkpoint.total_episodes
        if checkpoint.best_compliant is not None:
            signatures, utility = checkpoint.best_compliant
            agent = learner.agent
            session = session_from_operations(
                agent.dataset,
                [operation_from_signature(signature) for signature in signatures],
                cache=agent.cache,
            )
            agent._best_compliant = (session, float(utility))
        return learner

    # -- checkpointing ---------------------------------------------------------------
    def checkpoint(self) -> TrainingCheckpoint:
        """Snapshot the current training position (call at wave boundaries)."""
        best = self.agent._best_compliant
        return capture(
            self.spec.to_payload(),
            self.trainer,
            episodes_completed=self.episodes_completed,
            total_episodes=self.total_episodes,
            best_compliant=(
                (
                    [list(operation.signature()) for operation in best[0].operations],
                    float(best[1]),
                )
                if best is not None
                else None
            ),
        )

    def save_checkpoint(self) -> None:
        if self.checkpoint_path:
            self.checkpoint().save(self.checkpoint_path)

    # -- training --------------------------------------------------------------------
    def _run_waves(
        self,
        episode_target: int,
        callback: Optional[Callable[[int, float, object], None]],
    ) -> None:
        """Collect and record waves until ``episodes_completed >= episode_target``."""
        if self.episodes_completed >= episode_target:
            return
        waves = self.trainer.collect_waves(
            self.episodes_completed,
            self.total_episodes,
            callback=self.agent.tracking(callback),
        )
        for waves_done, completed in enumerate(waves, start=1):
            self.episodes_completed = completed
            if self.checkpoint_path and waves_done % self.checkpoint_every == 0:
                self.save_checkpoint()
            if completed >= episode_target:
                break

    def collect_until(
        self,
        episode_target: int,
        callback: Optional[Callable[[int, float, object], None]] = None,
    ) -> int:
        """Train up to the first wave boundary at or past *episode_target*.

        Returns the episodes completed so far and saves a checkpoint there
        — the "kill" half of kill-and-resume.
        """
        self._run_waves(episode_target, callback)
        self.save_checkpoint()
        return self.episodes_completed

    def train(
        self,
        callback: Optional[Callable[[int, float, object], None]] = None,
    ) -> CdrlResult:
        """Run (or continue) training to completion and return the result."""
        self._run_waves(self.total_episodes, callback)
        history = self.trainer.finish_training()
        # The completion checkpoint: its pending batch is empty (just
        # flushed), so resuming from it and calling train() again applies
        # nothing twice.
        self.save_checkpoint()
        return self.agent.result(history)

    # -- publishing ------------------------------------------------------------------
    def publish(self, registry, name: str, *, metrics: dict | None = None) -> int:
        """Publish the current weights to *registry* as a new version of *name*.

        Call after :meth:`train`: the checkpoint captured here includes the
        final partial-batch update that ``finish_training`` applies.
        """
        return registry.publish(
            name,
            self.checkpoint(),
            metrics=metrics or {},
        )
