"""Run the LINX HTTP server with per-layer timing spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_server.py --spans-out spans.npz -- \
        --port 0 --store /tmp/run/results.sqlite

Everything after ``--`` is handed unchanged to
``repro.engine.server.main``, which runs in this process.  Before it
starts, the public functions named in :data:`TARGETS` are replaced by
wrappers that time every call.  Each span records its name, start, end,
parent span and request id.  Spans stay in memory and are written to
``--spans-out`` as one ``.npz`` file when the server exits (SIGTERM drains
it, so the file appears once the process has ended).

A function imported by name into another module (``from repro.ldx.verifier
import verify``) is patched in every module that holds it, so the wrapper
sits where the function is looked up.  No file of the program changes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable

#: Span name -> (module, attribute path) of the function it times.  A name
#: may time several functions (both optimizers count as ``rl.optimizer.step``).
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "engine.explore": (("repro.engine.core", "LinxEngine.explore"),),
    "rl.policy.act": (("repro.rl.policy", "CategoricalPolicy.act"),),
    "rl.policy.decisions_from_forward": (
        ("repro.rl.policy", "CategoricalPolicy.decisions_from_forward"),
    ),
    "rl.network.forward_batch": (
        ("repro.rl.network", "MultiHeadPolicyNetwork.forward_batch"),
    ),
    "rl.policy.accumulate_gradient_batch": (
        ("repro.rl.policy", "CategoricalPolicy.accumulate_gradient_batch"),
    ),
    "rl.optimizer.step": (
        ("repro.rl.optimizer", "Adam.step"),
        ("repro.rl.optimizer", "SGD.step"),
    ),
    "ldx.best_partial_structural_assignment": (
        ("repro.ldx.verifier", "best_partial_structural_assignment"),
    ),
    "ldx.verify": (("repro.ldx.verifier", "verify"),),
    "cdrl.compliance.on_step": (
        ("repro.cdrl.compliance", "ComplianceRewardStrategy.on_step"),
    ),
    "cdrl.compliance.on_episode_end": (
        ("repro.cdrl.compliance", "ComplianceRewardStrategy.on_episode_end"),
    ),
    "datasets.load_dataset": (("repro.datasets.registry", "load_dataset"),),
    "dataframe.groupby_agg": (("repro.dataframe.table", "DataTable.groupby_agg"),),
    "dataframe.filter": (("repro.dataframe.table", "DataTable.filter"),),
    "dataframe.fingerprint": (("repro.dataframe.table", "DataTable.fingerprint"),),
    "explore.executor.execute_step": (
        ("repro.explore.executor", "QueryExecutor.execute_step"),
    ),
    "explore.env.step": (("repro.explore.environment", "ExplorationEnvironment.step"),),
    "explore.env.observe": (
        ("repro.explore.environment", "ExplorationEnvironment.observe"),
    ),
    "explore.reward.step_reward": (
        ("repro.explore.reward", "GenericExplorationReward.step_reward"),
    ),
    "explore.reward.node_interestingness": (
        ("repro.explore.reward", "GenericExplorationReward.node_interestingness"),
    ),
    "store.get_payload_text": (("repro.engine.store", "ResultStore.get_payload_text"),),
    "store.claim": (("repro.engine.store", "ResultStore.claim"),),
    "store.commit_result": (("repro.engine.store", "ResultStore.commit_result"),),
}

#: Modules imported before patching, so every by-name import of a target
#: already exists and can be found.  Later imports read the patched value.
PRELOAD = (
    "repro.engine.server",
    "repro.engine.stages",
    "repro.cdrl.agent",
    "repro.cdrl.spec_network",
    "repro.cdrl.compliance",
    "repro.explore.rollouts",
    "repro.metrics.compliance",
)


class SpanRecorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.records: list[tuple[int, int, float, float, int, int]] = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.request_ids: list[str] = []
        self._request_index: dict[str, int] = {}
        self._request_lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _request_id(self, request_id: str) -> int:
        with self._request_lock:
            if request_id not in self._request_index:
                self._request_index[request_id] = len(self.request_ids)
                self.request_ids.append(request_id)
            return self._request_index[request_id]

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = -1
        return local

    def wrap(self, name: str, function: Callable) -> Callable:
        """A wrapper recording one span per call of *function*."""
        name_id = self._name_id(name)
        state = self._state
        ids = self._ids
        record = self.records.append
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((span_id, name_id, start, end, parent, local.request))

        return traced

    def wrap_request(
        self, name: str, function: Callable, request_of: Callable[..., str]
    ) -> Callable:
        """Like :meth:`wrap`, and tags every span inside the call with the
        request id that ``request_of(*args)`` names."""
        inner = self.wrap(name, function)

        @functools.wraps(function)
        def tagged(*args, **kwargs):
            local = self._state()
            previous = local.request
            local.request = self._request_id(request_of(*args))
            try:
                return inner(*args, **kwargs)
            finally:
                local.request = previous

        return tagged

    def add(self, name: str, start: float, end: float, request_id: str) -> None:
        """Record a span that no single call covers (queue wait)."""
        self.records.append(
            (next(self._ids), self._name_id(name), start, end, -1,
             self._request_id(request_id))
        )

    def install_scheduler(self, scheduler_cls: type) -> None:
        """Top-level request spans: submit, queue wait, execute, result read."""
        execute = scheduler_cls._execute
        self._name_id("scheduler.queue_wait")

        def execute_after_queue(self_, ticket):
            # The ticket's own wall-clock stamps: created in submit, started
            # when a worker dequeued it.
            now = time.perf_counter()
            waited = (ticket.started_at or time.time()) - ticket.submitted_at
            self.add("scheduler.queue_wait", now - waited, now, ticket.request.request_id)
            return execute(self_, ticket)

        def ticket_request(self_, ticket_id, *args):
            ticket = self_._tickets.get(ticket_id)
            return ticket.request.request_id if ticket is not None else ""

        scheduler_cls.submit = self.wrap_request(
            "scheduler.submit", scheduler_cls.submit,
            lambda self_, request, *a: request.request_id,
        )
        scheduler_cls._execute = self.wrap_request(
            "scheduler.execute", execute_after_queue,
            lambda self_, ticket, *a: ticket.request.request_id,
        )
        scheduler_cls.result_text = self.wrap_request(
            "scheduler.result_text", scheduler_cls.result_text, ticket_request
        )

    def dump(self, path: str) -> None:
        import numpy as np

        columns = list(zip(*self.records)) if self.records else [()] * 6
        np.savez(
            path,
            span=np.asarray(columns[0], dtype=np.int64),
            name=np.asarray(columns[1], dtype=np.int32),
            start=np.asarray(columns[2], dtype=np.float64),
            end=np.asarray(columns[3], dtype=np.float64),
            parent=np.asarray(columns[4], dtype=np.int64),
            request=np.asarray(columns[5], dtype=np.int32),
            names=np.asarray(self.names, dtype=str),
            request_ids=np.asarray(self.request_ids, dtype=str),
        )


def _resolve(module_name: str, path: str) -> tuple[Any, str, Callable]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, getattr(owner, attribute)


def install(recorder: SpanRecorder) -> None:
    """Patch every target where it is looked up."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for name, targets in TARGETS.items():
        for module_name, path in targets:
            owner, attribute, original = _resolve(module_name, path)
            wrapper = recorder.wrap(name, original)
            setattr(owner, attribute, wrapper)
            if isinstance(owner, type):
                continue  # methods are looked up on the class
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro.")
                    and module.__dict__.get(attribute) is original
                ):
                    setattr(module, attribute, wrapper)
    from repro.engine.scheduler import RequestScheduler

    recorder.install_scheduler(RequestScheduler)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, help="output .npz path")
    args = parser.parse_args(argv[:split])
    recorder = SpanRecorder()
    install(recorder)
    from repro.engine import server

    try:
        return server.main(argv[split + 1:])
    finally:
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
