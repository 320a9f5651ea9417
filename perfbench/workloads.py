"""The benchmark's workloads: request streams built from a seed.

Every workload turns ``--seed`` into a deterministic list of declarative
request bodies (the ``ExploreRequest`` wire format).  The server sees only
these bodies.  Requests walk the paper's 24 (dataset, meta-goal) cells in
one fixed order, and the seed picks which corpus instance fills each cell
and the request's training seed.  So runs with different seeds cover the
same mix of cells, which keeps their figures comparable.

``setup`` requests warm the server before the timed window; ``timed``
requests are sent, in order, by the closed-loop client.  Every timed
request is distinct, so the server executes each one.  A run of ``--seconds`` sends a fixed number of them,
``rate * seconds``, so every run of a workload does the same work and its
quality and memory figures compare like for like.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.bench.generator import generate_benchmark
from repro.engine.request import ExploreRequest

DATASETS = ("netflix", "flights", "playstore")

#: The 24 (dataset, meta-goal) cells, datasets rotating within each meta-goal.
CELL_ORDER = tuple(
    (DATASETS[(meta_goal + offset) % 3], meta_goal)
    for meta_goal in range(1, 9)
    for offset in range(3)
)

FRESH_EPISODES = 20
#: cold_tables table size: several thousand rows.
COLD_ROWS = 3000
COLD_EPISODES = 5
DEEP_EPISODES = 5


@lru_cache(maxsize=1)
def corpus_cells() -> dict[tuple[str, int], tuple]:
    """The 182-instance benchmark corpus, grouped by cell."""
    cells: dict[tuple[str, int], list] = {}
    for instance in generate_benchmark().instances:
        cells.setdefault((instance.dataset, instance.meta_goal_id), []).append(instance)
    return {cell: tuple(instances) for cell, instances in cells.items()}


def body(request_id: str, goal: str, dataset: str, **fields) -> dict:
    """One request in its wire format (what the server echoes back)."""
    return ExploreRequest(goal=goal, dataset=dataset, request_id=request_id, **fields).to_dict()


def corpus_stream(
    rng: random.Random, prefix: str, count: int, **fields
) -> list[dict]:
    """*count* corpus requests walking the cells in :data:`CELL_ORDER`.

    Each cell's instances are visited in a seeded order, so every request
    in a run has its own goal until a cell runs out (then its seed keeps it
    unique).  One request in four carries the instance's gold LDX; the rest
    send the natural-language goal, so specification derivation runs.
    """
    cells = corpus_cells()
    order = {cell: rng.sample(cells[cell], len(cells[cell])) for cell in CELL_ORDER}
    requests = []
    for index in range(count):
        round_, position = divmod(index, len(CELL_ORDER))
        cell = CELL_ORDER[position]
        instance = order[cell][round_ % len(order[cell])]
        explicit = (position + round_) % 4 == 3
        requests.append(
            body(
                f"{prefix}-{index}",
                instance.goal,
                instance.dataset,
                ldx_text=instance.ldx_text if explicit else None,
                seed=rng.randrange(1 << 30),
                **fields,
            )
        )
    return requests


def chain_spec(length: int) -> str:
    """A linear LDX chain of *length* filter nodes below the root."""
    lines = ["ROOT CHILDREN <A1>"]
    for i in range(1, length + 1):
        child = f" and CHILDREN <A{i + 1}>" if i < length else ""
        lines.append(f"A{i} LIKE [F,.*]{child}")
    return "\n".join(lines)


def fan_spec(branches: int, depth: int) -> str:
    """*branches* chains of *depth* nodes (filter, group, filter, ...) under the root."""
    lines = ["ROOT CHILDREN <" + ",".join(f"A{b}" for b in range(1, branches + 1)) + ">"]
    for branch in range(1, branches + 1):
        names = [f"{letter}{branch}" for letter in "ABCDE"[:depth]]
        for level, name in enumerate(names):
            kind = "F" if level % 2 == 0 else "G"
            child = f" and CHILDREN <{names[level + 1]}>" if level + 1 < depth else ""
            lines.append(f"{name} LIKE [{kind},.*]{child}")
    return "\n".join(lines)


#: deep_specs shapes, 8-10 named nodes each, visited in this order.
DEEP_SHAPES = (
    ("chain8", chain_spec(8)),
    ("fan4x2", fan_spec(4, 2)),
    ("chain9", chain_spec(9)),
    ("fan3x3", fan_spec(3, 3)),
    ("chain10", chain_spec(10)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> request bodies served before the timed window.
    setup: Callable[[int], list[dict]]
    #: (seed, count) -> the timed request stream, in send order.
    timed: Callable[[int, int], list[dict]]
    #: Requests/s the 2-CPU reference box completes with one client; a run
    #: of S seconds sends ``requests(S)`` requests, so it takes about S
    #: seconds there.
    rate: float

    def requests(self, seconds: float) -> int:
        # At least 21 samples, so the tail (10 beyond) lies above the median.
        return max(21, round(self.rate * seconds))


#: Meta-goals whose first corpus goal warms every dataset in set-up.
WARM_META_GOALS = (1, 2, 3, 4)


def _warm_tables(seed: int, **fields) -> list[dict]:
    """Cheap requests on every dataset: load tables and lazy engine state.

    Twelve of them, so the set-up repeats of a run compare 24 payloads and
    ``payload_exact_share`` moves in steps of 1/24, not 1/6.
    """
    rng = random.Random(f"warm:{seed}")
    cells = corpus_cells()
    return [
        body(
            f"warm-{dataset}-{meta_goal}", cells[(dataset, meta_goal)][0].goal, dataset,
            episodes=2, seed=rng.randrange(1 << 30), **fields,
        )
        for meta_goal in WARM_META_GOALS
        for dataset in DATASETS
    ]


def _fresh_mix(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"fresh_mix:{seed}")
    return corpus_stream(rng, f"fresh_mix-{seed}", count, episodes=FRESH_EPISODES)


def _cold_setup(seed: int) -> list[dict]:
    # Small tables warm the generation code; every timed table stays cold.
    return _warm_tables(seed, num_rows=300, dataset_seed=seed * 1000)


def _cold_tables(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"cold_tables:{seed}")
    requests = corpus_stream(rng, f"cold_tables-{seed}", count, episodes=COLD_EPISODES)
    for index, request in enumerate(requests):
        request["num_rows"] = COLD_ROWS
        request["dataset_seed"] = seed * 1000 + 100 + index
    return requests


def _deep_specs(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"deep_specs:{seed}")
    requests = []
    for index in range(count):
        shape, spec = DEEP_SHAPES[index % len(DEEP_SHAPES)]
        dataset = DATASETS[(index // len(DEEP_SHAPES)) % len(DATASETS)]
        requests.append(
            body(
                f"deep_specs-{seed}-{index}",
                f"Explore the {dataset} data along a {shape} of analysis steps",
                dataset,
                ldx_text=spec,
                episodes=DEEP_EPISODES,
                seed=rng.randrange(1 << 30),
            )
        )
    return requests


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fresh_mix",
            "the paper's traffic: unique corpus goals, 3/4 natural language, warm "
            "tables; CDRL policy work dominates",
            _warm_tables,
            _fresh_mix,
            4.0,
        ),
        Workload(
            "cold_tables",
            "every request names a table no earlier request used: table generation, "
            "cold fingerprints and cache misses dominate",
            _cold_setup,
            _cold_tables,
            2.1,
        ),
        Workload(
            "deep_specs",
            "explicit 8-10 node chain and fan LDX specs on warm tables: the "
            "structural compliance search is the largest single layer",
            _warm_tables,
            _deep_specs,
            2.7,
        ),
    )
}
