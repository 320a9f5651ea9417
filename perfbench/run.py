"""End-to-end LINX serving benchmark.

One run starts the real server (``python -m repro.engine.server --port 0
--store <fresh dir>``, default 2 thread workers) as its own process, drives
it with one closed-loop client over HTTP, checks every result, and
prints its metrics.  The window is a fixed number of requests per
workload, sized so it lasts about ``--seconds`` on the 2-CPU reference
box.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload fresh_mix --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports the per-layer metrics instead: an untraced and a
traced server each serve half the requests (the same ones), a third
server serves a quarter of them to two concurrent clients, and a quarter
are replayed in-process without HTTP for the sequential reference.

``--repeat N`` runs N fresh runs per workload (seeds ``--seed`` ..
``--seed+N-1``) and prints each metric's median, quartiles and spread
against its bound.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path

from harness import ServerError, ServerProcess, closed_loop

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: Closed-loop clients of a timed window.  One: with two, the server's two
#: worker threads hand its interpreter lock back and forth, and on a shared
#: 2-CPU host the cost of those hand-offs (thread wake-ups) swings from run
#: to run far more than the program's own work does.
CLIENTS = 1
#: Clients of the traced run's extra window, which prices what two
#: concurrent users cost the two GIL-sharing workers.
CONCURRENT_CLIENTS = 2
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "completed_share": "fraction",
    "server_cpu_s_per_req": "s/req",
    "server_peak_rss_mb": "MiB",
    "fully_compliant_share": "fraction",
    "mean_utility": "score",
    "payload_exact_share": "fraction",
}

#: Span names reported per layer as ``<name>.calls`` and ``<name>.self_s``.
LAYER_SPANS = (
    "rl.policy.act",
    "rl.policy.decisions_from_forward",
    "rl.network.forward_batch",
    "rl.policy.accumulate_gradient_batch",
    "rl.optimizer.step",
    "ldx.best_partial_structural_assignment",
    "ldx.verify",
    "cdrl.compliance.on_step",
    "cdrl.compliance.on_episode_end",
    "datasets.load_dataset",
    "dataframe.groupby_agg",
    "dataframe.filter",
    "dataframe.fingerprint",
    "explore.executor.execute_step",
    "explore.env.step",
    "explore.env.observe",
    "explore.reward.step_reward",
    "explore.reward.node_interestingness",
    "store.get_payload_text",
    "store.claim",
    "store.commit_result",
)
STAGES = ("derive_spec", "generate_session", "render_notebook", "extract_insights")

LAYER_UNITS = {
    **{f"{name}.calls": "count/req" for name in LAYER_SPANS},
    **{f"{name}.self_s": "s/req" for name in LAYER_SPANS},
    "explore.cache.hit_rate": "fraction",
    "explore.cache.misses": "count/req",
    "explore.cache.evictions": "count/req",
    **{f"stage.{stage}_s": "s/req" for stage in STAGES},
    "server.submit_rtt_s": "s",
    "server.result_rtt_s": "s",
    "server.result_bytes": "bytes",
    "scheduler.store_served": "count/req",
    "scheduler.queue_wait_s": "s/req",
    "scheduler.run_s": "s/req",
    "scheduler.lease_waits": "count/req",
    "scheduler.rejected": "count",
    "trace.unattributed_share": "fraction",
    "trace.overhead_share": "fraction",
    "engine.sequential_rps": "1/s",
    "server.two_clients_rps": "1/s",
    "server.two_clients_cpu_s_per_req": "s/req",
    "check.exact_payload_drift": "count",
}

#: ``/stats`` ``engine_cache`` counters read around the timed window.
CACHE_COUNTERS = ("hits", "misses", "evictions")


class BenchmarkError(RuntimeError):
    pass


# -- run mechanics ----------------------------------------------------------------------
def set_up(workload, seed: int, workdir: Path, spans_out: Path | None = None):
    """Start a server and serve the workload's set-up requests.

    Returns ``(server, seconds, outcomes)``: the time runs from spawn to
    ready for the timed window.
    """
    started = time.perf_counter()
    server = ServerProcess(ROOT, workdir, spans_out).start()
    try:
        outcomes = closed_loop(server.port, workload.setup(seed), CLIENTS).outcomes
        failed = [outcome.error for outcome in outcomes if not outcome.ok]
        if failed:
            raise BenchmarkError(f"set-up request failed: {failed[0]}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, outcomes


def timed_window(server, workload, seed: int, seconds: float, clients: int = CLIENTS):
    """One closed-loop window plus the server-side counters around it."""
    requests = workload.timed(seed, workload.requests(seconds))
    stats_before = server.get_json("/stats")
    host_before = host_cpu_ticks()
    cpu_before = server.cpu_seconds()
    window = closed_loop(server.port, requests, clients)
    cpu = server.cpu_seconds() - cpu_before
    host = [after - before for after, before in zip(host_cpu_ticks(), host_before)]
    peak_rss = server.peak_rss_mb()
    stats_after = server.get_json("/stats")
    return window, {
        "cpu_s": cpu,
        # CPU time the hypervisor gave to other guests: the host noise that
        # shows up in wall-time metrics and not in server CPU time.
        "host_steal_share": host[7] / max(1, sum(host)) if len(host) > 7 else 0.0,
        "peak_rss_mb": peak_rss,
        "store_hits": stats_after["store"]["hits"] - stats_before["store"]["hits"],
        # Engine-wide counters, so concurrent requests are counted once.
        **{
            f"cache_{counter}": stats_after["engine_cache"][counter]
            - stats_before["engine_cache"][counter]
            for counter in CACHE_COUNTERS
        },
        "lease_waits": stats_after["scheduler"]["leases"]["waits"]
        - stats_before["scheduler"]["leases"]["waits"],
    }


def host_cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user ... steal ...)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


# -- correctness ------------------------------------------------------------------------
#: Significant digits floats keep in the gating payload digest.  Some
#: scores differ in their last bit between server processes, because the
#: program sums floats in the iteration order of sets of strings, which
#: follows the process's hash seed.  Every run reports the share of
#: compared payloads that still agree bit for bit as ``payload_exact_share``.
DIGEST_DIGITS = 12


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def payload_digests(result: dict) -> tuple[str, str]:
    """``(rounded, exact)`` digests of a result payload without its
    load-dependent fields (per-stage ``seconds`` and ``cache_stats``)."""
    payload = dict(result)
    payload.pop("cache_stats", None)
    payload["stages"] = [
        {key: value for key, value in stage.items() if key != "seconds"}
        for stage in payload.get("stages", [])
    ]
    digests = []
    for form in (_rounded(payload), payload):
        text = json.dumps(form, sort_keys=True, separators=(",", ":"))
        digests.append(hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest())
    return digests[0], digests[1]


class Checks:
    """Failed correctness checks, plus last-bit payload drift."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        #: Payload pairs compared, and those that matched only after rounding.
        self.compared = 0
        self.exact_drift = 0

    def exact_share(self) -> float:
        """Share of compared payload pairs that agree bit for bit."""
        return 1.0 - self.exact_drift / self.compared if self.compared else 1.0

    def outcomes(self, outcomes) -> dict[str, dict]:
        """Parse and check every completed result; returns them keyed by
        :func:`request_key`.

        The requests must be distinct, and the server must execute each
        one.  Each result must parse as an ``ExploreResult``, have a
        complete ``generate_session`` stage and echo its request.
        """
        from repro.engine.request import ExploreRequest
        from repro.engine.result import ExploreResult

        hashes = [ExploreRequest.from_dict(o.request).canonical_hash() for o in outcomes]
        if len(set(hashes)) != len(hashes):
            self.problems.append("workload repeated a request")
        results = {}
        for outcome in outcomes:
            if not outcome.ok:
                continue
            label = outcome.request["request_id"]
            try:
                envelope = json.loads(outcome.envelope)
                result = envelope["result"]
                parsed = ExploreResult.from_dict(result)
            except (ValueError, KeyError, TypeError) as exc:
                self.problems.append(f"{label}: unparseable result ({exc})")
                continue
            results[request_key(outcome.request)] = result
            if parsed.stage_status("generate_session") != "complete":
                self.problems.append(f"{label}: generate_session not complete")
            if result["request"] != outcome.request:
                self.problems.append(f"{label}: result does not echo its request")
            if envelope["served_from_store"]:
                self.problems.append(f"{label}: served from the store")
        return results

    def same_payloads(self, label: str, first: dict, second: dict) -> None:
        """Digests of the requests both maps hold must agree."""
        for key in sorted(set(first) & set(second)):
            self.compared += 1
            if first[key][0] != second[key][0]:
                self.problems.append(f"{label}: payload of request {key} differs")
            elif first[key][1] != second[key][1]:
                self.exact_drift += 1

    def earlier_runs(self, workload_name: str, seed: int, digests: dict) -> None:
        """Payload digests must match every earlier run of this seed on the
        same source tree here (changed code may change its payloads)."""
        path = OUT / "digests" / source_digest() / f"{workload_name}-{seed}.json"
        earlier = {}
        if path.exists():
            earlier = {k: tuple(v) for k, v in json.loads(path.read_text()).items()}
        failures = len(self.problems)
        self.same_payloads("earlier run of this seed", earlier, digests)
        if len(self.problems) == failures:
            path.parent.mkdir(parents=True, exist_ok=True)
            merged = {**digests, **earlier}
            path.write_text(json.dumps(merged, sort_keys=True))


def request_key(request: dict) -> str:
    """A request's identity across runs: a digest of its whole body."""
    text = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=10).hexdigest()


def digests_of(results: dict[str, dict]) -> dict[str, tuple[str, str]]:
    return {key: payload_digests(result) for key, result in results.items()}


# -- metrics ----------------------------------------------------------------------------
def end_to_end(
    window, server_stats, setup_seconds, results, payload_exact_share: float
) -> tuple[dict, dict]:
    """The end-to-end metrics, plus details recorded beside them."""
    completed = window.completed
    latencies = sorted(outcome.latency for outcome in completed)
    count = len(latencies)
    if count == 0:
        raise BenchmarkError("no request completed in the window")
    # The tail is the highest percentile with at least 10 samples above it
    # (the maximum, flagged by 0 samples beyond, when a window has fewer).
    beyond = 10 if count > 10 else 0
    distinct = {r["request"]["request_id"]: r for r in results}.values()
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "throughput_rps": count / (window.end - window.start),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": latencies[count - 1 - beyond],
        "completed_share": count / len(window.outcomes),
        "server_cpu_s_per_req": server_stats["cpu_s"] / count,
        "server_peak_rss_mb": server_stats["peak_rss_mb"],
        "fully_compliant_share": sum(r["fully_compliant"] for r in distinct) / len(distinct),
        "mean_utility": statistics.fmean(r["utility_score"] for r in distinct),
        "payload_exact_share": payload_exact_share,
    }
    details = {
        "completed": count,
        "attempted": len(window.outcomes),
        "window_s": window.end - window.start,
        "latency_tail_percentile": round(100.0 * (count - 1 - beyond) / count, 2),
        "latency_tail_samples_beyond": beyond,
        "setup_s_each": setup_seconds,
        "distinct_results": len(distinct),
        "latency_s_by_request": {o.index: o.latency for o in completed},
    }
    return metrics, details


def span_metrics(spans_path: Path, window) -> dict:
    """Per-layer calls and self time per completed request, plus the share
    of client-observed latency no top-level server span covers."""
    import numpy as np

    data = np.load(spans_path)
    names = [str(name) for name in data["names"]]
    request_ids = [str(rid) for rid in data["request_ids"]]
    span, name, start, end = data["span"], data["name"], data["start"], data["end"]
    parent, request = data["parent"], data["request"]
    completed = window.completed
    timed = {outcome.request["request_id"] for outcome in completed}
    timed_request = np.array([rid in timed for rid in request_ids] + [False])
    keep = timed_request[request] & (start >= window.start) & (end <= window.end)
    duration = end - start
    position = np.full(int(max(span.max(), parent.max())) + 1 if span.size else 1, -1, dtype=np.int64)
    position[span] = np.arange(span.size)
    parent_position = np.where(parent >= 0, position[parent], -1)
    has_parent = parent_position >= 0
    children = np.bincount(
        parent_position[has_parent], weights=duration[has_parent], minlength=span.size
    )
    self_time = duration - children
    count = len(completed)
    metrics = {}
    for layer in (*LAYER_SPANS, "scheduler.queue_wait", "scheduler.execute"):
        mask = keep & (name == names.index(layer)) if layer in names else np.zeros_like(keep)
        metrics[f"{layer}.calls"] = float(mask.sum()) / count
        metrics[f"{layer}.self_s"] = float(self_time[mask].sum()) / count
        metrics[f"{layer}.total_s"] = float(duration[mask].sum()) / count
    top: dict[int, list[tuple[float, float]]] = {}
    for index in np.flatnonzero(keep & (parent < 0)):
        top.setdefault(int(request[index]), []).append((start[index], end[index]))
    index_of = {rid: i for i, rid in enumerate(request_ids)}
    covered = 0.0
    for outcome in completed:
        intervals = sorted(top.get(index_of.get(outcome.request["request_id"], -1), []))
        reach = outcome.start
        for low, high in intervals:
            low, high = max(low, reach), min(high, outcome.end)
            if high > low:
                covered += high - low
                reach = high
    total = sum(outcome.latency for outcome in completed)
    metrics["trace.unattributed_share"] = 1.0 - covered / total
    return metrics


def sequential_reference(workload, seed: int, seconds: float) -> tuple[float, dict]:
    """The best simple alternative: the same requests through
    ``LinxEngine.explore`` in this process, one after another, without
    HTTP or threads.  Returns requests/s and each request's payload digests.
    """
    from repro.engine import ExploreRequest, LinxEngine

    engine = LinxEngine()
    for body in workload.setup(seed):
        engine.explore(ExploreRequest.from_dict(body))
    requests = workload.timed(seed, workload.requests(seconds))
    results = {}
    started = time.perf_counter()
    for body in requests:
        results[request_key(body)] = engine.explore(ExploreRequest.from_dict(body)).to_dict()
    elapsed = time.perf_counter() - started
    engine.close()
    return len(requests) / elapsed, digests_of(results)


# -- one run ----------------------------------------------------------------------------
def run_untraced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    checks = Checks()
    setup_seconds, setup_digests = [], []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, spent, outcomes = set_up(workload, seed, workdir / f"server-{attempt}")
            setup_seconds.append(spent)
            setup_digests.append({
                request_key(o.request): payload_digests(json.loads(o.envelope)["result"])
                for o in outcomes
            })
        window, stats = timed_window(server, workload, seed, seconds)
    finally:
        if server is not None:
            server.stop()
    for digests in setup_digests[1:]:
        checks.same_payloads("set-up repeat", setup_digests[0], digests)
    results = checks.outcomes(window.outcomes)
    if stats["store_hits"] != 0:
        checks.problems.append(f"the window saw {stats['store_hits']} store hits")
    checks.earlier_runs(workload.name, seed, digests_of(results))
    metrics, details = end_to_end(
        window, stats, setup_seconds, list(results.values()), checks.exact_share()
    )
    details["exact_payload_drift"] = checks.exact_drift
    details["payloads_compared"] = checks.compared
    details["host_steal_share"] = stats["host_steal_share"]
    return {
        "metrics": metrics,
        "units": E2E_UNITS,
        "details": details,
        "problems": checks.problems,
        "attempted": len(window.outcomes),
        "failed": len(window.outcomes) - len(window.completed),
    }


def run_traced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    checks = Checks()
    windows, stats, results_of, digests = {}, {}, {}, {}
    spans_path = workdir / "spans.npz"
    for label, spans_out, share, clients in (
        ("untraced", None, 0.5, CLIENTS),
        ("traced", spans_path, 0.5, CLIENTS),
        ("two_clients", None, 0.25, CONCURRENT_CLIENTS),
    ):
        server, _, _ = set_up(workload, seed, workdir / label, spans_out)
        try:
            windows[label], stats[label] = timed_window(
                server, workload, seed, seconds * share, clients
            )
        finally:
            server.stop()
        if stats[label]["store_hits"] != 0:
            checks.problems.append(f"the {label} window saw store hits")
        results_of[label] = checks.outcomes(windows[label].outcomes)
        digests[label] = digests_of(results_of[label])
    checks.same_payloads("traced vs untraced", digests["untraced"], digests["traced"])
    checks.same_payloads("two clients vs one", digests["untraced"], digests["two_clients"])
    checks.earlier_runs(workload.name, seed, digests["untraced"])
    sequential_rps, sequential_digests = sequential_reference(workload, seed, seconds / 4.0)
    checks.same_payloads("sequential vs HTTP", digests["untraced"], sequential_digests)

    untraced, traced = windows["untraced"], windows["traced"]
    completed = untraced.completed
    count = len(completed)
    if count == 0 or not traced.completed or not windows["two_clients"].completed:
        raise BenchmarkError("no request completed in a window")
    spans = span_metrics(spans_path, traced)
    results = list(results_of["untraced"].values())
    hits, misses = stats["untraced"]["cache_hits"], stats["untraced"]["cache_misses"]

    def rate(window) -> float:
        return len(window.completed) / (window.end - window.start)

    def cpu_per_request(label: str) -> float:
        return stats[label]["cpu_s"] / len(windows[label].completed)

    def stage_seconds(stage: str) -> float:
        return statistics.fmean(
            next(s["seconds"] for s in r["stages"] if s["name"] == stage) for r in results
        )

    metrics = {key: spans[key] for key in LAYER_UNITS if key in spans}
    metrics.update({
        "explore.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "explore.cache.misses": misses / count,
        "explore.cache.evictions": stats["untraced"]["cache_evictions"] / count,
        **{f"stage.{stage}_s": stage_seconds(stage) for stage in STAGES},
        "server.submit_rtt_s": statistics.median(o.submitted - o.start for o in completed),
        "server.result_rtt_s": statistics.median(o.end - o.events_done for o in completed),
        "server.result_bytes": statistics.fmean(len(o.envelope) for o in completed),
        "scheduler.store_served": sum(
            json.loads(o.envelope)["served_from_store"] for o in completed
        ) / count,
        "scheduler.queue_wait_s": spans["scheduler.queue_wait.total_s"],
        "scheduler.run_s": spans["scheduler.execute.total_s"],
        "scheduler.lease_waits": stats["untraced"]["lease_waits"] / count,
        "scheduler.rejected": float(sum(o.refused for w in windows.values() for o in w.outcomes)),
        "trace.unattributed_share": spans["trace.unattributed_share"],
        # Server CPU per request, which host steal does not move.
        "trace.overhead_share": 1.0 - cpu_per_request("untraced") / cpu_per_request("traced"),
        "engine.sequential_rps": sequential_rps,
        "server.two_clients_rps": rate(windows["two_clients"]),
        "server.two_clients_cpu_s_per_req": cpu_per_request("two_clients"),
        "check.exact_payload_drift": float(checks.exact_drift),
    })
    attempted = sum(len(w.outcomes) for w in windows.values())
    return {
        "metrics": {key: metrics[key] for key in LAYER_UNITS},
        "units": LAYER_UNITS,
        "details": {
            "untraced_rps": rate(untraced),
            "traced_rps": rate(traced),
            "untraced_cpu_s_per_req": cpu_per_request("untraced"),
            "traced_cpu_s_per_req": cpu_per_request("traced"),
            "completed": {label: len(w.completed) for label, w in windows.items()},
            "spans": {k: v for k, v in spans.items() if k not in metrics},
        },
        "problems": checks.problems,
        "attempted": attempted,
        "failed": attempted - sum(len(w.completed) for w in windows.values()),
    }


# -- records ----------------------------------------------------------------------------
@lru_cache(maxsize=1)
def source_digest() -> str:
    """Digest of the program's source tree (``src/**/*.py``)."""
    source = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return source.hexdigest()


def machine_block(seed: int) -> dict:
    import numpy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_digest": source_digest(),
        "workload_seed": seed,
    }


def write_record(record: dict) -> Path:
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    with open(OUT / "trajectory.jsonl", "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def run_once(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "tmp"))
    try:
        runner = run_traced if args.trace else run_untraced
        outcome = runner(workload, args.seed, float(args.seconds), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": CLIENTS,
        "machine": machine_block(args.seed),
        **outcome,
    }
    path = write_record(record)
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"({outcome['attempted']} attempted, {outcome['failed']} failed) -> {path}")
    for key, value in outcome["metrics"].items():
        print(f"  {key:48s} {value:14.6g} {outcome['units'][key]}")
    for key, value in outcome["details"].items():
        if not isinstance(value, dict):
            print(f"  [{key}] {value}")
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            key: {"value": value, "unit": outcome["units"][key]}
            for key, value in outcome["metrics"].items()
        },
    }))
    return 0


# -- repeat mode ------------------------------------------------------------------------
def run_repeat(args) -> int:
    """N fresh runs per workload (``all``: those in ``BENCHMARK.json``);
    median, quartiles and spread per metric."""
    from workloads import WORKLOADS

    bounds, names = {}, list(WORKLOADS)
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
        names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    verdict = 0
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.seed, args.seed + args.repeat):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if completed.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{name} seed={seed}: run failed\n{completed.stderr[-2000:]}")
                verdict = 1
                continue
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{name} seed={seed}: ok", flush=True)
        print(f"\n{name}: {args.repeat} runs")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for key, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            bound = bounds.get(key)
            mark = ""
            if bound is not None:
                mark = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "WIDE")
            print(f"  {key:44s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{bound if bound is not None else '-':>6} {mark}")
    return verdict


def main(argv: list[str] | None = None) -> int:
    # Spelled out: workloads.py imports the program, which may be missing.
    workload_names = ("fresh_mix", "cold_tables", "deep_specs")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workload_names, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="repeat mode: runs per workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "engine" / "server.py").is_file():
        print(f"no LINX source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still stops its servers (the ``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.repeat:
        return run_repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    try:
        return run_once(args)
    except (BenchmarkError, ServerError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
