"""Memoized query execution: an LRU cache of ``(view, operation)`` results.

The exploration agents take thousands of MDP steps per training run, and the
factored action space is small enough that the same parametric operation is
applied to the same view over and over across episodes.  Because
:class:`~repro.dataframe.table.DataTable` views are immutable, the result of
executing an operation on a view is a pure function of

* the view's content fingerprint (:meth:`DataTable.fingerprint` — name, row
  count, schema and a per-column content digest, computed once per
  instance), and
* the operation's positional :meth:`Operation.signature`.

:class:`ExecutionCache` memoises those results in an LRU map.  A cache hit
returns the *same* immutable ``DataTable`` object that the original execution
produced, so repeated episodes share views (and all the per-view memoised
statistics that hang off them) instead of re-scanning the data.

Two key families share the one LRU: per-operation keys ``(view
fingerprint, operation signature)`` — the eager reference path — and
*semantic* plan keys ``(base fingerprint, ("PLAN", canonical plan
fingerprint))`` written by the query planner
(:meth:`~repro.explore.executor.QueryExecutor.execute_plan`).  Because the
plan component is a canonical-form digest, pipelines that differ only in
filter ordering, duplicated predicates or undone (back) steps collapse to
one entry; ``stats.plan_hits`` counts the lookups served that way.

Successful executions are cached as result views; runtime *failures* are
cached too, in a separate bounded negative map (``(view, operation)`` ->
error message).  Validity testing is mostly static —
:meth:`QueryExecutor.can_execute` is a schema-only check and
:meth:`ActionSpace.valid_mask` batches it per head for policy-side action
masking — but operations that pass the static check and still fail at
runtime (e.g. an ``AggregationError`` over mixed-type values) would
otherwise re-execute from scratch on every repeat; the negative cache
short-circuits them.

Every public operation holds the cache's one reentrant lock, so a cache
can be shared across a thread pool (as :class:`~repro.engine.core.LinxEngine`
shares one across its requests).  Single-threaded callers — the trainers
and benchmarks — take the lock uncontended, well under a microsecond per
call.

Bounding is two-dimensional: ``max_entries`` caps the *number* of cached
result views, and the optional ``max_cached_rows`` caps the approximate
*volume* (total rows across all cached views), so thousands of near-full
filtered copies of a large dataset cannot accumulate before count-based
eviction kicks in.

For persistence across processes and restarts see
:mod:`repro.explore.diskcache`, which layers this memory LRU over a
schema-versioned sqlite tier (read-through, batched write-behind).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.dataframe.table import DataTable

from .operations import Operation

#: Default maximum number of cached result views.
DEFAULT_MAX_ENTRIES = 4096

#: Default maximum number of cached failure outcomes.
DEFAULT_MAX_ERROR_ENTRIES = 1024

#: Cache key: (view fingerprint, operation signature *or* plan tag).
CacheKey = tuple[tuple, tuple[str, ...]]

#: First element of the second key component for plan-keyed entries.  The
#: tag cannot collide with operation signatures, whose first element is
#: always a single-letter kind code.
PLAN_KEY_TAG = "PLAN"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of an :class:`ExecutionCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Lookups answered from the negative (cached-failure) map.
    negative_hits: int = 0
    #: Hits served under a canonical-plan key (a subset of ``hits``).
    plan_hits: int = 0
    #: Fused multi-operation segments executed by the planner (each one
    #: replaces >= 2 eager materialisations with a single pass).
    fusion_count: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "negative_hits": self.negative_hits,
            "plan_hits": self.plan_hits,
            "fusion_count": self.fusion_count,
            "hit_rate": round(self.hit_rate, 4),
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.negative_hits = 0
        self.plan_hits = 0
        self.fusion_count = 0


class ExecutionCache:
    """LRU cache mapping ``(view fingerprint, operation signature)`` -> result view.

    Parameters
    ----------
    max_entries:
        Upper bound on cached results; the least recently used entry is
        evicted when the bound is exceeded.  Must be positive.
    max_cached_rows:
        Optional upper bound on the approximate cached volume: the sum of
        ``len(view)`` over all cached result views.  When exceeded, least
        recently used entries are evicted until the budget is met again
        (the most recent entry is always kept, even if it alone exceeds
        the budget).  ``None`` (the default) disables volume bounding.
    max_error_entries:
        Upper bound on cached *failure* outcomes (runtime execution errors
        memoised by :meth:`put_error`); the least recently used failure is
        dropped when exceeded.  Failures are bounded separately from
        results because an error entry is just a message string.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_cached_rows: int | None = None,
        max_error_entries: int = DEFAULT_MAX_ERROR_ENTRIES,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_cached_rows is not None and max_cached_rows < 1:
            raise ValueError("max_cached_rows must be positive when given")
        if max_error_entries < 1:
            raise ValueError("max_error_entries must be positive")
        self.max_entries = max_entries
        self.max_cached_rows = max_cached_rows
        self.max_error_entries = max_error_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, DataTable]" = OrderedDict()
        self._row_counts: dict[CacheKey, int] = {}
        self._cached_rows = 0
        self._errors: "OrderedDict[CacheKey, str]" = OrderedDict()
        #: Guards the LRU order, row accounting and statistics; reentrant so
        #: tier layers can call public operations (``flush`` inside a put)
        #: while already holding it.
        self._lock = threading.RLock()

    @staticmethod
    def key_for(view: DataTable, operation: Operation) -> CacheKey:
        """The cache key of executing *operation* against *view*."""
        return (view.fingerprint(), operation.signature())

    @staticmethod
    def plan_key_for(base: DataTable, plan) -> CacheKey:
        """The semantic cache key of executing *plan* against *base*.

        *plan* is a canonical :class:`~repro.plan.nodes.LogicalPlan`
        (duck-typed on ``fingerprint()`` to keep this module free of a plan
        dependency).  Every operation ordering that canonicalizes to the
        same plan shares this key, across the memory and disk tiers alike.
        """
        return (base.fingerprint(), (PLAN_KEY_TAG, plan.fingerprint()))

    def _fetch(self, key: CacheKey) -> DataTable | None:
        """The raw (stat-free) lookup; tier layers override this."""
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
        return result

    def _put_key(self, key: CacheKey, result: DataTable) -> None:
        """The raw insert behind :meth:`put`; tier layers override this."""
        self._store(key, result)

    def get(self, view: DataTable, operation: Operation) -> DataTable | None:
        """The cached result view, or ``None`` (counts a hit or a miss)."""
        key = self.key_for(view, operation)
        with self._lock:
            result = self._fetch(key)
            if result is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return result

    def put(self, view: DataTable, operation: Operation, result: DataTable) -> None:
        """Store the result of executing *operation* on *view*."""
        key = self.key_for(view, operation)
        with self._lock:
            self._put_key(key, result)

    def get_plan(self, base: DataTable, plan) -> DataTable | None:
        """The view cached under ``(base, canonical plan)``, or ``None``.

        Counts into the shared hit/miss statistics like :meth:`get`, plus
        ``stats.plan_hits`` so plan-level sharing is observable on its own.
        """
        key = self.plan_key_for(base, plan)
        with self._lock:
            result = self._fetch(key)
            if result is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self.stats.plan_hits += 1
            return result

    def put_plan(self, base: DataTable, plan, result: DataTable) -> None:
        """Store the result of executing the canonical *plan* on *base*."""
        key = self.plan_key_for(base, plan)
        with self._lock:
            self._put_key(key, result)

    def _store(self, key: CacheKey, result: DataTable) -> None:
        """Insert *result* under *key*, evicting per the entry/row budgets.

        Split out of :meth:`put` so tier layers (the disk-backed cache)
        can promote deserialized entries into the memory LRU without
        re-deriving the key or re-queuing a write-behind.
        """
        rows = len(result)
        if key in self._row_counts:
            self._cached_rows -= self._row_counts[key]
        self._entries[key] = result
        self._entries.move_to_end(key)
        self._row_counts[key] = rows
        self._cached_rows += rows
        while len(self._entries) > self.max_entries or (
            self.max_cached_rows is not None
            and self._cached_rows > self.max_cached_rows
            and len(self._entries) > 1
        ):
            evicted_key, _ = self._entries.popitem(last=False)
            self._cached_rows -= self._row_counts.pop(evicted_key)
            self.stats.evictions += 1

    def get_error(self, view: DataTable, operation: Operation) -> str | None:
        """The memoised failure message for ``(view, operation)``, or ``None``.

        A hit counts towards ``stats.negative_hits``; a miss is silent (the
        caller is about to execute and will count the regular miss).
        """
        key = self.key_for(view, operation)
        with self._lock:
            message = self._errors.get(key)
            if message is None:
                return None
            self._errors.move_to_end(key)
            self.stats.negative_hits += 1
            return message

    def put_error(self, view: DataTable, operation: Operation, message: str) -> None:
        """Memoise a runtime execution failure for ``(view, operation)``."""
        key = self.key_for(view, operation)
        with self._lock:
            self._errors[key] = message
            self._errors.move_to_end(key)
            while len(self._errors) > self.max_error_entries:
                self._errors.popitem(last=False)

    @property
    def cached_rows(self) -> int:
        """Approximate cached volume: total rows across all cached views."""
        return self._cached_rows

    @property
    def negative_entries(self) -> int:
        """Number of memoised failure outcomes."""
        return len(self._errors)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry (results and failures) and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._row_counts.clear()
            self._cached_rows = 0
            self._errors.clear()
            self.stats.reset()

    @property
    def plan_entries(self) -> int:
        """Number of memory-tier entries stored under canonical-plan keys."""
        with self._lock:
            return sum(
                1
                for key in self._entries
                if key[1] and key[1][0] == PLAN_KEY_TAG
            )

    def describe(self) -> dict[str, float | int | None]:
        """Hit/miss counters plus occupancy, for telemetry payloads."""
        with self._lock:
            summary: dict[str, float | int | None] = dict(self.stats.as_dict())
            summary["entries"] = len(self._entries)
            summary["plan_entries"] = self.plan_entries
            summary["cached_rows"] = self._cached_rows
            summary["negative_entries"] = len(self._errors)
        summary["max_entries"] = self.max_entries
        summary["max_cached_rows"] = self.max_cached_rows
        summary["max_error_entries"] = self.max_error_entries
        return summary

    def snapshot_counters(self) -> tuple[int, int, int, int, int]:
        """A consistent ``(hits, misses, evictions, plan_hits, fusion_count)`` snapshot.

        Used by the engine for per-request deltas.
        """
        with self._lock:
            return (
                self.stats.hits,
                self.stats.misses,
                self.stats.evictions,
                self.stats.plan_hits,
                self.stats.fusion_count,
            )

    def __repr__(self) -> str:
        return (
            f"ExecutionCache(entries={len(self)}/{self.max_entries}, "
            f"rows={self._cached_rows}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"hit_rate={self.stats.hit_rate:.2%})"
        )
