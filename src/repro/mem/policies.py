"""Replacement policies for the set-associative cache model.

Three demand policies (LRU, FIFO, random) plus Belady's MIN oracle [3],
which the paper uses both inside the minimal-traffic cache and as the
"Replacement" factor of its Table 9 decomposition. MIN needs the future
reference stream; callers provide it through :meth:`ReplacementPolicy.prepare`
before simulation starts (the classic two-pass scheme of Sugumar &
Abraham [44]).

Each policy instance manages *all* sets of one cache: per-set state is kept
in small per-set structures indexed by set number.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError, SimulationError

#: Sentinel "never referenced again" distance for the MIN oracle.
NEVER = 1 << 62


class ReplacementPolicy(ABC):
    """Chooses victims within one set of a set-associative cache."""

    #: Registry name (set by subclasses, used by :func:`make_policy`).
    name: str = ""
    #: True when the policy needs the future trace via :meth:`prepare`.
    needs_future: bool = False

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ConfigurationError(
                f"need positive sets/ways, got {num_sets}/{ways}"
            )
        self.num_sets = num_sets
        self.ways = ways

    def prepare(self, block_sequence: np.ndarray) -> None:
        """Receive the full trace's block-id sequence before simulation.

        Only oracle policies use this; demand policies ignore it.
        """

    @abstractmethod
    def on_access(self, set_index: int, block: int, time: int) -> None:
        """Record a hit on *block* (already resident) at trace position *time*."""

    @abstractmethod
    def on_fill(self, set_index: int, block: int, time: int) -> None:
        """Record that *block* was just inserted at trace position *time*."""

    @abstractmethod
    def on_evict(self, set_index: int, block: int) -> None:
        """Record that *block* left the set (eviction or invalidation)."""

    @abstractmethod
    def choose_victim(self, set_index: int, time: int) -> int:
        """Return the resident block to evict from a full set."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the block untouched the longest."""

    name = "lru"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        # Per set: block -> last-touch time. Python dicts preserve insertion
        # order, but we need recency order under re-touches, so store times.
        self._last_touch: list[dict[int, int]] = [{} for _ in range(num_sets)]

    def on_access(self, set_index: int, block: int, time: int) -> None:
        self._last_touch[set_index][block] = time

    def on_fill(self, set_index: int, block: int, time: int) -> None:
        self._last_touch[set_index][block] = time

    def on_evict(self, set_index: int, block: int) -> None:
        self._last_touch[set_index].pop(block, None)

    def choose_victim(self, set_index: int, time: int) -> int:
        touches = self._last_touch[set_index]
        if not touches:
            raise SimulationError("victim requested from an empty set")
        return min(touches, key=touches.__getitem__)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: evict the block resident the longest."""

    name = "fifo"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._fill_time: list[dict[int, int]] = [{} for _ in range(num_sets)]

    def on_access(self, set_index: int, block: int, time: int) -> None:
        pass  # hits do not affect FIFO order

    def on_fill(self, set_index: int, block: int, time: int) -> None:
        self._fill_time[set_index][block] = time

    def on_evict(self, set_index: int, block: int) -> None:
        self._fill_time[set_index].pop(block, None)

    def choose_victim(self, set_index: int, time: int) -> int:
        fills = self._fill_time[set_index]
        if not fills:
            raise SimulationError("victim requested from an empty set")
        return min(fills, key=fills.__getitem__)


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim choice (deterministic given the seed)."""

    name = "random"

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways)
        self._rng = np.random.default_rng(seed)
        self._resident: list[list[int]] = [[] for _ in range(num_sets)]

    def on_access(self, set_index: int, block: int, time: int) -> None:
        pass

    def on_fill(self, set_index: int, block: int, time: int) -> None:
        self._resident[set_index].append(block)

    def on_evict(self, set_index: int, block: int) -> None:
        try:
            self._resident[set_index].remove(block)
        except ValueError as exc:
            raise SimulationError(
                f"evicting non-resident block {block:#x}"
            ) from exc

    def choose_victim(self, set_index: int, time: int) -> int:
        resident = self._resident[set_index]
        if not resident:
            raise SimulationError("victim requested from an empty set")
        return resident[int(self._rng.integers(len(resident)))]


class MINPolicy(ReplacementPolicy):
    """Belady's MIN oracle: evict the block referenced furthest in the
    future (or never again).

    Implementation: :meth:`prepare` computes, for each trace position, the
    position of the next reference to the same block (a single backward
    pass). During simulation each set keeps a lazy max-heap keyed on the
    resident blocks' next-use positions; stale heap entries are discarded
    when popped.
    """

    name = "min"
    needs_future = True

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._next_use: np.ndarray | None = None
        self._current_next: list[dict[int, int]] = [{} for _ in range(num_sets)]
        self._heaps: list[list[tuple[int, int]]] = [[] for _ in range(num_sets)]

    def prepare(self, block_sequence: np.ndarray) -> None:
        self._next_use = compute_next_use(block_sequence)

    def _require_prepared(self) -> np.ndarray:
        if self._next_use is None:
            raise SimulationError(
                "MINPolicy.prepare() must be called with the trace's block "
                "sequence before simulation"
            )
        return self._next_use

    def _touch(self, set_index: int, block: int, time: int) -> None:
        next_use = int(self._require_prepared()[time])
        self._current_next[set_index][block] = next_use
        heapq.heappush(self._heaps[set_index], (-next_use, block))

    def on_access(self, set_index: int, block: int, time: int) -> None:
        self._touch(set_index, block, time)

    def on_fill(self, set_index: int, block: int, time: int) -> None:
        self._touch(set_index, block, time)

    def on_evict(self, set_index: int, block: int) -> None:
        self._current_next[set_index].pop(block, None)

    def choose_victim(self, set_index: int, time: int) -> int:
        current = self._current_next[set_index]
        heap = self._heaps[set_index]
        while heap:
            negated, block = heap[0]
            if current.get(block) == -negated:
                return block
            heapq.heappop(heap)  # stale entry
        raise SimulationError("victim requested from an empty set")


def compute_next_use(block_sequence: np.ndarray) -> np.ndarray:
    """For each position i, the next position referencing the same block.

    Positions with no later reference get :data:`NEVER`. Vectorized: a
    stable argsort groups each block's occurrences in time order, so every
    occurrence's successor within its group is its next use. Equivalent to
    the obvious backward dict sweep, but an order of magnitude faster —
    this is pass 1 of every MIN simulation.
    """
    n = int(block_sequence.size)
    next_use = np.full(n, NEVER, dtype=np.int64)
    if n == 0:
        return next_use
    order = np.argsort(block_sequence, kind="stable")
    grouped = block_sequence[order]
    same_block = grouped[1:] == grouped[:-1]
    next_use[order[:-1][same_block]] = order[1:][same_block]
    return next_use


_POLICIES: dict[str, type[ReplacementPolicy]] = {
    cls.name: cls for cls in (LRUPolicy, FIFOPolicy, RandomPolicy, MINPolicy)
}


def policy_class(name: str) -> type[ReplacementPolicy]:
    """The replacement policy registered as *name* (any case)."""
    cls = _POLICIES.get(name.lower())
    if cls is None:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; known: {sorted(_POLICIES)}"
        )
    return cls


def make_policy(name: str, num_sets: int, ways: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by registry name."""
    return policy_class(name)(num_sets, ways)
