"""Memory-trace containers.

A :class:`MemTrace` is an immutable, numpy-backed sequence of data-memory
references. Following the paper's methodology (Section 4.1) every reference
is a 4-byte word access; the QPT front end (:mod:`repro.trace.qpt`) splits
wider accesses into consecutive word accesses before they reach any
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import TraceError

#: All simulated requests are one machine word, as in the paper ("We assume
#: requests of four-byte words for all experiments", Section 5.2).
WORD_BYTES = 4


@dataclass(frozen=True, slots=True)
class MemRecord:
    """One data-memory reference: a word-aligned address plus a kind."""

    address: int
    is_write: bool

    @property
    def is_read(self) -> bool:
        return not self.is_write

    @property
    def word(self) -> int:
        """Word index of the reference (address / word size)."""
        return self.address // WORD_BYTES


class MemTrace:
    """An immutable sequence of word-granularity memory references.

    Parameters
    ----------
    addresses:
        Byte addresses of the references. They are word-aligned on
        construction (the low two bits are cleared), matching the
        word-request model of the paper.
    is_write:
        Boolean array marking stores; parallel to *addresses*.
    name:
        Optional label (the generating workload's name) used in reports.
    """

    __slots__ = ("_addresses", "_is_write", "name")

    def __init__(
        self,
        addresses: Iterable[int] | np.ndarray,
        is_write: Iterable[bool] | np.ndarray,
        name: str = "",
    ) -> None:
        addr = np.asarray(addresses, dtype=np.int64)
        writes = np.asarray(is_write, dtype=bool)
        if addr.ndim != 1 or writes.ndim != 1:
            raise TraceError("trace arrays must be one-dimensional")
        if addr.shape != writes.shape:
            raise TraceError(
                f"address/kind length mismatch: {addr.shape[0]} vs {writes.shape[0]}"
            )
        if addr.size and addr.min() < 0:
            raise TraceError("trace contains a negative address")
        # Word-align every address; simulators all operate on words. The
        # mask returns a new array; np.asarray may alias a bool input, so
        # the write flags are copied.
        self._addresses = addr & ~np.int64(WORD_BYTES - 1)
        self._addresses.setflags(write=False)
        self._is_write = writes.copy()
        self._is_write.setflags(write=False)
        self.name = name

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return int(self._addresses.size)

    def __iter__(self) -> Iterator[MemRecord]:
        for address, write in zip(self._addresses.tolist(), self._is_write.tolist()):
            yield MemRecord(address, write)

    def __getitem__(self, index: int | slice) -> "MemRecord | MemTrace":
        if isinstance(index, slice):
            return MemTrace(
                self._addresses[index], self._is_write[index], name=self.name
            )
        return MemRecord(int(self._addresses[index]), bool(self._is_write[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemTrace):
            return NotImplemented
        return bool(
            np.array_equal(self._addresses, other._addresses)
            and np.array_equal(self._is_write, other._is_write)
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<MemTrace{label} len={len(self)} footprint={self.footprint_bytes}B>"

    # -- array views ----------------------------------------------------------------

    @property
    def addresses(self) -> np.ndarray:
        """Read-only array of word-aligned byte addresses."""
        return self._addresses

    @property
    def is_write(self) -> np.ndarray:
        """Read-only boolean array; True marks stores."""
        return self._is_write

    @property
    def words(self) -> np.ndarray:
        """Word indices (address / 4) of every reference."""
        return self._addresses >> 2

    # -- summary statistics -----------------------------------------------------------

    @property
    def read_count(self) -> int:
        return len(self) - self.write_count

    @property
    def write_count(self) -> int:
        return int(self._is_write.sum())

    @property
    def footprint_bytes(self) -> int:
        """Number of distinct bytes touched (distinct words x word size)."""
        if not len(self):
            return 0
        return int(np.unique(self._addresses).size) * WORD_BYTES

    @property
    def request_bytes(self) -> int:
        """Total bytes requested by the processor (refs x word size).

        This is the denominator of the paper's traffic ratio: "the product
        of the loads and stores issued and the load/store size".
        """
        return len(self) * WORD_BYTES

    # -- construction helpers ----------------------------------------------------------

    @classmethod
    def concatenate(cls, traces: Iterable["MemTrace"], name: str = "") -> "MemTrace":
        """Join several traces into one, preserving order."""
        items = list(traces)
        if not items:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), name=name)
        return cls(
            np.concatenate([t._addresses for t in items]),
            np.concatenate([t._is_write for t in items]),
            name=name or items[0].name,
        )

    @classmethod
    def from_records(cls, records: Iterable[MemRecord], name: str = "") -> "MemTrace":
        """Build a trace from individual :class:`MemRecord` objects."""
        items = list(records)
        return cls(
            np.fromiter((r.address for r in items), dtype=np.int64, count=len(items)),
            np.fromiter((r.is_write for r in items), dtype=bool, count=len(items)),
            name=name,
        )

    def with_name(self, name: str) -> "MemTrace":
        """Return the same trace relabelled as *name* (arrays are shared)."""
        clone = MemTrace.__new__(MemTrace)
        clone._addresses = self._addresses
        clone._is_write = self._is_write
        clone.name = name
        return clone
