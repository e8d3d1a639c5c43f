"""Mini MIPS-like instruction representation for the timing models.

Instructions are stored as parallel numpy arrays (structure-of-arrays):
the timing cores walk hundreds of thousands of them per run, so per-
instruction objects would dominate runtime. :class:`InstructionTrace`
wraps the arrays with validation and convenient views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import TraceError

if TYPE_CHECKING:
    from repro.cpu.branch import TwoLevelPredictor


class OpClass(enum.IntEnum):
    """Functional classes with distinct latencies/ports."""

    INT_ALU = 0
    INT_MUL = 1
    FP_ALU = 2
    FP_MUL = 3
    FP_DIV = 4
    LOAD = 5
    STORE = 6
    BRANCH = 7


#: Execution latency in cycles, indexed by :class:`OpClass` value so the
#: cores index it with each instruction's raw int op class (memory latency
#: is supplied by the memory model). Typical early-90s pipeline values.
OP_LATENCY: tuple[int, ...] = (
    1,   # INT_ALU
    3,   # INT_MUL
    2,   # FP_ALU
    4,   # FP_MUL
    12,  # FP_DIV
    1,   # LOAD: address generation; cache time added by the core
    1,   # STORE
    1,   # BRANCH
)

#: Register file size used by the synthetic dependency weaver.
NUM_REGS = 64

#: Source-operand sentinel for "no dependency".
NO_REG = -1

#: Register slots of a decoded trace: the NUM_REGS registers, then one
#: slot that no instruction writes, which every absent source reads (so
#: it is ready at cycle 0), and one that no instruction reads, which
#: every absent destination writes.
ABSENT_SOURCE = NUM_REGS
ABSENT_DEST = NUM_REGS + 1
REGISTER_SLOTS = NUM_REGS + 2


class DecodedTrace(NamedTuple):
    """The timing cores' view of an :class:`InstructionTrace`.

    The register columns name slots of a ``REGISTER_SLOTS`` file: absent
    operands read :data:`ABSENT_SOURCE` and write :data:`ABSENT_DEST`.
    ``mispredicted`` holds 1 at each branch the decoding predictor got
    wrong and 0 at every other instruction. No run changes it, so every
    run of one trace under one predictor size can share it.
    """

    opclass: list[int]
    dest: list[int]
    src1: list[int]
    src2: list[int]
    address: list[int]
    mispredicted: bytes
    branches: int
    mispredictions: int


@dataclass(slots=True)
class InstructionTrace:
    """A structure-of-arrays instruction stream.

    Attributes
    ----------
    opclass:
        int8 array of :class:`OpClass` values.
    dest, src1, src2:
        int16 register numbers; ``NO_REG`` marks an absent operand.
        ``dest`` of stores and branches is ``NO_REG``.
    address:
        int64 byte address for loads/stores, 0 elsewhere.
    taken:
        bool array; meaningful for branches only.
    pc:
        int64 synthetic program counter per instruction (used by the
        branch predictor's history tables).
    """

    opclass: np.ndarray
    dest: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    address: np.ndarray
    taken: np.ndarray
    pc: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        n = self.opclass.size
        for field_name in ("dest", "src1", "src2", "address", "taken", "pc"):
            array = getattr(self, field_name)
            if array.size != n:
                raise TraceError(
                    f"instruction trace field {field_name} has length "
                    f"{array.size}, expected {n}"
                )

    def __len__(self) -> int:
        return int(self.opclass.size)

    @property
    def is_mem(self) -> np.ndarray:
        return (self.opclass == OpClass.LOAD) | (self.opclass == OpClass.STORE)

    @property
    def is_store(self) -> np.ndarray:
        return self.opclass == OpClass.STORE

    @property
    def is_branch(self) -> np.ndarray:
        return self.opclass == OpClass.BRANCH

    @property
    def memory_reference_count(self) -> int:
        return int(self.is_mem.sum())

    def decode(self, predictor: "TwoLevelPredictor") -> DecodedTrace:
        """The columns the timing runs iterate, as Python lists, with
        every branch's outcome under *predictor*, which trains over the
        branches in program order. One decode serves every run of the
        trace under one predictor size."""
        for field_name, low, high in (
            ("opclass", 0, len(OP_LATENCY)),
            ("dest", NO_REG, NUM_REGS),
            ("src1", NO_REG, NUM_REGS),
            ("src2", NO_REG, NUM_REGS),
        ):
            values = getattr(self, field_name)
            if values.size and not (low <= values.min() and values.max() < high):
                raise TraceError(
                    f"instruction trace field {field_name} holds a value "
                    f"outside [{low}, {high})"
                )
        branch = self.opclass == OpClass.BRANCH
        missed = predictor.train(
            self.pc[branch].tolist(), self.taken[branch].tolist()
        )
        mispredicted = np.zeros(len(self), dtype=np.uint8)
        mispredicted[branch] = missed
        return DecodedTrace(
            opclass=self.opclass.tolist(),
            dest=np.where(self.dest == NO_REG, ABSENT_DEST, self.dest).tolist(),
            src1=np.where(self.src1 == NO_REG, ABSENT_SOURCE, self.src1).tolist(),
            src2=np.where(self.src2 == NO_REG, ABSENT_SOURCE, self.src2).tolist(),
            address=self.address.tolist(),
            mispredicted=mispredicted.tobytes(),
            branches=len(missed),
            mispredictions=sum(missed),
        )

    def head(self, count: int) -> "InstructionTrace":
        """First *count* instructions (bounds timing-test runtime)."""
        if count <= 0:
            raise TraceError(f"count must be positive, got {count}")
        return InstructionTrace(
            opclass=self.opclass[:count],
            dest=self.dest[:count],
            src1=self.src1[:count],
            src2=self.src2[:count],
            address=self.address[:count],
            taken=self.taken[:count],
            pc=self.pc[:count],
            name=self.name,
        )

    def __repr__(self) -> str:
        mem = self.memory_reference_count
        return (
            f"<InstructionTrace {self.name!r} len={len(self)} "
            f"mem={mem} ({mem / max(1, len(self)):.0%})>"
        )
