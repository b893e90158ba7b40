"""Comparison micro-kernels: the innermost operation of every algorithm.

Alachiotis et al. [11] replace the GEMM multiply-add with the sequence
*logical op* -> *population count* -> *integer add*::

    gamma[i, j] += POPC(op(alpha[i, k], beta[k, j]))

The three applications differ only in ``op`` (Section II of the paper):

=================  ==========================  =========================
Application        op                           Notes
=================  ==========================  =========================
LD                 ``a & b``                    Eq. (1)
FastID identity    ``a ^ b``                    Eq. (2)
FastID mixture     ``r & ~m``                   Eq. (3) simplified; on
                                                hardware with a fused
                                                AND-NOT this is one
                                                instruction, otherwise
                                                NOT + AND (two).
=================  ==========================  =========================

Each :class:`MicroKernel` carries

* the word-level combiner (a NumPy ufunc expression) used by the
  host GEMM drivers, and
* the **instruction mix** per packed word -- how many ALU-class ops
  (AND/XOR/NOT/ADD) and POPC-class ops the comparison costs -- which
  the performance model turns into pipeline occupancies (Section V-D:
  on Vega, ADD and AND share a pipeline and become the bottleneck; on
  NVIDIA the scarcer POPC units do).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ModelError

__all__ = [
    "ComparisonOp",
    "InstructionMix",
    "MicroKernel",
    "MICROKERNELS",
    "get_microkernel",
]


class ComparisonOp(enum.Enum):
    """The word-level logical operation of a SNP comparison."""

    AND = "and"            # linkage disequilibrium, Eq. (1)
    XOR = "xor"            # FastID identity search, Eq. (2)
    ANDNOT = "andnot"      # FastID mixture analysis, Eq. (3) simplified
    # Mixture analysis against a *pre-negated* database (Section II-C):
    # the NOT is folded into the data, so at kernel level this is AND.
    AND_PRENEGATED = "and_prenegated"

    @property
    def is_symmetric(self) -> bool:
        """Whether op(a, b) == op(b, a) (allows C = C^T shortcuts)."""
        return self in (ComparisonOp.AND, ComparisonOp.XOR, ComparisonOp.AND_PRENEGATED)


@dataclass(frozen=True)
class InstructionMix:
    """Instruction counts per packed word of the inner loop body.

    ``alu`` counts 32-bit integer/logic operations that execute on the
    general ALU pipe (AND, XOR, NOT, integer ADD); ``popc`` counts
    population-count operations; ``fused_alu`` is the ALU count when
    the target exposes a fused AND-NOT instruction (BFI/LOP3-style on
    NVIDIA, V_ANDN2 on GCN).
    """

    alu: int
    popc: int
    fused_alu: int

    def alu_ops(self, has_fused_andnot: bool) -> int:
        """ALU-op count given the target's fused-AND-NOT support."""
        return self.fused_alu if has_fused_andnot else self.alu


@dataclass(frozen=True)
class MicroKernel:
    """A comparison micro-kernel: combiner plus instruction mix.

    The combiner maps two packed-word arrays to the packed comparison
    result; the accumulation ``gamma += POPC(result)`` is shared by all
    kernels and accounted separately (1 POPC + 1 ADD per word).
    """

    op: ComparisonOp
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # Mix of the *combiner only*; accumulate adds (1 popc, 1 alu add).
    combine_mix: InstructionMix
    description: str

    @property
    def mix(self) -> InstructionMix:
        """Full per-word mix including the POPC and the accumulate ADD."""
        return InstructionMix(
            alu=self.combine_mix.alu + 1,
            popc=self.combine_mix.popc + 1,
            fused_alu=self.combine_mix.fused_alu + 1,
        )


def _and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_and(a, b)


def _xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_xor(a, b)


def _andnot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_and(a, np.bitwise_not(b))


MICROKERNELS: dict[ComparisonOp, MicroKernel] = {
    ComparisonOp.AND: MicroKernel(
        op=ComparisonOp.AND,
        combine=_and,
        combine_mix=InstructionMix(alu=1, popc=0, fused_alu=1),
        description="gamma += POPC(a & b)  [linkage disequilibrium]",
    ),
    ComparisonOp.XOR: MicroKernel(
        op=ComparisonOp.XOR,
        combine=_xor,
        combine_mix=InstructionMix(alu=1, popc=0, fused_alu=1),
        description="gamma += POPC(a ^ b)  [FastID identity search]",
    ),
    ComparisonOp.ANDNOT: MicroKernel(
        op=ComparisonOp.ANDNOT,
        combine=_andnot,
        # NOT + AND on plain ALUs; a single fused op where supported.
        combine_mix=InstructionMix(alu=2, popc=0, fused_alu=1),
        description="gamma += POPC(r & ~m)  [FastID mixture analysis]",
    ),
    ComparisonOp.AND_PRENEGATED: MicroKernel(
        op=ComparisonOp.AND_PRENEGATED,
        combine=_and,
        combine_mix=InstructionMix(alu=1, popc=0, fused_alu=1),
        description=(
            "gamma += POPC(r & m_neg)  [mixture analysis, database pre-negated]"
        ),
    ),
}


def get_microkernel(op: ComparisonOp | str) -> MicroKernel:
    """Look up a micro-kernel by :class:`ComparisonOp` or its value string."""
    if isinstance(op, str):
        try:
            op = ComparisonOp(op)
        except ValueError as exc:
            valid = ", ".join(o.value for o in ComparisonOp)
            raise ModelError(
                f"get_microkernel: unknown op {op!r} (valid: {valid})"
            ) from exc
    kernel = MICROKERNELS.get(op)
    if kernel is None:
        raise ModelError(f"get_microkernel: no kernel registered for {op!r}")
    return kernel
