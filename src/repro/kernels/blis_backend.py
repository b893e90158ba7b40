"""``blis`` backend: the BLIS five-loop walk behind the kernel ABI.

The simulated device computes its functional results with the BLIS
walk (packed micro-panels, popcount micro-kernel) -- the structure the
paper's kernel has and the device cycle model prices.  Registering the
one walk (:func:`repro.blis.gemm.blis_walk`) here lets every layer
reach it by name: the serial driver's size rule, engine shards,
``--backend blis`` and the tuner's race.  A panel call walks the
host-default blocking; the serial driver walks the caller's plan, and
its Gram form skips below-diagonal tiles.
"""

from __future__ import annotations

import numpy as np

from repro.blis.gemm import blis_walk, host_plan
from repro.blis.microkernel import ComparisonOp
from repro.kernels.abi import BackendInfo, KernelBackend, check_panel_operands

__all__ = ["BlisBackend"]


class BlisBackend(KernelBackend):
    """The BLIS tile walk, registered behind the ABI (always available)."""

    name = "blis"

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(
            name=self.name,
            kind="walk",
            version="blis-walk/1",
            available=True,
            compiled=False,
            tunable=True,
            description=(
                "BLIS five-loop walk (packed micro-panels, popcount "
                "micro-kernel); the simulated device's execution shape"
            ),
        )

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        a, b, op = check_panel_operands(a, b, op)
        m, k = a.shape
        return blis_walk(a, b, op, host_plan(m, b.shape[0], k))
