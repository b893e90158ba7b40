"""The paper's primary contribution: the portable SNP-comparison framework.

Public surface:

* :class:`~repro.core.framework.SNPComparisonFramework` -- the
  end-to-end driver (device selection, analytic configuration,
  packing, a double-buffered device schedule that prices the run, one
  host call that computes the table).
* :func:`~repro.core.ld.linkage_disequilibrium`,
  :func:`~repro.core.identity.identity_search`,
  :func:`~repro.core.mixture.mixture_analysis` -- the three
  application APIs (Section II).
* :mod:`repro.core.planner` -- the hardware-features -> software-
  parameters derivation (Section V-A, Eqs. 4-7, Table II).
* :mod:`repro.core.config` -- :class:`KernelConfig` and the C-header
  emission.
"""

from repro.core.config import Algorithm, KernelConfig, render_header
from repro.core.framework import SNPComparisonFramework
from repro.core.identity import IdentityResult, identity_search
from repro.core.ld import LDResult, linkage_disequilibrium
from repro.core.mixture import MixtureResult, mixture_analysis
from repro.core.packing import PackedOperand, crop_result, pack_operand
from repro.core.planner import (
    ProblemShape,
    derive_config,
    published_config,
    PUBLISHED_CONFIGS,
)
from repro.core.profiles import RunReport

__all__ = [
    "Algorithm",
    "KernelConfig",
    "render_header",
    "SNPComparisonFramework",
    "IdentityResult",
    "identity_search",
    "LDResult",
    "linkage_disequilibrium",
    "MixtureResult",
    "mixture_analysis",
    "PackedOperand",
    "crop_result",
    "pack_operand",
    "ProblemShape",
    "derive_config",
    "published_config",
    "PUBLISHED_CONFIGS",
    "RunReport",
]
