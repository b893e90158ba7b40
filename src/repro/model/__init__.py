"""Analytical performance models: peaks, end-to-end estimates, scaling.

These compose the GPU cycle model and the device stack's scheduling
into the quantities the paper's figures plot:

* :mod:`repro.model.peak` -- theoretical peak throughput per device and
  micro-kernel (the dotted lines of Fig. 5) and the CPU peak.
* :mod:`repro.model.endtoend` -- end-to-end time estimation at
  arbitrary (including paper-scale) problem sizes, by running the
  *same* timing-only double-buffered schedule a framework run prices.
* :mod:`repro.model.scaling` -- the per-core scaling curves of Fig. 7.
"""

from repro.model.peak import (
    device_peak_word_ops,
    device_peak_summary,
    cpu_peak_word32_ops,
    gpops,
)
from repro.model.endtoend import EndToEndEstimate, estimate_end_to_end, estimate_cpu_seconds
from repro.model.scaling import relative_per_core_performance, scaling_curve
from repro.model.roofline import RooflinePoint, host_roofline, kernel_roofline
from repro.model.design_space import (
    SweepResult,
    kernel_time_metric,
    peak_metric,
    sweep_parameter,
)

__all__ = [
    "device_peak_word_ops",
    "device_peak_summary",
    "cpu_peak_word32_ops",
    "gpops",
    "EndToEndEstimate",
    "estimate_end_to_end",
    "estimate_cpu_seconds",
    "relative_per_core_performance",
    "scaling_curve",
    "RooflinePoint",
    "host_roofline",
    "kernel_roofline",
    "SweepResult",
    "kernel_time_metric",
    "peak_metric",
    "sweep_parameter",
]
