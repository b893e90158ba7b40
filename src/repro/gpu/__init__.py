"""Simulated GPU substrate: the paper's model GPU architecture, executable.

This package is the hardware substitution documented in DESIGN.md.  It
provides, in layers:

* :mod:`repro.gpu.arch` -- the model GPU architecture of Section IV-A
  (thread groups, compute cores/clusters, per-instruction functional
  units, shared-memory banks, ...) with presets for the three
  evaluation GPUs (Table I).
* :mod:`repro.gpu.isa` -- the instruction classes the kernels use and
  their pipeline assignment per architecture (Section V-D's dual-pipe
  observation: POPC is separate from integer ALU on all three devices;
  on Vega, ADD and AND share the ALU pipe).
* :mod:`repro.gpu.memory` -- global-memory allocation limits and the
  shared-memory bank-conflict model.
* :mod:`repro.gpu.event`, :mod:`repro.gpu.transfer`,
  :mod:`repro.gpu.device` -- an OpenCL-flavoured device stack
  (platform/context/queue/buffer/event with event profiling) whose
  timestamps come from the analytical timing model; no data moves
  through it.
* :mod:`repro.gpu.coresim` -- a cycle-level simulator of one compute
  core (thread-group scheduler, pipelined functional units) used by the
  microbenchmark procedures of Section V-C/D.
* :mod:`repro.gpu.microbench` -- the latency/throughput measurement
  procedures themselves.
* :mod:`repro.gpu.cycles` -- the analytical kernel cycle model (peak
  pipelines, latency hiding, scaling/contention) that prices kernel
  launches.
* :mod:`repro.gpu.kernel`, :mod:`repro.gpu.executor` -- the
  parameterized SNP-comparison kernel and the pricing of its launches
  (the device is a timing model; tables are computed on the host).
"""

from repro.gpu.arch import (
    GPUArchitecture,
    GTX_980,
    TITAN_V,
    VEGA_64,
    ALL_GPUS,
    get_gpu,
)
from repro.gpu.isa import Instruction, PipeClass, pipe_for, units_per_cluster
from repro.gpu.device import Platform, Device, Context, CommandQueue, Buffer
from repro.gpu.event import Event, EventStatus
from repro.gpu.kernel import SnpKernel, KernelArgs
from repro.gpu.executor import KernelProfile
from repro.gpu.occupancy import OccupancyReport, occupancy_report
from repro.gpu.tilesim import TileStats, simulate_core_tile
from repro.gpu.memsim import (
    QueueModelParams,
    emergent_scaling_curve,
    fit_queue_model,
)
from repro.gpu.tracing import trace_events, write_chrome_trace

__all__ = [
    "GPUArchitecture",
    "GTX_980",
    "TITAN_V",
    "VEGA_64",
    "ALL_GPUS",
    "get_gpu",
    "Instruction",
    "PipeClass",
    "pipe_for",
    "units_per_cluster",
    "Platform",
    "Device",
    "Context",
    "CommandQueue",
    "Buffer",
    "Event",
    "EventStatus",
    "SnpKernel",
    "KernelArgs",
    "KernelProfile",
    "OccupancyReport",
    "occupancy_report",
    "TileStats",
    "simulate_core_tile",
    "QueueModelParams",
    "emergent_scaling_curve",
    "fit_queue_model",
    "trace_events",
    "write_chrome_trace",
]
