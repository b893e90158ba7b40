"""OpenCL-flavoured device stack: platform, context, queue, buffers.

The paper's framework "standardize[s] the creation and initialization
of the various supported OpenCL devices ... writing data from host
memory to device memory, compute kernels that operate on said data,
and reading results from device memory to host memory are handled in a
platform-independent manner" (Section V).  This module is that layer
for the simulated devices, as a timing model only -- no data moves
through it; the comparison table is computed once on the host:

* :class:`Platform` enumerates the available (simulated) devices.
* :class:`Context` owns device allocations; creating the first context
  for a device pays the OpenCL initialization overhead the paper's
  end-to-end timings include (Section VI-B).
* :class:`Buffer` is a device allocation handle (size-checked against
  the device's memory limits, released once).
* :class:`CommandQueue` schedules writes, reads and kernel launches by
  byte count and launch geometry.  Commands are scheduled on three
  engines (H2D copy, D2H copy, compute) honouring explicit event
  dependencies -- the out-of-order + events style the double-buffering
  pipeline needs.  Every command returns a profiled
  :class:`~repro.gpu.event.Event`.

All timestamps are simulated seconds from the timing model; `finish()`
returns the queue's completion time, which is what the end-to-end
benches report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import DeviceError, KernelLaunchError
from repro.gpu.arch import ALL_GPUS, GPUArchitecture
from repro.resilience.runtime import get_resilience
from repro.gpu.event import Event
from repro.gpu.executor import KernelProfile, price_kernel
from repro.gpu.kernel import KernelArgs, SnpKernel
from repro.gpu.memory import GlobalMemoryTracker
from repro.gpu.transfer import D2H, H2D, TransferEngine
from repro.util.timing import TimeLine

__all__ = ["Platform", "Device", "Context", "Buffer", "CommandQueue"]


@dataclass(frozen=True)
class Platform:
    """A simulated OpenCL platform exposing the modeled GPUs."""

    name: str = "repro simulated OpenCL"
    vendor: str = "repro"

    @staticmethod
    def get_platforms() -> list["Platform"]:
        return [Platform()]

    def get_devices(self) -> list["Device"]:
        return [Device(arch) for arch in ALL_GPUS]


class Device:
    """One simulated GPU, identified by its architecture."""

    def __init__(self, arch: GPUArchitecture) -> None:
        self.arch = arch

    @property
    def name(self) -> str:
        return self.arch.name

    def create_context(self) -> "Context":
        return Context(self)

    def __repr__(self) -> str:
        return f"Device({self.arch.name!r})"


class Buffer:
    """A device global-memory allocation handle.

    The simulated device holds no contents (the comparison table is
    computed on the host); a buffer is the allocation the schedule
    makes, so the per-allocation limit and the global-memory budget
    apply and a double release is caught.
    """

    def __init__(self, context: "Context", n_bytes: int, label: str = "") -> None:
        self.context = context
        self.n_bytes = n_bytes
        self.label = label or f"buf{id(self) & 0xFFFF:04x}"
        self._handle = context.memory.allocate(n_bytes)
        self._released = False

    def release(self) -> None:
        """Free the allocation; double release raises."""
        if self._released:
            raise DeviceError(f"Buffer {self.label!r}: released twice")
        self.context.memory.free(self._handle)
        self._released = True


class Context:
    """Owns a device's allocations; creation pays the OpenCL init cost."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self.memory = GlobalMemoryTracker(device.arch)
        #: Simulated time at which the context became usable.
        self.ready_at = device.arch.memory.init_overhead_s

    def create_buffer(self, n_bytes: int, label: str = "") -> Buffer:
        # Fault-injection hook: an ``alloc`` spec makes this allocation
        # raise FaultInjectedError (retryable; see repro.resilience).
        get_resilience().injector.check("alloc")
        return Buffer(self, n_bytes, label)

    def create_queue(self) -> "CommandQueue":
        return CommandQueue(self)


def _wait_time(wait_for: Iterable[Event] | None) -> float:
    if not wait_for:
        return 0.0
    return max(e.ended_at for e in wait_for)


class CommandQueue:
    """Profiling command queue over the simulated engines.

    Semantics: commands may overlap across engines (compute, H2D, D2H)
    subject to explicit ``wait_for`` event dependencies; commands on
    the *same* engine execute in enqueue order (each engine is a serial
    resource).  This matches an out-of-order OpenCL queue driving one
    copy engine per direction -- the structure the paper's double
    buffering relies on.
    """

    def __init__(self, context: Context) -> None:
        self.context = context
        self.arch = context.device.arch
        self.transfers = TransferEngine(self.arch)
        self.compute = TimeLine("compute")
        self.events: list[Event] = []

    # -- internal ------------------------------------------------------------

    def _earliest(self, wait_for: Sequence[Event] | None) -> float:
        for e in wait_for or ():
            if e.status.value != "complete":
                raise DeviceError(
                    f"CommandQueue: dependency {e.label!r} not yet complete "
                    "(simulated commands complete at enqueue; this indicates "
                    "an event from another stack)"
                )
        return max(self.context.ready_at, _wait_time(wait_for))

    # -- commands (timing only) ------------------------------------------------

    def enqueue_write_dry(
        self,
        n_bytes: int,
        wait_for: Sequence[Event] | None = None,
        label: str = "write:dry",
    ) -> Event:
        """Schedule an H2D transfer of ``n_bytes`` without moving data."""
        event = Event(label=label, queued_at=self._now())
        earliest = self._earliest(wait_for)
        interval = self.transfers.schedule(H2D, n_bytes, earliest, label=label)
        event.complete(earliest, interval.start, interval.end)
        self.events.append(event)
        return event

    def enqueue_read_dry(
        self,
        n_bytes: int,
        wait_for: Sequence[Event] | None = None,
        label: str = "read:dry",
    ) -> Event:
        """Schedule a D2H transfer of ``n_bytes`` without moving data."""
        event = Event(label=label, queued_at=self._now())
        earliest = self._earliest(wait_for)
        interval = self.transfers.schedule(D2H, n_bytes, earliest, label=label)
        event.complete(earliest, interval.start, interval.end)
        self.events.append(event)
        return event

    def enqueue_kernel_dry(
        self,
        kernel: SnpKernel,
        args: KernelArgs,
        wait_for: Sequence[Event] | None = None,
        label: str = "",
    ) -> tuple[Event, KernelProfile]:
        """Schedule a kernel launch priced by the cycle model only."""
        if kernel.arch is not self.arch:
            raise KernelLaunchError(
                f"enqueue_kernel_dry: kernel compiled for {kernel.arch.name}, "
                f"queue is on {self.arch.name}"
            )
        event = Event(
            label=label or f"kernel:snp_{kernel.op.value}", queued_at=self._now()
        )
        earliest = self._earliest(wait_for)
        profile = price_kernel(kernel, args)
        duration = self.arch.memory.launch_overhead_s + profile.seconds
        interval = self.compute.schedule(event.label, earliest, duration)
        event.complete(earliest, interval.start, interval.end)
        self.events.append(event)
        return event, profile

    # -- synchronization -----------------------------------------------------

    def _now(self) -> float:
        return max(
            self.context.ready_at,
            self.compute.now,
            self.transfers.h2d.now,
            self.transfers.d2h.now,
        )

    def finish(self) -> float:
        """Simulated time at which every enqueued command has completed."""
        return self._now()

    def busy_summary(self) -> dict[str, float]:
        """Busy seconds per engine (reporting aid)."""
        return {
            "compute": self.compute.busy_time(),
            "h2d": self.transfers.h2d.busy_time(),
            "d2h": self.transfers.d2h.busy_time(),
        }
