"""Host topology: sockets, NUMA nodes, memory devices, and DMA paths.

Dimension 1 of Collie's search space is *where traffic comes from inside a
server* (paper §4): NUMA-affinitive DRAM, DRAM on the other socket, or GPU
memory behind a PCIe bridge.  This module models enough of the server's
interconnect to price each choice: a DMA path has a latency and a bandwidth
ceiling, and flags describing which shared links it crosses.
"""

from __future__ import annotations

import dataclasses
import functools


@dataclasses.dataclass(frozen=True)
class MemoryDevice:
    """One physical memory a workload can register MRs on."""

    name: str  #: e.g. ``numa0``, ``numa1``, ``gpu0``.
    kind: str  #: ``dram`` or ``gpu``.
    socket: int  #: CPU socket the device hangs off.
    #: For GPUs: whether the GPU shares a PCIe bridge with the RNIC
    #: (``nvidia-smi`` PIX/PXB).  DRAM ignores this.
    same_bridge_as_rnic: bool = False


@dataclasses.dataclass(frozen=True)
class DMAPath:
    """Resolved path between the RNIC and a memory device."""

    device: MemoryDevice
    latency_ns: float  #: one-way DMA latency.
    bandwidth_gbps: float  #: ceiling imposed by the narrowest crossed link.
    crosses_socket: bool
    via_root_complex: bool  #: GPU traffic detoured through the root complex.


@dataclasses.dataclass(frozen=True)
class HostTopology:
    """A dual-socket server as seen from its RNIC.

    The RNIC is attached to ``rnic_socket`` (always socket 0 in the Table 1
    testbeds).  ``smp_bandwidth_gbps`` and ``smp_extra_latency_ns`` describe
    the inter-socket fabric (UPI/xGMI); the paper's anomaly #11 lives in
    servers where that fabric handles cross-socket DMA poorly.
    """

    name: str
    memory_devices: tuple[MemoryDevice, ...]
    rnic_socket: int = 0
    local_dma_latency_ns: float = 600.0
    smp_extra_latency_ns: float = 500.0
    smp_bandwidth_gbps: float = 300.0
    gpu_bridge_latency_ns: float = 250.0
    #: Root-complex detour cost when PCIe ACSCtl forces GPU traffic up to
    #: the CPU instead of peer-to-peer through the shared bridge.  The
    #: bandwidth ceiling is kept above any RNIC line rate on purpose: the
    #: *observable* performance effects of the detour are owned by the
    #: quirk rules (anomaly #12), so the structural model never creates
    #: anomalies the rule table does not document.
    root_complex_extra_latency_ns: float = 900.0
    root_complex_bandwidth_gbps: float = 250.0
    #: Whether the PCIe bridges are configured for direct peer-to-peer
    #: (correct ACSCtl).  Misconfiguration is the trigger of anomaly #12.
    acsctl_correct: bool = True

    def device(self, name: str) -> MemoryDevice:
        """Look up a memory device by name."""
        for dev in self.memory_devices:
            if dev.name == name:
                return dev
        raise KeyError(
            f"host {self.name!r} has no memory device {name!r}; "
            f"available: {[d.name for d in self.memory_devices]}"
        )

    def device_names(self) -> list[str]:
        """All placement choices for the search space's topology dimension."""
        return [dev.name for dev in self.memory_devices]

    def has_device(self, name: str) -> bool:
        return name in self._dma_paths

    def has_gpu(self) -> bool:
        return any(dev.kind == "gpu" for dev in self.memory_devices)

    def dma_path(self, device_name: str) -> DMAPath:
        """The DMA path from the RNIC to a memory device."""
        paths = self._dma_paths
        if device_name not in paths:
            self.device(device_name)  # raises, naming the devices
        return paths[device_name]

    @functools.cached_property
    def _dma_paths(self) -> dict:
        """Device name -> :class:`DMAPath`, each resolved once per
        topology (the first device of a repeated name, as
        :meth:`device` finds it).  Kept in the instance ``__dict__``,
        outside the dataclass fields, so ``repr``, ``==`` and a
        ``dataclasses.replace`` copy never see it."""
        paths: dict = {}
        for dev in self.memory_devices:
            if dev.name not in paths:
                paths[dev.name] = self._resolve(dev)
        return paths

    def _resolve(self, dev: MemoryDevice) -> DMAPath:
        latency = self.local_dma_latency_ns
        bandwidth = float("inf")
        crosses_socket = dev.socket != self.rnic_socket
        via_root_complex = False
        if crosses_socket:
            latency += self.smp_extra_latency_ns
            bandwidth = min(bandwidth, self.smp_bandwidth_gbps)
        if dev.kind == "gpu":
            latency += self.gpu_bridge_latency_ns
            if not (dev.same_bridge_as_rnic and self.acsctl_correct):
                via_root_complex = True
                latency += self.root_complex_extra_latency_ns
                bandwidth = min(bandwidth, self.root_complex_bandwidth_gbps)
        return DMAPath(
            device=dev,
            latency_ns=latency,
            bandwidth_gbps=bandwidth,
            crosses_socket=crosses_socket,
            via_root_complex=via_root_complex,
        )


def dual_socket_host(
    name: str,
    numa_per_socket: int = 1,
    gpus: int = 0,
    gpu_same_bridge: bool = True,
    acsctl_correct: bool = True,
    smp_bandwidth_gbps: float = 300.0,
    smp_extra_latency_ns: float = 500.0,
) -> HostTopology:
    """Build the standard dual-socket testbed host of Table 1.

    NUMA nodes are named ``numa0..numaN`` interleaved across sockets
    (socket = node index // numa_per_socket); GPUs are ``gpu0..``, all on
    socket 0 (the RNIC socket) like the testbed's A100/V100 machines.
    """
    devices = []
    for node in range(2 * numa_per_socket):
        devices.append(
            MemoryDevice(
                name=f"numa{node}",
                kind="dram",
                socket=node // numa_per_socket,
            )
        )
    for gpu in range(gpus):
        devices.append(
            MemoryDevice(
                name=f"gpu{gpu}",
                kind="gpu",
                socket=0,
                same_bridge_as_rnic=gpu_same_bridge,
            )
        )
    return HostTopology(
        name=name,
        memory_devices=tuple(devices),
        smp_bandwidth_gbps=smp_bandwidth_gbps,
        smp_extra_latency_ns=smp_extra_latency_ns,
        acsctl_correct=acsctl_correct,
    )
