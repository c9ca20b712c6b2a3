"""Host and VM specifications, and placements of VMs onto hosts."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry, counter_attr
from repro.util.errors import ConfigError
from repro.util.units import GIB, MIB


@dataclass(frozen=True)
class HostSpec:
    """A physical machine type."""

    name: str = "host"
    cores: int = 4
    #: Normalized CPU capacity: 1.0 per core by convention.
    cpu_capacity: float = 4.0
    memory_bytes: int = 16 * GIB
    idle_watts: float = 120.0
    peak_watts: float = 280.0
    #: Failure domain (rack / power feed): hosts sharing a domain are
    #: assumed to fail together. Per-host override via ``Host(domain=)``.
    failure_domain: str = "fd0"

    def validate(self) -> None:
        if self.cores <= 0 or self.cpu_capacity <= 0:
            raise ConfigError("host needs positive CPU")
        if self.memory_bytes <= 0:
            raise ConfigError("host needs positive memory")
        if self.idle_watts < 0 or self.peak_watts < self.idle_watts:
            raise ConfigError("watts must satisfy 0 <= idle <= peak")


@dataclass(frozen=True)
class VMSpec:
    """One VM's resource demand."""

    name: str
    cpu_demand: float = 1.0  # in core-units
    memory_bytes: int = 2 * GIB
    #: True for latency-sensitive VMs (reported separately by E8).
    interactive: bool = False

    def validate(self) -> None:
        if self.cpu_demand < 0:
            raise ConfigError("cpu_demand must be non-negative")
        if self.memory_bytes <= 0:
            raise ConfigError("memory must be positive")


class Host:
    """A host instance holding placed VMs."""

    placements = counter_attr()
    crashes = counter_attr()

    def __init__(self, spec: HostSpec, index: int, metrics=None,
                 domain: Optional[str] = None):
        spec.validate()
        self.spec = spec
        self.index = index
        self.name = f"{spec.name}-{index}"
        #: Failure domain this host lives in; hosts of one shared spec
        #: can still land in different racks via the ``domain`` override.
        self.domain = domain if domain is not None else spec.failure_domain
        #: ``cluster.host.<name>.*``; pass a shared scope to aggregate a
        #: whole cluster into one registry.
        self.metrics = (metrics if metrics is not None else
                        MetricsRegistry().scope(f"cluster.host.{self.name}"))
        #: Resident VMs by name. Written only by :meth:`place`,
        #: :meth:`remove` and :meth:`set_demand`, which is what keeps
        #: ``memory_used`` equal to the sum of their ``memory_bytes``.
        self.vms: Dict[str, VMSpec] = {}
        self.memory_used = 0
        self.alive = True

    # -- failure model -------------------------------------------------------

    def fail(self) -> bool:
        """Whole-host crash: the host stops accepting placements.

        Idempotent: failing an already-dead host changes nothing and
        does not inflate the crash counter (cascade sweeps poll hosts
        repeatedly). Returns whether the host's state changed.

        Its VMs stay listed as stranded until
        :func:`repro.cluster.placement.failover` drains them onto
        survivors.
        """
        if not self.alive:
            return False
        self.alive = False
        self.crashes += 1
        return True

    def maybe_crash(self, injector) -> bool:
        """Evaluate the ``host.crash`` fault site; True if this host died."""
        if injector is not None and self.alive and injector.fires("host.crash"):
            self.fail()
            return True
        return False

    @property
    def memory_free(self) -> int:
        return self.spec.memory_bytes - self.memory_used

    @property
    def cpu_demand(self) -> float:
        # Summed on demand, in ``vms`` order: float addition is not
        # associative and this sum reaches the manifests.
        return sum(vm.cpu_demand for vm in self.vms.values())

    @property
    def cpu_utilization(self) -> float:
        """Actual utilization: demand clipped at capacity, normalized."""
        return min(1.0, self.cpu_demand / self.spec.cpu_capacity)

    def fits(self, vm: VMSpec) -> bool:
        """Memory is the hard constraint; CPU may oversubscribe.

        A dead host fits nothing.
        """
        return self.alive and vm.memory_bytes <= self.memory_free

    def place(self, vm: VMSpec) -> None:
        if vm.name in self.vms:
            raise ConfigError(f"VM {vm.name} already on {self.name}")
        if not self.fits(vm):
            raise ConfigError(f"VM {vm.name} does not fit on {self.name}")
        self.vms[vm.name] = vm
        self.memory_used += vm.memory_bytes
        self.placements += 1

    def remove(self, name: str) -> VMSpec:
        try:
            vm = self.vms.pop(name)
        except KeyError:
            raise ConfigError(f"VM {name} not on {self.name}") from None
        self.memory_used -= vm.memory_bytes
        return vm

    def set_demand(self, name: str, cpu_demand: float) -> None:
        """Reprice a resident VM's CPU demand; it keeps its place in ``vms``."""
        vm = self.vms[name]
        self.vms[name] = VMSpec(name, cpu_demand, vm.memory_bytes,
                                vm.interactive)

    def summary(self, shard: int = 0) -> "HostSummary":
        """A frozen, picklable snapshot for coordinator-side decisions.

        Sharded runs never ship live :class:`Host` objects across the
        epoch barrier (they drag their metrics scope, and hence the
        whole shard registry, along). The coordinator plans against
        summaries and sends its decisions back as messages.
        """
        return HostSummary(
            name=self.name,
            index=self.index,
            shard=shard,
            domain=self.domain,
            alive=self.alive,
            cpu_capacity=self.spec.cpu_capacity,
            memory_bytes=self.spec.memory_bytes,
            vms=tuple(self.vms[name] for name in sorted(self.vms)),
        )

    def __repr__(self) -> str:
        return (
            f"<Host {self.name} {len(self.vms)} VMs, "
            f"cpu {self.cpu_demand:.1f}/{self.spec.cpu_capacity}, "
            f"mem {self.memory_used / MIB:.0f}/{self.spec.memory_bytes / MIB:.0f} MiB>"
        )


@dataclass(frozen=True)
class HostSummary:
    """Coordinator-side view of one host at an epoch barrier.

    Carries everything the global decisions (admission, rebalancing,
    evacuation re-placement, N+1 checks) need -- capacity, liveness,
    failure domain, and the resident :class:`VMSpec` set -- and nothing
    that aliases shard state. VMs are listed in sorted-name order so
    two runs producing the same placement produce identical summaries.
    """

    name: str
    index: int
    shard: int
    domain: str
    alive: bool
    cpu_capacity: float
    memory_bytes: int
    vms: Tuple[VMSpec, ...] = ()

    @property
    def cpu_demand(self) -> float:
        return sum(vm.cpu_demand for vm in self.vms)

    @property
    def cpu_utilization(self) -> float:
        return min(1.0, self.cpu_demand / self.cpu_capacity)

    @property
    def memory_used(self) -> int:
        return sum(vm.memory_bytes for vm in self.vms)

    @property
    def memory_free(self) -> int:
        return self.memory_bytes - self.memory_used

    def fits(self, vm: VMSpec) -> bool:
        """Same contract as :meth:`Host.fits`: memory-hard, CPU-soft."""
        return self.alive and vm.memory_bytes <= self.memory_free


@dataclass
class Placement:
    """A full assignment of VMs to hosts."""

    hosts: List[Host] = field(default_factory=list)
    #: VM name -> relax level for placements that could not honor the
    #: strict anti-affinity constraints (see placement.RELAX_ORDER).
    relaxations: Dict[str, str] = field(default_factory=dict)

    @property
    def hosts_used(self) -> int:
        return sum(1 for h in self.hosts if h.vms)

    @property
    def total_vms(self) -> int:
        return sum(len(h.vms) for h in self.hosts)

    def host_of(self, vm_name: str) -> Optional[Host]:
        for host in self.hosts:
            if vm_name in host.vms:
                return host
        return None

    @property
    def domains(self) -> List[str]:
        """Sorted unique failure domains across all hosts."""
        return sorted({h.domain for h in self.hosts})

    def domain_of(self, vm_name: str) -> Optional[str]:
        host = self.host_of(vm_name)
        return host.domain if host is not None else None

    def utilization_stats(self) -> List[float]:
        return [h.cpu_utilization for h in self.hosts if h.vms]
