"""VM snapshot and restore, and the one enumeration of a paused machine.

:func:`capture_state` / :func:`apply_state` are what "everything but
RAM" means: vCPU architectural + virtual state, pending events, the
PIC and every attached device, each device saying for itself which of
its attributes are state (``STATE``, :mod:`repro.devices.bus`).
Snapshot, micro-reboot and both migrators move a machine through that
pair, so there is no second list to drift.

A snapshot adds the configuration and guest memory (zero pages are
elided -- freshly booted guests are mostly zeros) and serializes to a
self-describing binary blob (`to_bytes`/`from_bytes`), so it can be
written to disk and restored into any hypervisor later -- the same
machinery real platforms use for suspend/resume, cloning, and
crash-consistent backups.

Blob v2: magic, version, then the configuration and the state tree
through one tagged value codec, then the mapped gfns and the non-zero
pages in bulk. It is a plain struct-based format that can only ever
yield plain values, never a general-purpose object serializer: a
tampered or truncated blob fails loudly, and blobs are stable across
Python versions.
"""

import struct
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from typing import Dict, Optional, Set

from repro.core.modes import MMUVirtMode, VirtMode
from repro.core.vm import GuestConfig, VirtualMachine
from repro.cpu.isa import Cause
from repro.devices.bus import apply_fields, capture_fields
from repro.mem.physmem import ZERO_PAGE as _ZERO_PAGE
from repro.util.errors import ConfigError
from repro.util.units import PAGE_SIZE

_MAGIC = b"PVSN"
_VERSION = 2

_U32 = struct.Struct("<I")

#: What the core and the vCPU hold for the guest (``vcpu.stalled`` is
#: hypervisor-private fault state and stays behind).
_CPU_FIELDS = ("regs", "pc", "csr", "cycles", "instret", "halted")
_VCPU_FIELDS = ("vcsr", "halted", "incorrectness_observed")
_TREE_KEYS = {"cpu", "vcpu", "pending_irqs", "pending_virqs",
              "ballooned_gfns", "pic", "devices"}


def capture_state(vm: VirtualMachine) -> Dict[str, object]:
    """Everything a paused VM is, RAM excepted, as a tree of plain
    values (int, bool, None, str, bytes, list, str-keyed dict)."""
    vcpu = vm.vcpus[0]
    return {
        "cpu": capture_fields(vcpu.cpu, _CPU_FIELDS),
        "vcpu": capture_fields(vcpu, _VCPU_FIELDS),
        "pending_irqs": sorted(int(c) for c in vcpu.cpu.pending_irqs),
        "pending_virqs": sorted(int(c) for c in vm.pending_virqs),
        "ballooned_gfns": sorted(vm.ballooned_gfns),
        "pic": capture_fields(vm.pic),
        "devices": {name: capture_fields(device)
                    for name, device in vm.devices.items()},
    }


def apply_state(vm: VirtualMachine, tree: Dict[str, object]) -> None:
    """Write a :func:`capture_state` tree into a freshly created VM.

    Translation state never travels: it is rebuilt from the restored
    PTBR once the architectural state is in place.
    """
    if not isinstance(tree, dict) or set(tree) != _TREE_KEYS:
        raise ConfigError(
            f"machine state does not name exactly {sorted(_TREE_KEYS)}"
        )
    if set(tree["devices"]) != set(vm.devices):
        raise ConfigError(
            f"machine state carries devices {sorted(tree['devices'])} but "
            f"VM {vm.name!r} attaches {sorted(vm.devices)}"
        )
    vcpu = vm.vcpus[0]
    apply_fields(vcpu.cpu, tree["cpu"], _CPU_FIELDS)
    apply_fields(vcpu, tree["vcpu"], _VCPU_FIELDS)
    vcpu.cpu.pending_irqs = {Cause(c) for c in tree["pending_irqs"]}
    # In place: a deprivileged core holds the set (``CPUCore.virqs``).
    vm.pending_virqs.clear()
    vm.pending_virqs.update(Cause(c) for c in tree["pending_virqs"])
    vm.ballooned_gfns = set(tree["ballooned_gfns"])
    apply_fields(vm.pic, tree["pic"])
    for name, device in vm.devices.items():
        apply_fields(device, tree["devices"][name])
    vcpu.rebuild_translation()


@dataclass
class VMSnapshot:
    """In-memory snapshot of one paused VM."""

    config: GuestConfig
    #: the :func:`capture_state` tree
    state: Dict[str, object]
    #: non-zero guest pages only: gfn -> page bytes
    pages: Dict[int, bytes] = field(default_factory=dict)
    #: every mapped gfn (zero pages included by membership)
    mapped_gfns: Set[int] = field(default_factory=set)

    @property
    def cycles(self) -> int:
        return self.state["cpu"]["cycles"]

    @property
    def instret(self) -> int:
        return self.state["cpu"]["instret"]

    @property
    def stored_bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _MAGIC
        out += _U32.pack(_VERSION)
        config = asdict(self.config)
        config["virt_mode"] = self.config.virt_mode.value
        config["mmu_mode"] = self.config.mmu_mode.value
        _pack(out, config)
        _pack(out, self.state)
        gfns = sorted(self.mapped_gfns)
        out += _U32.pack(len(gfns))
        out += struct.pack(f"<{len(gfns)}I", *gfns)
        out += _U32.pack(len(self.pages))
        # Pages are joined, not appended: one allocation of the final
        # size instead of a 4 MiB buffer grown page by page and copied.
        parts = [out]
        for gfn in sorted(self.pages):
            parts += (_U32.pack(gfn), self.pages[gfn])
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "VMSnapshot":
        reader = _Reader(blob)
        if reader.take(4) != _MAGIC:
            raise ConfigError("not a pyvisor snapshot (bad magic)")
        version = reader.u32()
        if version != _VERSION:
            raise ConfigError(f"unsupported snapshot version {version}")
        config = _unpack(reader)
        try:
            config = GuestConfig(**{
                **config,
                "virt_mode": VirtMode(config["virt_mode"]),
                "mmu_mode": MMUVirtMode(config["mmu_mode"]),
            })
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(
                f"snapshot carries no valid guest configuration: {config!r}"
            ) from err
        state = _unpack(reader)
        count = reader.u32()
        mapped = set(struct.unpack(f"<{count}I", reader.take(4 * count)))
        pages = {}
        for _ in range(reader.u32()):
            gfn = reader.u32()
            pages[gfn] = reader.take(PAGE_SIZE)
        reader.expect_end()
        return cls(config=config, state=state, pages=pages,
                   mapped_gfns=mapped)


def snapshot_vm(vm: VirtualMachine) -> VMSnapshot:
    """Capture a paused VM (the caller must not run it concurrently).

    Its memory is its resident frames, read by hfn, and the pages host
    swap holds for it (``vm.swapped``), which stay swapped: the capture
    changes nothing in the VM. Ballooned and never-backed gfns stay out,
    and a restore leaves them unbacked."""
    mem = vm.guest_mem
    resident = zip(mem.map, mem.host.read_frames(mem.map.values()))
    pages: Dict[int, bytes] = {}
    mapped: Set[int] = set()
    for gfn, content in chain(resident, vm.swapped.items()):
        mapped.add(gfn)
        if content != _ZERO_PAGE:
            pages[gfn] = content
    return VMSnapshot(config=vm.config, state=capture_state(vm),
                      pages=pages, mapped_gfns=mapped)


def restore_vm(hypervisor, snapshot: VMSnapshot,
               name: Optional[str] = None) -> VirtualMachine:
    """Materialize a snapshot as a fresh (paused) VM."""
    vm = hypervisor.create_vm(replace(
        snapshot.config, name=name or snapshot.config.name, prealloc=True))
    # Drop frames that were not mapped at snapshot time (balloon).
    mem = vm.guest_mem
    gone = [gfn for gfn in mem.map if gfn not in snapshot.mapped_gfns]
    vm.vcpus[0].cpu.mmu.drop_gfns(gone)
    for gfn in gone:
        hypervisor.allocator.free(mem.unmap_page(gfn))
    write_frame = hypervisor.physmem.write_frame
    for gfn, content in snapshot.pages.items():
        write_frame(mem.map[gfn], content)
    try:
        apply_state(vm, snapshot.state)
    except ConfigError:
        # A state tree that does not fit this machine: leave no
        # half-restored VM registered under the name.
        hypervisor.destroy_vm(vm)
        raise
    return vm


# -- codec helpers -----------------------------------------------------------


def _pack(out: bytearray, value) -> None:
    """Append one plain value, tagged by type; integers are signed."""
    kind = type(value)
    if value is None:
        out += b"N"
    elif kind is bool:
        out += b"T" if value else b"F"
    elif kind is int:
        raw = value.to_bytes(value.bit_length() // 8 + 1, "little",
                             signed=True)
        out += b"I"
        out.append(len(raw))
        out += raw
    elif kind is str:
        data = value.encode("utf-8")
        out += b"S" + _U32.pack(len(data)) + data
    elif kind is bytes:  # a disk image: appended in place, not re-copied
        out += b"B" + _U32.pack(len(value))
        out += value
    elif kind is list:
        out += b"L"
        out += _U32.pack(len(value))
        for item in value:
            _pack(out, item)
    elif kind is dict and all(type(key) is str for key in value):
        out += b"D"
        out += _U32.pack(len(value))
        for key, item in value.items():
            _pack(out, key)
            _pack(out, item)
    else:
        raise ConfigError(
            f"machine state holds a {kind.__name__}, which is not a plain "
            f"value: {value!r}"
        )


def _unpack(reader: "_Reader"):
    """Read one :func:`_pack`-ed value; can yield nothing but plain ones."""
    tag = reader.take(1)
    if tag == b"I":
        return int.from_bytes(reader.take(reader.take(1)[0]), "little",
                              signed=True)
    if tag == b"T" or tag == b"F":
        return tag == b"T"
    if tag == b"N":
        return None
    if tag == b"S":
        return reader.string()
    if tag == b"B":
        return reader.take(reader.u32())
    if tag == b"L":
        return [_unpack(reader) for _ in range(reader.u32())]
    if tag == b"D":
        value = {}
        for _ in range(reader.u32()):
            if reader.take(1) != b"S":
                raise ConfigError("snapshot dict key is not a string")
            key = reader.string()
            value[key] = _unpack(reader)
        return value
    raise ConfigError(f"unknown tag {tag!r} in snapshot")


class _Reader:
    def __init__(self, blob: bytes):
        self._blob = blob
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._blob):
            raise ConfigError("truncated snapshot")
        data = self._blob[self._pos : self._pos + n]
        self._pos += n
        return data

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError("snapshot holds a malformed string") from err

    def expect_end(self) -> None:
        if self._pos != len(self._blob):
            raise ConfigError(
                f"snapshot has {len(self._blob) - self._pos} trailing bytes"
            )
