"""Reintroducible known bugs, as reversible monkeypatches.

The fuzzer's acceptance test is not "it runs" but "it *catches*": each
shim re-creates the exact shape of a bug this codebase really had, so
tests (and ``python -m repro fuzz --bug ...``) can assert that a
campaign finds it and that the shrinker reduces it to a tiny repro.
Committed corpus entries record which shim they diverge under, turning
the corpus into a regression suite: replay must flag the case with the
shim applied and pass clean without it.
"""

import contextlib
from typing import Dict, Iterator, Optional

from repro.cpu.interp import CPUCore, PageFault, _IRQ_PRIORITY
from repro.cpu.isa import CSR, Cause


def _step_without_triple_fault_guard(self) -> None:
    """``CPUCore.step`` as it was before the triple-fault guard: a
    kernel-mode fault fetching the trap vector is re-delivered forever
    (pc pinned at VBAR, nothing retires -- a classic vector-loop hang).
    """
    if self.csr[CSR.IE] and self.pending_irqs:
        for cause in _IRQ_PRIORITY:
            if cause in self.pending_irqs:
                self.pending_irqs.discard(cause)
                self.trap(cause, 0, epc=self.pc)
                return
    pc = self.pc
    try:
        ins = self.fetch(pc)
    except PageFault as fault:
        self.cycles += self.costs.instr_cycles
        self.trap(Cause.PF_EXEC, fault.vaddr, epc=pc)
        return
    self.cycles += self.costs.instr_cycles
    self.execute(ins)


@contextlib.contextmanager
def _pr5_vector_loop() -> Iterator[None]:
    from repro.core import bt as btmod

    orig_step = CPUCore.step
    orig_translate = btmod.BTEngine._translate

    def translate_without_guard(self, va):
        # Strip the matching BT-side guard: reflect the vector-fetch
        # fault instead of raising TRIPLE_FAULT, like the old code did.
        try:
            return orig_translate(self, va)
        except btmod.VMExit as exit_:
            if exit_.reason is btmod.ExitReason.TRIPLE_FAULT:
                self.vcpu.reflect_trap(btmod.TrapInfo(
                    Cause.PF_EXEC, exit_.qual("value"), epc=va))
                return None
            raise

    CPUCore.step = _step_without_triple_fault_guard
    btmod.BTEngine._translate = translate_without_guard
    try:
        yield
    finally:
        CPUCore.step = orig_step
        btmod.BTEngine._translate = orig_translate


@contextlib.contextmanager
def _bt_stale_smc() -> Iterator[None]:
    """Binary translator without self-modifying-code invalidation: the
    write watcher never fires, so stores into already-translated guest
    code keep executing the stale translation (the VMM trio diverges:
    both hardware-assist configs see the new code, BT does not)."""
    from repro.core import bt as btmod

    orig = btmod.BTEngine._watch_block
    btmod.BTEngine._watch_block = lambda self, block: None
    try:
        yield
    finally:
        btmod.BTEngine._watch_block = orig


_BUGS: Dict[str, object] = {
    "pr5-vector-loop": _pr5_vector_loop,
    "bt-stale-smc": _bt_stale_smc,
}


def known_bugs():
    return tuple(sorted(_BUGS))


@contextlib.contextmanager
def apply_bug(name: Optional[str]) -> Iterator[None]:
    """Reversibly apply the named bug shim (no-op for ``None``)."""
    if name is None:
        yield
        return
    if name not in _BUGS:
        raise ValueError(f"unknown bug {name!r}; known: {known_bugs()}")
    with _BUGS[name]():
        yield
