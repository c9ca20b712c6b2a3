"""Nested paging (two-dimensional walks; EPT/NPT-style).

The guest owns its page tables natively -- no PT write protection, no
fill exits, PTBR writes and INVLPG stay in the guest. The price is the
walk: every guest table *access* on a TLB miss is itself a
guest-physical address that must be walked through the EPT.

The mechanism is :class:`repro.cpu.mmu.TwoStageMMU`, shared with the
H-mode engine; :data:`NestedMMU` binds it to VT-x-style behaviour (every
reference priced at ``mem_ref_cycles``, no EPT A/D maintenance). The
hw-nested and hw-hmode engines differ in their execution controls
(:data:`~repro.core.policies.HW_ASSIST_NESTED` vs
:func:`~repro.core.policies.hmode_controls`), not in their MMU.
"""

from functools import partial

from repro.cpu.mmu import TwoStageMMU

NestedMMU = partial(TwoStageMMU, hmode=False)
