"""User-mode workload programs for NanoOS.

Each builder returns an assembled :class:`~repro.cpu.assembler.Program`
loaded at ``USER_BASE``. Workloads end with ``syscall SYS_EXIT`` and an
exit value (usually a checksum the host verifies), so every run is
self-validating: a virtualization mode that corrupts guest state
produces the wrong exit value, not just different timing.
"""

from repro.cpu.assembler import Assembler, Program
from repro.guest.kernel import asm_header
from repro.guest.layout import GuestLayout as L


def _assemble(body: str) -> Program:
    source = f"""
.org {L.USER_BASE:#x}
{asm_header()}
start:
{body}
"""
    program = Assembler().assemble(source)
    if program.size > L.USER_END - L.USER_BASE:
        raise AssertionError(f"workload of {program.size} bytes too large")
    return program


def cpu_bound(iterations: int = 20000) -> Program:
    """Pure integer arithmetic; zero kernel interaction after entry.

    Exit value: ``acc = (acc * 31 + i) mod 2^32`` folded over i.
    """
    return _assemble(f"""
    li   s0, {iterations}     ; i counts down
    li   s1, 0                ; acc
loop:
    mul  s1, s1, 31
    add  s1, s1, s0
    sub  s0, s0, 1
    bnez s0, loop
    mov  a0, s1
    syscall 0
""")


def expected_cpu_bound(iterations: int) -> int:
    """Host-side oracle for :func:`cpu_bound`'s exit value."""
    acc = 0
    for i in range(iterations, 0, -1):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def memtouch(pages: int = 64, passes: int = 4) -> Program:
    """Sequential stores over a heap working set.

    The first pass demand-faults every page (page-table update rate =
    page rate: the shadow-paging worst case); later passes re-dirty them
    (TLB/dirty behaviour). Exit value: sum of one word per page.
    """
    if not 1 <= pages <= 2048:
        raise ValueError("pages must be in 1..2048")
    return _assemble(f"""
    li   s0, {passes}
    li   s2, 0                ; checksum
pass_loop:
    li   s1, 0                ; page index
    li   t3, HEAP_BASE
page_loop:
    ; store page index + pass to the page, read it back
    st   [t3+0], s1
    ld   t0, [t3+0]
    add  s2, s2, t0
    add  t3, t3, 4096
    add  s1, s1, 1
    li   t0, {pages}
    bltu s1, t0, page_loop
    sub  s0, s0, 1
    bnez s0, pass_loop
    mov  a0, s2
    syscall 0
""")


def expected_memtouch(pages: int = 64, passes: int = 4) -> int:
    total_per_pass = sum(range(pages))
    return (total_per_pass * passes) & 0xFFFFFFFF


def random_walk(pages: int = 256, accesses: int = 20000, seed: int = 12345) -> Program:
    """Uniform random reads over a pre-touched working set (TLB stress).

    ``pages`` must be a power of two. Phase 1 touches every page
    sequentially (paying the demand faults up front); phase 2 performs
    ``accesses`` loads at LCG-generated page indices -- with a working
    set larger than the TLB this is a miss per access, making the
    nested-paging 2-D walk cost directly visible (experiment E3).
    """
    if pages & (pages - 1) or not 1 <= pages <= 2048:
        raise ValueError("pages must be a power of two in 1..2048")
    return _assemble(f"""
    ; phase 1: touch every page
    li   s1, 0
    li   t3, HEAP_BASE
touch_loop:
    st   [t3+0], s1
    add  t3, t3, 4096
    add  s1, s1, 1
    li   t0, {pages}
    bltu s1, t0, touch_loop
    ; phase 2: random reads
    li   s0, {accesses}
    li   s1, {seed}           ; LCG state
    li   s2, 0                ; checksum
walk_loop:
    mul  s1, s1, 1103515245
    add  s1, s1, 12345
    shr  t0, s1, 12
    and  t0, t0, {pages - 1}
    shl  t0, t0, 12
    li   t1, HEAP_BASE
    add  t0, t0, t1
    ld   t1, [t0+0]
    add  s2, s2, t1
    sub  s0, s0, 1
    bnez s0, walk_loop
    mov  a0, s2
    syscall 0
""")


def syscall_storm(count: int = 2000) -> Program:
    """Minimal syscalls in a tight loop: the guest-kernel-entry tax."""
    return _assemble(f"""
    li   s0, {count}
loop:
    syscall 2                 ; SYS_YIELD
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, {count}
    syscall 0
""")


def pt_stress(cycles: int = 500) -> Program:
    """Map/unmap a page repeatedly: maximal page-table update rate.

    Each iteration is one SYS_MAP and one SYS_UNMAP of the same heap VA
    (plus the kernel's PTE stores and INVLPG). Shadow paging pays
    trapped PT writes; nested paging pays nothing; paravirt pays
    hypercalls.
    """
    va = L.HEAP_END - 0x1000  # keep clear of demand-paged working sets
    return _assemble(f"""
    li   s0, {cycles}
loop:
    li   a0, {va:#x}
    syscall 4                 ; SYS_MAP
    li   t0, {va:#x}
    st   [t0+0], s0           ; touch: the mapping must actually be used
    li   a0, {va:#x}
    syscall 5                 ; SYS_UNMAP
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, {cycles}
    syscall 0
""")


def pt_mix(maps: int = 64, accesses: int = 4096, pages: int = 256,
           seed: int = 12345) -> Program:
    """Interleave page-table churn with TLB-thrashing reads (E11 sweep).

    The crossover workload: ``maps`` map/touch/unmap cycles (page-table
    modifications -- the shadow-paging tax) interleaved with
    ``accesses`` LCG-random reads over a pre-touched ``pages``-page
    working set (TLB misses -- the two-stage/nested walk tax). Sweeping
    ``maps`` against a fixed ``accesses`` moves the page-table
    modification rate from memory-intensity-dominated to churn-dominated,
    which is exactly the software-vs-hardware MMU crossover axis.

    Exit value: sum of the page indices read back plus ``maps``.
    """
    if pages & (pages - 1) or not 1 <= pages <= 2048:
        raise ValueError("pages must be a power of two in 1..2048")
    if maps < 1 or accesses < maps:
        raise ValueError("need maps >= 1 and accesses >= maps")
    inner = accesses // maps
    va = L.HEAP_END - 0x1000  # churn page, clear of the working set
    return _assemble(f"""
    ; phase 1: touch the working set (demand faults paid up front)
    li   s1, 0
    li   t3, HEAP_BASE
touch_loop:
    st   [t3+0], s1
    add  t3, t3, 4096
    add  s1, s1, 1
    li   t0, {pages}
    bltu s1, t0, touch_loop
    ; phase 2: interleaved churn + random reads
    li   s0, {maps}           ; outer: map/unmap cycles
    li   s1, {seed}           ; LCG state
    li   s2, 0                ; checksum
outer_loop:
    li   t3, {inner}          ; inner: random reads between churns
read_loop:
    mul  s1, s1, 1103515245
    add  s1, s1, 12345
    shr  t0, s1, 12
    and  t0, t0, {pages - 1}
    shl  t0, t0, 12
    li   t1, HEAP_BASE
    add  t0, t0, t1
    ld   t1, [t0+0]
    add  s2, s2, t1
    sub  t3, t3, 1
    bnez t3, read_loop
    li   a0, {va:#x}
    syscall 4                 ; SYS_MAP
    li   t0, {va:#x}
    st   [t0+0], s0           ; the mapping must actually be used
    li   a0, {va:#x}
    syscall 5                 ; SYS_UNMAP
    sub  s0, s0, 1
    bnez s0, outer_loop
    add  s2, s2, {maps}
    mov  a0, s2
    syscall 0
""")


def expected_pt_mix(maps: int = 64, accesses: int = 4096, pages: int = 256,
                    seed: int = 12345) -> int:
    """Host-side oracle for :func:`pt_mix`'s exit value."""
    inner = accesses // maps
    state = seed
    total = 0
    for _ in range(maps * inner):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        total += (state >> 12) & (pages - 1)
    return (total + maps) & 0xFFFFFFFF


def blk_write(requests: int = 64) -> Program:
    """Sequential one-sector writes through the *emulated* disk
    (port-programmed)."""
    return _assemble(f"""
    li   s0, {requests}
    li   s1, 0                ; sector cursor
loop:
    mov  a0, s1
    li   a1, 1
    syscall 7                 ; SYS_BLK_WRITE
    add  s1, s1, 1
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, {requests}
    syscall 0
""")


def vblk_write(batches: int = 16, batch_size: int = 4) -> Program:
    """Sequential writes through *virtio-blk*: one kick per batch."""
    if batch_size * 3 > L.QUEUE_SIZE:
        raise ValueError("batch needs 3 descriptors per request")
    return _assemble(f"""
    li   s0, {batches}
    li   s1, 0
loop:
    mov  a0, s1
    li   a1, {batch_size}
    syscall 8                 ; SYS_VBLK_WRITE_BATCH
    add  s1, s1, {batch_size}
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, {batches * batch_size}
    syscall 0
""")


def net_send() -> Program:
    """64 frames of 64 bytes through the *emulated* NIC (3 port writes
    each)."""
    return _assemble("""
    li   s0, 64
loop:
    li   a0, 64
    syscall 9                 ; SYS_NET_SEND
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, 64
    syscall 0
""")


def vnet_send(batches: int = 16) -> Program:
    """Frame sends through *virtio-net*: one kick per batch of 8."""
    return _assemble(f"""
    li   s0, {batches}
loop:
    li   a0, 8
    syscall 10                ; SYS_VNET_SEND_BATCH
    sub  s0, s0, 1
    bnez s0, loop
    li   a0, {batches * 8}
    syscall 0
""")


#: Cycles between timer ticks of the NanoOS ``repro boot --workload
#: idle_ticks`` builds: the periodic timer that program waits on.
IDLE_TICKS_TIMER_PERIOD = 20_000


def idle_ticks() -> Program:
    """Spin on SYS_GETTICKS until the timer has fired five times (a
    kernel built with ``timer_period``, such as
    :data:`IDLE_TICKS_TIMER_PERIOD`)."""
    return _assemble("""
loop:
    syscall 3                 ; SYS_GETTICKS -> a0
    li   t0, 5
    bltu a0, t0, loop
    syscall 0                 ; exit with the tick count in a0
""")


def hello() -> Program:
    """Print "hi" over the console and exit with 42."""
    return _assemble("""
    li   a0, 104              ; 'h'
    syscall 1
    li   a0, 105              ; 'i'
    syscall 1
    li   a0, 10
    syscall 1
    li   a0, 42
    syscall 0
""")
