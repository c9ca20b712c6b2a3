"""The NanoOS kernel, generated as VISA assembly from one template.

``build_kernel(options)`` returns an assembled :class:`~repro.cpu.
assembler.Program` for the kernel image (loaded at ``KERNEL_BASE``).
Workload programs are assembled separately at ``USER_BASE`` (see
:mod:`repro.guest.workloads`); the kernel jumps to ``USER_BASE``
unconditionally after boot.

The single template covers both builds: ``pv=False`` emits privileged
instructions (an unmodified OS); ``pv=True`` emits hypercalls, batched
MMU updates, and shared-info-page reads instead.
"""

from dataclasses import dataclass

from repro.cpu.assembler import Assembler, Program
from repro.guest.layout import DIAG_MAGIC, GuestLayout as L
from repro.util.units import MIB


class SysNum:
    """Syscall numbers (the guest ABI; arguments in a0/a1)."""

    EXIT = 0
    PUTC = 1
    YIELD = 2
    GETTICKS = 3
    MAP = 4  # a0 = heap VA to map
    UNMAP = 5  # a0 = heap VA to unmap
    MAP_BATCH = 6  # a0 = first heap VA, a1 = page count
    BLK_WRITE = 7  # a0 = sector, a1 = count (emulated disk)
    VBLK_WRITE_BATCH = 8  # a0 = base sector, a1 = requests (virtio, one kick)
    NET_SEND = 9  # a0 = frame length (emulated NIC)
    VNET_SEND_BATCH = 10  # a0 = frames of 64B (virtio, one kick)
    BLK_READ = 11  # a0 = sector, a1 = count (emulated disk)
    NET_RECV = 12  # pops one rx frame into DMA_BUF; returns its length


@dataclass
class KernelOptions:
    """Build-time knobs."""

    pv: bool = False
    #: Periodic timer period in cycles (0 = leave the timer off).
    timer_period: int = 0
    #: Guest memory size (locates the PV shared-info page).
    memory_bytes: int = 16 * MIB


def asm_header() -> str:
    """``.equ`` block shared by the kernel and workload sources."""
    lines = []
    constants = {
        "KSTACK_TOP": L.KERNEL_STACK_TOP,
        "DIAG": L.DIAG,
        "SAVE": L.SAVE,
        "BATCH_BUF": L.BATCH_BUF,
        "BATCH_CUR": L.BATCH_CUR,
        "LR_SAVE": L.LR_SAVE,
        "KERNEL_LOW_END": L.KERNEL_LOW_END,
        "PD_BASE": L.PD_BASE,
        "PT_BUMP_START": L.PT_BUMP_START,
        "PT_BUMP_END": L.PT_BUMP_END,
        "PT_BUMP_PTR": L.PT_BUMP_PTR,
        "USER_BASE": L.USER_BASE,
        "USER_END": L.USER_END,
        "USER_STACK_LOW": L.USER_STACK_LOW,
        "USER_STACK_TOP": L.USER_STACK_TOP,
        "POOL_START": L.POOL_START,
        "POOL_END": L.POOL_END,
        "POOL_PTR": L.POOL_PTR,
        "HEAP_BASE": L.HEAP_BASE,
        "HEAP_END": L.HEAP_END,
        "VQ_DESC": L.VQ_DESC,
        "VQ_AVAIL": L.VQ_AVAIL,
        "VQ_USED": L.VQ_USED,
        "VQ_HDRS": L.VQ_HDRS,
        "VQ_STATUS": L.VQ_STATUS,
        "VQ_NET_DESC": L.VQ_NET_DESC,
        "VQ_NET_AVAIL": L.VQ_NET_AVAIL,
        "VQ_NET_USED": L.VQ_NET_USED,
        "VQ_END": L.VQ_END,
        "DMA_BUF": L.DMA_BUF,
        "DMA_END": L.DMA_END,
        "QUEUE_SIZE": L.QUEUE_SIZE,
        "DIAG_MAGIC": DIAG_MAGIC,
        "SYS_EXIT": SysNum.EXIT,
        "SYS_PUTC": SysNum.PUTC,
        "SYS_YIELD": SysNum.YIELD,
        "SYS_GETTICKS": SysNum.GETTICKS,
        "SYS_MAP": SysNum.MAP,
        "SYS_UNMAP": SysNum.UNMAP,
        "SYS_MAP_BATCH": SysNum.MAP_BATCH,
        "SYS_BLK_WRITE": SysNum.BLK_WRITE,
        "SYS_VBLK_WRITE_BATCH": SysNum.VBLK_WRITE_BATCH,
        "SYS_NET_SEND": SysNum.NET_SEND,
        "SYS_VNET_SEND_BATCH": SysNum.VNET_SEND_BATCH,
        "SYS_BLK_READ": SysNum.BLK_READ,
        "SYS_NET_RECV": SysNum.NET_RECV,
    }
    for name, value in constants.items():
        lines.append(f".equ {name}, {value:#x}" if value > 9 else f".equ {name}, {value}")
    return "\n".join(lines)


def build_kernel(opts: KernelOptions) -> Program:
    """Assemble the NanoOS kernel image: boot banner, the sensitive-
    instruction probes (HVM build), virtio queues configured."""
    if opts.memory_bytes < L.MIN_MEMORY:
        raise ValueError(
            f"NanoOS layout needs at least {L.MIN_MEMORY} bytes of guest "
            f"memory, got {opts.memory_bytes}"
        )
    source = _kernel_source(opts)
    program = Assembler().assemble(source)
    # The image must stay clear of the kernel stack page at 0x7000.
    if L.KERNEL_BASE + program.size > L.KERNEL_STACK_TOP - 0x1000:
        raise AssertionError(
            f"kernel image of {program.size} bytes overruns its region"
        )
    return program


# --------------------------------------------------------------------------
# Template pieces. Each returns assembly text; {pv} decides variants.
# --------------------------------------------------------------------------


def _save_regs() -> str:
    # r1..r14 into SAVE + 4*reg; k0 (r15) is the kernel scratch register.
    lines = ["    li   k0, SAVE"]
    names = ["a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3",
             "s0", "s1", "s2", "fp", "sp", "lr"]
    for i, name in enumerate(names, start=1):
        lines.append(f"    st   [k0+{4 * i}], {name}")
    lines.append("    li   sp, KSTACK_TOP")
    return "\n".join(lines)


def _restore_regs_and_return(pv: bool) -> str:
    lines = ["trap_ret:", "    li   k0, SAVE"]
    names = ["a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3",
             "s0", "s1", "s2", "fp", "sp", "lr"]
    for i, name in enumerate(names, start=1):
        lines.append(f"    ld   {name}, [k0+{4 * i}]")
    lines.append("    vmcall 5" if pv else "    iret")
    return "\n".join(lines)


def _read_cause(pv: bool, shared: int) -> str:
    if pv:
        return f"    li   k0, {shared:#x}\n    ld   t0, [k0+4]"
    return "    csrr t0, ECAUSE"


def _read_eval(pv: bool, shared: int) -> str:
    if pv:
        return f"    li   k0, {shared:#x}\n    ld   t1, [k0+8]"
    return "    csrr t1, EVAL"


def _kernel_source(opts: KernelOptions) -> str:
    pv = opts.pv
    shared = L.shared_info_gpa(opts.memory_bytes)

    set_vbar = "    vmcall 1" if pv else "    csrw VBAR, a0"
    set_ptbr = "    vmcall 2" if pv else "    csrw PTBR, a0"

    if not pv:
        probes = """
    ; --- Popek-Goldberg probes (sensitive non-trapping instructions) ---
    ; CSRR MODE must read the *virtual* privilege (kernel = 0).
    csrr t0, MODE
    li   t1, DIAG
    li   t2, 0
    bnez t0, mode_probe_done      ; hardware leaked user mode: violation
    li   t2, 1
mode_probe_done:
    st   [t1+8], t2
    ; STI then CSRR IE must observe IE = 1.
    sti
    csrr t0, IE
    st   [t1+12], t0
    cli
"""
    else:
        probes = """
    ; PV build: probes not applicable (guest reads the shared-info page).
    li   t1, DIAG
    li   t2, 2
    st   [t1+8], t2
    st   [t1+12], t2
"""

    banner = """
    li   t0, 78              ; 'N'
    out  0x10, t0
    li   t0, 10              ; newline
    out  0x10, t0
"""

    if opts.timer_period > 0:
        timer = f"""
    li   t0, {opts.timer_period}
    out  0x40, t0            ; TIMER_PERIOD
    li   t0, 2
    out  0x41, t0            ; TIMER_CTRL: periodic
"""
    else:
        timer = ""

    virtio_init = """
    ; configure virtio-blk queue
    li   t0, VQ_DESC
    out  0x70, t0
    li   t0, VQ_AVAIL
    out  0x71, t0
    li   t0, VQ_USED
    out  0x72, t0
    li   t0, QUEUE_SIZE
    out  0x73, t0
    ; configure virtio-net tx queue
    li   t0, VQ_NET_DESC
    out  0x80, t0
    li   t0, VQ_NET_AVAIL
    out  0x81, t0
    li   t0, VQ_NET_USED
    out  0x82, t0
    li   t0, QUEUE_SIZE
    out  0x83, t0
"""

    # Runtime page-table update routines -----------------------------------
    if not pv:
        map_page_rt = """
; map_page_rt(a0 = page-aligned VA, a1 = page-aligned PA, a2 = flags)
; clobbers t0-t3. Direct stores: under shadow paging each store to a
; page-table page is a trapped, emulated write.
map_page_rt:
    shr  t0, a0, 22
    shl  t0, t0, 2
    li   t1, PD_BASE
    add  t0, t0, t1          ; &PDE
    ld   t1, [t0+0]
    and  t2, t1, 1
    bnez t2, mp_have_pt
    li   t2, PT_BUMP_PTR
    ld   t3, [t2+0]          ; fresh PT page
    add  t1, t3, 0           ; pt base
    or   t3, t3, 7           ; P|W|U
    st   [t0+0], t3
    ld   t3, [t2+0]
    add  t3, t3, 4096
    st   [t2+0], t3
    jmp  mp_pte
mp_have_pt:
    shr  t1, t1, 12
    shl  t1, t1, 12          ; pt base from PDE
mp_pte:
    shr  t2, a0, 12
    and  t2, t2, 0x3ff
    shl  t2, t2, 2
    add  t1, t1, t2          ; &PTE
    or   t2, a1, a2
    or   t2, t2, 1           ; P
    st   [t1+0], t2
    ret

; unmap_page_rt(a0 = page-aligned VA), clobbers t0-t2
unmap_page_rt:
    shr  t0, a0, 22
    shl  t0, t0, 2
    li   t1, PD_BASE
    add  t0, t0, t1
    ld   t1, [t0+0]
    and  t2, t1, 1
    beqz t2, ump_done        ; no PT: nothing mapped
    shr  t1, t1, 12
    shl  t1, t1, 12
    shr  t2, a0, 12
    and  t2, t2, 0x3ff
    shl  t2, t2, 2
    add  t1, t1, t2
    st   [t1+0], zero
    invlpg a0
ump_done:
    ret
"""
    else:
        map_page_rt = """
; PV page-table updates are queued (pt_queue) and issued as ONE
; MMU_BATCH hypercall (pt_flush) -- the Xen multicall pattern. The
; batch cursor lives at BATCH_CUR; the kernel is single-threaded.

; pt_queue(a0 = VA, a1 = PA, a2 = flags): append PDE (if a fresh page
; table is needed) and PTE updates to the batch. Clobbers t0-t3.
pt_queue:
    li   k0, BATCH_CUR
    ld   t3, [k0+0]          ; cursor
    shr  t0, a0, 22
    shl  t0, t0, 2
    li   t1, PD_BASE
    add  t0, t0, t1          ; &PDE
    ld   t1, [t0+0]
    and  t2, t1, 1
    bnez t2, pq_have_pt
    li   t2, PT_BUMP_PTR
    ld   t1, [t2+0]          ; fresh PT page (pa)
    st   [t3+0], t0          ; batch: write PDE
    or   t0, t1, 7
    st   [t3+4], t0
    add  t3, t3, 8
    add  t0, t1, 4096
    st   [t2+0], t0
    jmp  pq_pte
pq_have_pt:
    shr  t1, t1, 12
    shl  t1, t1, 12
pq_pte:
    shr  t2, a0, 12
    and  t2, t2, 0x3ff
    shl  t2, t2, 2
    add  t1, t1, t2          ; &PTE
    or   t2, a1, a2
    or   t2, t2, 1
    st   [t3+0], t1
    st   [t3+4], t2
    add  t3, t3, 8
    st   [k0+0], t3
    ret

; pt_flush: issue every queued update in one hypercall. Clobbers a0/a1.
pt_flush:
    li   k0, BATCH_CUR
    ld   a1, [k0+0]
    li   a0, BATCH_BUF
    sub  a1, a1, a0
    shr  a1, a1, 3           ; entry count
    beqz a1, ptf_done
    vmcall 3
    li   a0, BATCH_BUF
    st   [k0+0], a0          ; reset cursor
ptf_done:
    ret

; map_page_rt: queue one mapping and flush immediately (the unbatched
; path used by demand paging and SYS_MAP). Clobbers t0-t3, k0, a0/a1.
map_page_rt:
    li   k0, LR_SAVE
    st   [k0+0], lr
    call pt_queue
    call pt_flush
    li   k0, LR_SAVE
    ld   lr, [k0+0]
    ret

; unmap_page_rt (PV): one batch entry zeroing the PTE, then a TLB
; shootdown hypercall. (a0 = VA) clobbers t0-t2, s2.
unmap_page_rt:
    mov  s2, a0
    shr  t0, a0, 22
    shl  t0, t0, 2
    li   t1, PD_BASE
    add  t0, t0, t1
    ld   t1, [t0+0]
    and  t2, t1, 1
    beqz t2, pump_done
    shr  t1, t1, 12
    shl  t1, t1, 12
    shr  t2, a0, 12
    and  t2, t2, 0x3ff
    shl  t2, t2, 2
    add  t1, t1, t2          ; &PTE
    li   t0, BATCH_BUF
    st   [t0+0], t1
    st   [t0+4], zero
    li   a0, BATCH_BUF
    li   a1, 1
    vmcall 3
    mov  a0, s2
    vmcall 9                 ; INVLPG hypercall
pump_done:
    ret
"""

    # The boot-time mapper writes page tables with paging still off, so
    # it uses direct stores in both builds (no VMM to notify yet; the
    # shadow/PT machinery only engages once PTBR is installed).
    boot_map = """
; boot_map_range(a0 = first VA, a1 = last VA exclusive, a2 = flags)
; identity maps [a0, a1); direct stores (paging is still off).
; clobbers t0-t3, s0, s1
boot_map_range:
    mov  s0, a0
    mov  s1, a1
bmr_loop:
    bgeu s0, s1, bmr_done
    shr  t0, s0, 22
    shl  t0, t0, 2
    li   t1, PD_BASE
    add  t0, t0, t1
    ld   t1, [t0+0]
    and  t2, t1, 1
    bnez t2, bmr_have_pt
    li   t2, PT_BUMP_PTR
    ld   t3, [t2+0]
    or   t1, t3, 7
    st   [t0+0], t1
    ld   t1, [t2+0]
    add  t3, t1, 4096
    st   [t2+0], t3
    shl  t1, t1, 0           ; pt base already page aligned
    jmp  bmr_pte
bmr_have_pt:
    shr  t1, t1, 12
    shl  t1, t1, 12
bmr_pte:
    shr  t2, s0, 12
    and  t2, t2, 0x3ff
    shl  t2, t2, 2
    add  t1, t1, t2
    or   t2, s0, a2          ; identity: pa = va
    or   t2, t2, 1
    st   [t1+0], t2
    add  s0, s0, 4096
    jmp  bmr_loop
bmr_done:
    ret
"""

    shared_map = (
        f"""
    ; map the PV shared-info page (identity, kernel RW)
    li   a0, {shared:#x}
    li   a1, {shared + 0x1000:#x}
    li   a2, 2               ; kernel W
    call boot_map_range
"""
        if pv
        else ""
    )

    enter_user = f"""
    ; --- drop to user mode ---
    li   a0, USER_BASE
    csrw EPC, a0
    li   a0, 3               ; prior mode = user, prior IE = 1
    csrw ESTATUS, a0
    li   sp, USER_STACK_TOP
    {"vmcall 5" if pv else "iret"}
"""

    # Batched mapping: PV queues every PTE update and flushes once per
    # SYS_MAP_BATCH; HVM just stores per page (trapped under shadow).
    smb_call = "call pt_queue" if pv else "call map_page_rt"
    smb_flush = "call pt_flush" if pv else "nop"

    handler = f"""
; ===================== trap entry =====================
trap_entry:
{_save_regs()}
{_read_cause(pv, shared)}
    li   t1, 1
    beq  t0, t1, h_syscall
    li   t1, 7
    beq  t0, t1, h_timer
    li   t1, 8
    beq  t0, t1, h_device
    li   t1, 2
    beq  t0, t1, h_pf
    li   t1, 3
    beq  t0, t1, h_pf
    li   t1, 4
    beq  t0, t1, h_pf
    jmp  h_fatal

; --- timer interrupt ---
h_timer:
    li   t0, DIAG
    ld   t1, [t0+16]
    add  t1, t1, 1
    st   [t0+16], t1
    in   t1, 0x20            ; PIC status
    li   t2, 1
    out  0x20, t2            ; ack line 0
    jmp  trap_ret

; --- device interrupt ---
h_device:
    li   t0, DIAG
    ld   t1, [t0+36]
    add  t1, t1, 1
    st   [t0+36], t1
    in   t1, 0x20
    out  0x20, t1            ; ack everything pending
    jmp  trap_ret

; --- page fault: demand-page the user heap ---
h_pf:
{_read_eval(pv, shared)}
    li   t2, HEAP_BASE
    bltu t1, t2, h_fatal
    li   t2, HEAP_END
    bgeu t1, t2, h_fatal
    shr  a0, t1, 12
    shl  a0, a0, 12          ; page-aligned VA
    li   t2, POOL_PTR
    ld   a1, [t2+0]
    li   t3, POOL_END
    bgeu a1, t3, h_fatal     ; frame pool exhausted
    add  t3, a1, 4096
    st   [t2+0], t3
    li   a2, 6               ; user | writable
    call map_page_rt
    li   t0, DIAG
    ld   t1, [t0+32]
    add  t1, t1, 1
    st   [t0+32], t1
    jmp  trap_ret

; --- fatal: record and power off ---
h_fatal:
    li   t1, DIAG
    st   [t1+28], t0         ; cause
    li   t0, 2
    out  0xf0, t0            ; power off (code 2 = fault)
    hlt

; --- syscalls (number in EVAL, args in saved a0/a1) ---
h_syscall:
{_read_eval(pv, shared)}
    ; count every syscall
    li   t0, DIAG
    ld   t2, [t0+20]
    add  t2, t2, 1
    st   [t0+20], t2
    li   t0, SYS_EXIT
    beq  t1, t0, s_exit
    li   t0, SYS_PUTC
    beq  t1, t0, s_putc
    li   t0, SYS_YIELD
    beq  t1, t0, s_yield
    li   t0, SYS_GETTICKS
    beq  t1, t0, s_getticks
    li   t0, SYS_MAP
    beq  t1, t0, s_map
    li   t0, SYS_UNMAP
    beq  t1, t0, s_unmap
    li   t0, SYS_MAP_BATCH
    beq  t1, t0, s_map_batch
    li   t0, SYS_BLK_WRITE
    beq  t1, t0, s_blk_write
    li   t0, SYS_VBLK_WRITE_BATCH
    beq  t1, t0, s_vblk_batch
    li   t0, SYS_NET_SEND
    beq  t1, t0, s_net_send
    li   t0, SYS_VNET_SEND_BATCH
    beq  t1, t0, s_vnet_batch
    li   t0, SYS_BLK_READ
    beq  t1, t0, s_blk_read
    li   t0, SYS_NET_RECV
    beq  t1, t0, s_net_recv
    jmp  h_fatal             ; unknown syscall

s_exit:
    li   k0, SAVE
    ld   t1, [k0+4]          ; a0 = exit value
    li   t0, DIAG
    st   [t0+24], t1
    li   t0, 1
    out  0xf0, t0            ; power off (code 1 = clean exit)
    hlt

s_putc:
    li   k0, SAVE
    ld   t1, [k0+4]
    out  0x10, t1
    jmp  trap_ret

s_yield:
    jmp  trap_ret

s_getticks:
    li   t0, DIAG
    ld   t1, [t0+16]
    li   k0, SAVE
    st   [k0+4], t1          ; return in a0
    jmp  trap_ret

s_map:
    li   k0, SAVE
    ld   a0, [k0+4]          ; VA
    shr  a0, a0, 12
    shl  a0, a0, 12
    li   t2, POOL_PTR
    ld   a1, [t2+0]
    li   t3, POOL_END
    bgeu a1, t3, h_fatal
    add  t3, a1, 4096
    st   [t2+0], t3
    li   a2, 6
    call map_page_rt
    jmp  trap_ret

s_unmap:
    li   k0, SAVE
    ld   a0, [k0+4]
    shr  a0, a0, 12
    shl  a0, a0, 12
    call unmap_page_rt
    jmp  trap_ret

s_map_batch:
    li   k0, SAVE
    ld   s0, [k0+4]          ; first VA
    ld   s1, [k0+8]          ; page count
smb_loop:
    beqz s1, smb_done
    mov  a0, s0
    li   t2, POOL_PTR
    ld   a1, [t2+0]
    li   t3, POOL_END
    bgeu a1, t3, h_fatal
    add  t3, a1, 4096
    st   [t2+0], t3
    li   a2, 6
    {smb_call}
    add  s0, s0, 4096
    sub  s1, s1, 1
    jmp  smb_loop
smb_done:
    {smb_flush}
    jmp  trap_ret

; --- emulated block device: one request = 4 port writes + 1 read ---
s_blk_write:
    li   k0, SAVE
    ld   t1, [k0+4]          ; sector
    ld   t2, [k0+8]          ; count
    out  0x50, t1
    out  0x51, t2
    li   t3, DMA_BUF
    out  0x52, t3
    li   t3, 2               ; CMD_WRITE
    out  0x53, t3
    in   t3, 0x54            ; status
    st   [k0+4], t3
    jmp  trap_ret

s_blk_read:
    li   k0, SAVE
    ld   t1, [k0+4]
    ld   t2, [k0+8]
    out  0x50, t1
    out  0x51, t2
    li   t3, DMA_BUF
    out  0x52, t3
    li   t3, 1               ; CMD_READ
    out  0x53, t3
    in   t3, 0x54
    st   [k0+4], t3
    jmp  trap_ret

; --- virtio-blk: a0 = base sector, a1 = n single-sector writes,
;     3 descriptors per request, ONE kick for the whole batch ---
s_vblk_batch:
    li   k0, SAVE
    ld   s0, [k0+4]          ; base sector
    ld   s1, [k0+8]          ; n
    li   s2, 0               ; i
svb_loop:
    bgeu s2, s1, svb_kick
    ; header i at VQ_HDRS + 16*i : type=1(write), sector, count=1
    shl  t0, s2, 4
    li   t1, VQ_HDRS
    add  t0, t0, t1
    li   t1, 1
    st   [t0+0], t1          ; type = write
    add  t1, s0, s2
    st   [t0+4], t1          ; sector
    li   t1, 1
    st   [t0+8], t1          ; count
    ; descriptor base index d = 3*i
    mul  t1, s2, 3
    shl  t2, t1, 4           ; d*16
    li   t3, VQ_DESC
    add  t2, t2, t3          ; &desc[d]
    st   [t2+0], t0          ; addr = header
    li   t3, 12
    st   [t2+4], t3          ; len
    li   t3, 1               ; NEXT
    st   [t2+8], t3
    add  t3, t1, 1
    st   [t2+12], t3
    ; desc[d+1]: data
    add  t2, t2, 16
    li   t3, DMA_BUF
    st   [t2+0], t3
    li   t3, 512
    st   [t2+4], t3
    li   t3, 1
    st   [t2+8], t3
    add  t3, t1, 2
    st   [t2+12], t3
    ; desc[d+2]: status byte (device writes)
    add  t2, t2, 16
    li   t3, VQ_STATUS
    add  t3, t3, s2
    st   [t2+0], t3
    li   t3, 1
    st   [t2+4], t3
    li   t3, 2               ; WRITE
    st   [t2+8], t3
    st   [t2+12], zero
    ; avail.ring[(idx + i) % QUEUE_SIZE] = d
    li   t2, VQ_AVAIL
    ld   t3, [t2+0]          ; current idx
    add  t3, t3, s2
    and  t3, t3, 15
    shl  t3, t3, 2
    add  t3, t3, t2
    st   [t3+4], t1
    add  s2, s2, 1
    jmp  svb_loop
svb_kick:
    li   t2, VQ_AVAIL
    ld   t3, [t2+0]
    add  t3, t3, s1
    st   [t2+0], t3          ; publish idx
    out  0x74, t3            ; ONE kick for the whole batch
    st   [k0+4], zero        ; success
    jmp  trap_ret

; --- emulated NIC receive: pop one frame into DMA_BUF ---
s_net_recv:
    li   k0, SAVE
    li   t1, DMA_BUF
    out  0x64, t1            ; RX buffer address
    li   t1, 1
    out  0x65, t1            ; RX pop
    in   t1, 0x66            ; RX length (0 = queue empty)
    st   [k0+4], t1          ; return length in a0
    jmp  trap_ret

; --- emulated NIC: one frame = 3 port writes ---
s_net_send:
    li   k0, SAVE
    ld   t1, [k0+4]          ; length
    li   t2, DMA_BUF
    out  0x60, t2            ; TX addr
    out  0x61, t1            ; TX len
    li   t2, 1
    out  0x62, t2            ; TX go
    jmp  trap_ret

; --- virtio-net tx: a0 = n frames of 64 bytes, one kick ---
s_vnet_batch:
    li   k0, SAVE
    ld   s1, [k0+4]          ; n
    li   s2, 0
svn_loop:
    bgeu s2, s1, svn_kick
    shl  t2, s2, 4
    li   t3, VQ_NET_DESC
    add  t2, t2, t3          ; &desc[i]
    li   t3, DMA_BUF
    st   [t2+0], t3
    li   t3, 64
    st   [t2+4], t3
    st   [t2+8], zero        ; no flags: single read-only buffer
    st   [t2+12], zero
    li   t2, VQ_NET_AVAIL
    ld   t3, [t2+0]
    add  t3, t3, s2
    and  t3, t3, 15
    shl  t3, t3, 2
    add  t3, t3, t2
    st   [t3+4], s2
    add  s2, s2, 1
    jmp  svn_loop
svn_kick:
    li   t2, VQ_NET_AVAIL
    ld   t3, [t2+0]
    add  t3, t3, s1
    st   [t2+0], t3
    out  0x84, t3            ; tx queue kick
    st   [k0+4], zero
    jmp  trap_ret

{_restore_regs_and_return(pv)}
"""

    return f"""
.org 0x1000
{asm_header()}

start:
    li   sp, KSTACK_TOP
    ; announce
    li   t0, DIAG
    li   t1, DIAG_MAGIC
    st   [t0+0], t1
    ; init bump pointers
    li   t0, PT_BUMP_PTR
    li   t1, PT_BUMP_START
    st   [t0+0], t1
    li   t0, POOL_PTR
    li   t1, POOL_START
    st   [t0+0], t1
    li   t0, BATCH_CUR
    li   t1, BATCH_BUF
    st   [t0+0], t1
{banner}
    ; --- build page tables (identity) ---
    ; kernel image + low pages: kernel-only RW
    li   a0, 0
    li   a1, KERNEL_LOW_END
    li   a2, 2
    call boot_map_range
    ; page directory + page tables region: kernel RW
    li   a0, PD_BASE
    li   a1, PT_BUMP_END
    li   a2, 2
    call boot_map_range
    ; user program text/data: user RW
    li   a0, USER_BASE
    li   a1, USER_END
    li   a2, 6
    call boot_map_range
    ; user stack: user RW
    li   a0, USER_STACK_LOW
    li   a1, USER_STACK_TOP
    li   a2, 6
    call boot_map_range
    ; virtio rings: kernel RW (frame pool is deliberately unmapped)
    li   a0, VQ_DESC
    li   a1, VQ_END
    li   a2, 2
    call boot_map_range
    ; DMA buffers: kernel RW
    li   a0, DMA_BUF
    li   a1, DMA_END
    li   a2, 2
    call boot_map_range
{shared_map}
    ; --- install trap vector, enable paging ---
    li   a0, trap_entry
{set_vbar}
    li   a0, PD_BASE
{set_ptbr}
{probes}
    li   t0, DIAG
    li   t1, 1
    st   [t0+4], t1          ; boot_ok
{virtio_init}
{timer}
{enter_user}

{boot_map}
{map_page_rt}
{handler}
"""
