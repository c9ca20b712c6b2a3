"""Differential fuzzer tests: determinism, shrinking, bug shims, corpus.

The fuzzer's whole value is byte-reproducibility: the same root seed
must generate the same cases, campaigns must not depend on worker
count, and the shrinker must produce the same minimal repro every
time. The committed corpus under ``tests/fuzz_corpus/`` is replayed
both ways -- it must still flag under the bug shim it was recorded
against and must pass clean at HEAD.
"""

import os
from collections import Counter

import pytest

from repro.core import Hypervisor, VirtMode
from repro.core.policies import hmode_controls
from repro.cpu.interp import CPUCore
from repro.cpu.isa import HEDELEG_ALL, HIDELEG_ALL, Cause
from repro.fuzz import diff, gen
from repro.fuzz.bugs import apply_bug, known_bugs
from repro.fuzz.campaign import manifest_identity, run_campaign
from repro.fuzz.corpus import load_corpus, replay_entry
from repro.fuzz.diff import default_opts, run_case
from repro.fuzz.shrink import shrink_case
from repro.mem.physmem import ZERO_PAGE
from tests.test_fuzz_recycle import _case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")

#: A case that diverges under the reintroduced PR-5 trap-vector bug
#: (found by campaign, pinned here so the shrinker tests are fast).
#: Re-pinned twice: when seeded event schedules went default-on (the
#: old (3, 10) stopped reproducing), and again when the H-mode
#: templates joined the generator and reshuffled every seed's draws
#: ((13, 13) went clean). This one shrinks to a single cell.
PR5_SEED, PR5_CASE = 1, 15


# -- generator determinism --------------------------------------------------


def _quiet(_line):
    """A campaign log that prints nothing."""


class TestGeneratorDeterminism:
    def test_same_seed_same_cases(self):
        for index in range(8):
            a = gen.generate_case(41, index)
            b = gen.generate_case(41, index)
            assert a.cells == b.cells
            assert a.layout == b.layout
            assert a.template_counts == b.template_counts

    def test_different_seeds_differ(self):
        a = gen.generate_case(41, 0)
        b = gen.generate_case(42, 0)
        assert a.cells != b.cells

    def test_layout_rederives_from_identity(self):
        spec = gen.generate_case(43, 5)
        assert gen.derive_layout(43, 5) == spec.layout

    def test_page_tables_pack_as_entry_by_entry(self):
        # The tables are packed by one struct call; byte-equal to the
        # entry-at-a-time form they replaced, on 60 layouts.
        def tables(layout):
            def leaf(restricted):
                entries = [0] * 1024
                for vpn, flags in gen._BASE_MAP.items():
                    if restricted:
                        if vpn in (12, 13, 14, 15):
                            continue
                        if vpn in (10, 11):
                            flags &= ~gen.W
                        if vpn == 9:
                            flags &= ~gen.U
                        if vpn == 5:
                            flags |= gen.NX
                    entries[vpn] = gen._pte(vpn, flags)
                for vpage, frame, fl0, fl1 in layout.aliases:
                    entries[vpage] = gen._pte(frame, fl1 if restricted else fl0)
                return b"".join(e.to_bytes(4, "little") for e in entries)

            def root(leaf_pa):
                entries = [0] * 1024
                entries[0] = gen._pte(leaf_pa >> 12, gen.P | gen.W | gen.U)
                return b"".join(e.to_bytes(4, "little") for e in entries)

            return {gen.ROOT0: root(gen.LEAF0), gen.LEAF0: leaf(False),
                    gen.ROOT1: root(gen.LEAF1), gen.LEAF1: leaf(True)}

        layouts = [gen.derive_layout(seed, index)
                   for seed in (1, 9) for index in range(30)]
        assert any(layout.aliases for layout in layouts)
        for layout in layouts:
            assert gen._build_page_tables(layout) == tables(layout)

    def test_image_segments_fit_memory(self):
        for index in range(6):
            spec = gen.generate_case(44, index)
            for addr, data in gen.build_image(spec).items():
                assert addr + len(data) <= gen.MEM_BYTES


# -- interrupt-enabled generation -------------------------------------------


class TestInterruptTemplates:
    def test_generator_emits_interrupt_templates(self):
        counts = {}
        for case in range(20):
            for k, v in gen.generate_case(61, case).template_counts.items():
                counts[k] = counts.get(k, 0) + v
        for name in ("sti_cli", "irq_loop", "iret_ie", "kick_storm"):
            assert counts.get(name, 0) >= 1, f"{name} never generated"

    def test_generator_emits_hmode_templates(self):
        # Delegation-CSR churn and two-stage paging stress must appear:
        # they are the generator's only direct H-mode surface (the
        # hw-hmode backend runs *every* case, but these cells exercise
        # the virtualized CSRs and the exit-free PTBR/INVLPG path).
        counts = {}
        for case in range(20):
            for k, v in gen.generate_case(61, case).template_counts.items():
                counts[k] = counts.get(k, 0) + v
        for name in ("hdeleg", "two_stage"):
            assert counts.get(name, 0) >= 1, f"{name} never generated"

    def test_estatus_writes_are_not_masked(self):
        # The old generator forced IE clear in every CSRW-to-ESTATUS;
        # with delivery deterministic the bit must survive. Scan enough
        # csrw cells to see at least one ESTATUS write with bit1 set.
        from repro.cpu.isa import CSR, Op, decode

        saw_ie = False
        for case in range(120):
            spec = gen.generate_case(83, case)
            for cell in spec.cells:
                words = [int.from_bytes(cell[i:i + 4], "little")
                         for i in range(0, len(cell), 4)]
                for j in range(len(words) - 2):
                    try:
                        movi = decode(words[j], words[j + 1])
                        csrw = decode(words[j + 2],
                                      words[j + 3] if j + 3 < len(words) else 0)
                    except Exception:
                        continue
                    if (movi.op is Op.MOVI and csrw.op is Op.CSRW
                            and (csrw.simm12 & 0xFFF) == int(CSR.ESTATUS)
                            and movi.imm32 & 2):
                        saw_ie = True
            if saw_ie:
                break
        assert saw_ie

    @pytest.mark.parametrize("case", [56, 135, 241])
    def test_seed1_interrupt_cases_stay_clean(self, case):
        # The first unmasked-IE campaign flagged these: case 56 wedged
        # hardware-assist on a HLT intercepted exactly at a due retire
        # edge (the pump loop never fired the event that should wake
        # it), and 135/241 ran stale BT items after an intra-block
        # self-modifying store (the bare JIT had the epoch bail, the
        # translator did not). Both fixed; keep them clean.
        opts = default_opts()
        opts["fault_rate"] = 0.05
        result = run_case(1, case, opts)
        assert result["verdict"]["kind"] == "ok", result["verdict"]

    def test_events_off_and_on_reach_different_states(self):
        # The schedule must actually change execution somewhere in a
        # small sweep -- otherwise delivery is silently disabled.
        from repro.fuzz.diff import run_bare

        differed = False
        for i in range(6):
            segments = gen.build_image(gen.generate_case(61, i))
            plain = run_bare(segments, jit=False)
            scheduled = run_bare(segments, jit=False, event_seed=i + 1)
            if (plain["instret"], plain["regs"], plain["mem"]) != (
                    scheduled["instret"], scheduled["regs"], scheduled["mem"]):
                differed = True
                break
        assert differed


# -- memory compared by page -------------------------------------------------


def _six_runs(seed, index):
    """A case's six results in ``run_case_spec``'s order, each with the
    image its machine holds after the run, read whole: the reference
    its sparse ``mem`` stands for."""
    segments, common = _case(seed, index, 0.05)
    runs = []
    for jit in (False, True):
        result = diff.run_bare(segments, jit=jit, **common)
        runs.append((result, diff._NATIVE.physmem.read_bytes(0, gen.MEM_BYTES)))
    for name, _v, _m in diff.VMM_CONFIGS:
        result = diff.run_vmm(segments, name, **common)
        mem = diff._HOSTS[name].vms["fuzz"].guest_mem
        runs.append((result, mem.read_bytes(0, gen.MEM_BYTES)))
    return runs


def _dense(mem):
    """A run's ``mem`` expanded to the image it stands for."""
    image = bytearray(gen.MEM_BYTES)
    for number, page in mem.items():
        image[number * gen.PAGE:(number + 1) * gen.PAGE] = page
    return bytes(image)


def _byte_masked(results, images):
    """``results`` with each ``mem`` replaced by its image less the bytes
    of ``gen.PT_SPAN``, as one page outside the span: ``compare_vmm``
    gives them the verdict of comparing the masked images."""
    lo, hi = gen.PT_SPAN
    return [{**r, "mem": {0: image[:lo] + image[hi:]}}
            for r, image in zip(results, images)]


def _plant(results, images, k, gfn, offset):
    """Run ``k`` with one byte of page ``gfn`` flipped, in both forms."""
    page = bytearray(results[k]["mem"].get(gfn, ZERO_PAGE))
    page[offset] ^= 1
    mem = {**results[k]["mem"], gfn: bytes(page)}
    image = bytearray(images[k])
    image[gfn * gen.PAGE + offset] ^= 1
    return ([*results[:k], {**results[k], "mem": mem}, *results[k + 1:]],
            [*images[:k], bytes(image), *images[k + 1:]])


class TestMemoryByPage:
    CASES = [(seed, index) for seed in (1, 17, 23) for index in range(12)]

    def test_the_pages_are_the_image(self):
        for seed, index in self.CASES:
            for result, image in _six_runs(seed, index):
                what = (seed, index, result["name"])
                assert _dense(result["mem"]) == image, what
                assert ZERO_PAGE not in result["mem"].values(), what

    def test_compare_vmm_gives_the_byte_masked_verdict(self):
        span = range(gen.PT_SPAN[0] // gen.PAGE, gen.PT_SPAN[1] // gen.PAGE)
        planted = Counter()
        for seed, index in self.CASES:
            runs = _six_runs(seed, index)[2:]
            results, images = [r for r, _ in runs], [i for _, i in runs]
            verdict = diff.compare_vmm(results)
            assert verdict == diff.compare_vmm(_byte_masked(results, images))
            outcome = results[0]["outcome"]
            if verdict[0] is not None or outcome in ("abort", "shutdown"):
                continue
            # hw-nested and bt-shadow, held to hw-shadow on every outcome
            # that compares state: a byte just inside and just outside
            # each edge.
            for k in (1, 3):
                for gfn in (span[0] - 1, span[0], span[-1], span[-1] + 1):
                    for offset in (0, gen.PAGE - 1):
                        sparse, dense = _plant(results, images, k, gfn, offset)
                        verdict = diff.compare_vmm(sparse)
                        assert verdict == diff.compare_vmm(
                            _byte_masked(sparse, dense))
                        assert (verdict[0] is None) == (gfn in span)
                        planted[outcome] += 1
        assert planted["halted"] >= 16 and planted["instr_limit"] >= 16, planted


# -- campaign ---------------------------------------------------------------


class TestCampaign:
    def test_jobs_do_not_change_results(self, tmp_path):
        # Worker fan-out is an implementation detail: the manifest
        # (minus wall-clock timing) must be byte-identical.
        opts = default_opts()
        serial = run_campaign(61, 10, jobs=1, opts=opts, log=_quiet)
        fanned = run_campaign(61, 10, jobs=2, opts=opts, log=_quiet)
        assert (manifest_identity(serial["manifest"])
                == manifest_identity(fanned["manifest"]))

    def test_ic_loop_cases_shard_identically(self):
        # The seed-61 range is rich in inline-cache stress loops
        # (invlpg/root-switch/SMC mid-loop); their verdicts and outcome
        # classes must not depend on worker fan-out.
        counts = {}
        for case in range(10):
            for k, v in gen.generate_case(61, case).template_counts.items():
                counts[k] = counts.get(k, 0) + v
        assert counts.get("ic_loop", 0) >= 5
        opts = default_opts()
        serial = run_campaign(61, 10, jobs=1, opts=opts, log=_quiet)
        fanned = run_campaign(61, 10, jobs=3, opts=opts, log=_quiet)
        assert (manifest_identity(serial["manifest"])
                == manifest_identity(fanned["manifest"]))

    def test_clean_campaign_has_no_failures(self):
        out = run_campaign(61, 6, jobs=1, opts=default_opts(), log=_quiet)
        assert out["failures"] == []
        fz = out["manifest"]["extra"]["fuzz"]
        assert fz["cases"] == 6
        classes = fz["outcome_classes"]
        assert sum(classes.values()) >= 6
        # A healthy outcome mix: most generated guests must actually
        # halt -- a generator that mostly hangs or aborts is stressing
        # the cycle guard, not the backends.
        assert classes.get("halted", 0) >= 6 // 2
        assert classes.get("hang", 0) == 0

    def test_campaign_writes_artifacts(self, tmp_path):
        opts = default_opts()
        opts["bug"] = "pr5-vector-loop"
        out = run_campaign(PR5_SEED, PR5_CASE + 1, jobs=1, opts=opts,
                           log=_quiet, shrink=True, out_dir=str(tmp_path))
        assert out["failures"]
        names = sorted(os.listdir(tmp_path))
        assert "manifest.json" in names
        assert any(n.startswith("repro-") and n.endswith(".json")
                   for n in names)
        assert any(n.endswith(".py") for n in names)


# -- bug shims and shrinking ------------------------------------------------


class TestBugShims:
    def test_known_bugs_listed(self):
        assert "pr5-vector-loop" in known_bugs()
        assert "bt-stale-smc" in known_bugs()
        assert "vm-console-rx-ready" in known_bugs()

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            with apply_bug("no-such-bug"):
                pass

    def test_pr5_bug_caught_and_shrinks_small(self):
        opts = default_opts()
        opts["bug"] = "pr5-vector-loop"
        original = run_case(PR5_SEED, PR5_CASE, opts)
        assert original["verdict"]["kind"] != "ok"
        shrunk = shrink_case(PR5_SEED, PR5_CASE, opts, original)
        assert shrunk["result"]["verdict"]["kind"] != "ok"
        assert shrunk["body_instructions"] < 20

    def test_shrinker_is_deterministic(self):
        opts = default_opts()
        opts["bug"] = "pr5-vector-loop"
        original = run_case(PR5_SEED, PR5_CASE, opts)
        a = shrink_case(PR5_SEED, PR5_CASE, opts, original)
        b = shrink_case(PR5_SEED, PR5_CASE, opts, original)
        assert a["cells"] == b["cells"]  # byte-identical minimal repro
        assert a["evals"] == b["evals"]


# -- locating a failure -----------------------------------------------------

#: bt-stale-smc's first failing case of seed 1: native and bt-shadow part
#: at retire edge 46 (bt-shadow runs a stale translation).
SMC_SEED, SMC_CASE = 1, 1

#: vm-console-rx-ready's first failing case of seed 1: the guest reads the
#: console's status port, and every VMM row reads RX-ready.
CONSOLE_SEED, CONSOLE_CASE = 1, 8


class TestLocate:
    def test_smc_edge_is_the_first_differing_budget(self):
        opts = {**default_opts(), "bug": "bt-stale-smc"}
        result = run_case(SMC_SEED, SMC_CASE, opts)
        assert result["verdict"]["pair"] == ("interp", "bt-shadow")
        edge = diff.locate(gen.generate_case(SMC_SEED, SMC_CASE), opts,
                           result["verdict"])
        segments, common = _case(SMC_SEED, SMC_CASE, 0.0)

        def parts(n):
            return diff.compare_vmm([
                diff.run_bare(segments, jit=False, budget=n, **common),
                diff.run_on(*diff.pooled_machine("bt-shadow"), segments,
                            budget=n, **common)])[1]

        with apply_bug("bt-stale-smc"):
            first = next(n for n in range(1, 601) if parts(n))
            assert parts(first - 1) == []
        assert edge["n"] == first == 46
        assert edge["fields"] == ["pc", "regs"]
        assert {name: row["pc"] for name, row in edge["rows"].items()} == {
            "interp": 0x3010, "bt-shadow": 0x3060}
        assert "exits" not in edge["rows"]["interp"]
        assert len(edge["rows"]["bt-shadow"]["exits"]) <= diff.EXIT_TAIL

    def test_vector_loop_edge_is_the_stall(self):
        opts = {**default_opts(), "bug": "pr5-vector-loop"}
        result = run_case(PR5_SEED, PR5_CASE, opts)
        edge = diff.locate(gen.generate_case(PR5_SEED, PR5_CASE), opts,
                           result["verdict"])
        assert edge["n"] == 87
        assert edge["rows"]["interp"]["pc"] == 0x500
        # Independently: the 87th instruction retires, the 88th never does.
        segments, common = _case(PR5_SEED, PR5_CASE, 0.0)
        with apply_bug("pr5-vector-loop"):
            at = diff.run_bare(segments, jit=False, budget=87, **common)
            past = diff.run_bare(segments, jit=False, budget=88, **common)
        assert (at["outcome"], at["instret"]) == ("instr_limit", 87)
        assert (past["outcome"], past["instret"], past["pc"]) == (
            "hang", 87, 0x500)

    def test_clean_case_has_no_edge(self):
        opts = default_opts()
        spec = gen.generate_case(SMC_SEED, SMC_CASE)
        result = run_case(SMC_SEED, SMC_CASE, opts)
        assert diff.locate(spec, opts, result["verdict"]) is None
        # Told the pair diverges, the locator finds nowhere it does.
        claimed = {"kind": "divergence", "pair": ("hw-shadow", "bt-shadow")}
        assert diff.locate(spec, opts, claimed) is None

    def test_failing_campaign_disarms_every_trace(self):
        opts = {**default_opts(), "bug": "bt-stale-smc"}
        out = run_campaign(SMC_SEED, SMC_CASE + 1, jobs=1, opts=opts,
                           log=_quiet)
        assert out["failures"][0]["edge"]["n"] == 46
        assert diff._HOSTS
        assert all(hv.trace is None for hv in diff._HOSTS.values())

    def test_located_manifest_is_jobs_independent(self):
        opts = {**default_opts(), "bug": "bt-stale-smc"}
        serial = run_campaign(SMC_SEED, 5, jobs=1, opts=opts, log=_quiet)
        fanned = run_campaign(SMC_SEED, 5, jobs=2, opts=opts, log=_quiet)
        failures = serial["manifest"]["extra"]["fuzz"]["failures"]
        assert failures and all(f["edge"] for f in failures)
        assert (manifest_identity(serial["manifest"])
                == manifest_identity(fanned["manifest"]))

    def test_a_bug_only_native_sees_is_caught_located_and_shrunk(self):
        # Every VMM row builds the same wrong console, so the four agree;
        # held to native, each of them differs.
        opts = {**default_opts(), "bug": "vm-console-rx-ready"}
        segments, common = _case(CONSOLE_SEED, CONSOLE_CASE, 0.0)
        with apply_bug("vm-console-rx-ready"):
            vmm = [diff.run_vmm(segments, name, **common)
                   for name, _v, _m in diff.VMM_CONFIGS]
        assert diff.compare_vmm(vmm) == (None, [], None)
        result = run_case(CONSOLE_SEED, CONSOLE_CASE, opts)
        assert result["verdict"] == {"kind": "divergence", "group": "vmm",
                                     "fields": ["regs"],
                                     "pair": ("interp", "hw-shadow")}
        edge = diff.locate(gen.generate_case(CONSOLE_SEED, CONSOLE_CASE),
                           opts, result["verdict"])
        # The edge is the IN from the console's status port.
        assert (edge["n"], edge["fields"]) == (42, ["regs"])
        assert set(edge["rows"]) == {"interp", "hw-shadow"}
        assert edge["rows"]["hw-shadow"]["exits"][-1][1:4] == [
            "io_in", "fuzz", "port_0x11"]
        shrunk = shrink_case(CONSOLE_SEED, CONSOLE_CASE, opts, result)
        assert shrunk["result"]["verdict"]["pair"] == ("interp", "hw-shadow")
        assert len(shrunk["cells"]) == 1
        clean = run_case(CONSOLE_SEED, CONSOLE_CASE, default_opts())
        assert clean["verdict"]["kind"] == "ok"

    def test_due_events_fire_before_the_budget_returns(self):
        # Seed 1, case 46 at budget 36 ends on an exit edge with a timer
        # event due: every row fires it (delivering nothing) before the
        # limit returns, bt-shadow included.
        segments, common = _case(1, 46, 0.02)
        rows = [diff.run_on(*diff.pooled_machine(name), segments, budget=36,
                            **common)
                for name, _v, _m in diff.VMM_CONFIGS]
        assert [r["pending"] for r in rows] == [["IRQ_TIMER"]] * 4
        assert diff.compare_vmm(rows) == (None, [], None)


# -- per-case delegation masks ----------------------------------------------

#: The causes the generator raises: every delegable one but ILLEGAL.
RAISED = {c for c in Cause if (HEDELEG_ALL | HIDELEG_ALL) >> c & 1} - {
    Cause.ILLEGAL}


def _hmode_row(segments, common):
    """Run the hw-hmode row; (result, cycles, guest_trap exits by cause,
    the drawn ``trap_exits``)."""
    hv, vm = diff.pooled_machine("hw-hmode")
    row = diff.run_on(hv, vm, segments, **common)
    exits = Counter({Cause[k.split(":", 1)[1].upper()]: n
                     for k, n in vm.exit_stats.counts.items()
                     if k.startswith("guest_trap:")})
    return row, vm.vcpus[0].cpu.cycles, exits, vm.vcpus[0].cpu.controls.trap_exits


class TestDelegationMasks:
    def test_drawn_masks_change_only_who_delivers(self, monkeypatch):
        # Re-injection runs the core's own delivery: a case under its
        # drawn masks ends where it ends under full delegation, guest
        # cycles included, and exits once per trap it left out.
        delivered = Counter()
        deliver = CPUCore.deliver_trap

        def counting(cpu, info):
            delivered[info.cause] += 1
            deliver(cpu, info)

        monkeypatch.setattr(CPUCore, "deliver_trap", counting)
        undelegated = 0
        for index in range(40):
            segments, common = _case(1, index, 0.0)
            drawn, cycles, exits, trap_exits = _hmode_row(segments, common)
            with monkeypatch.context() as full_masks:
                full_masks.setattr(diff, "hmode_controls", lambda *_: (
                    hmode_controls(HEDELEG_ALL, HIDELEG_ALL)))
                delivered.clear()
                full, full_cycles, full_exits, _ = _hmode_row(segments, common)
            assert not full_exits
            assert drawn == full, index
            assert cycles == full_cycles, index
            assert exits == Counter({c: n for c, n in delivered.items()
                                     if trap_exits >> c & 1}), index
            undelegated += sum(exits.values())
        assert undelegated

    def test_every_raised_cause_exits_undelegated(self):
        exited = set()
        for index in range(24):
            result = run_case(5, index, default_opts())
            assert result["verdict"]["kind"] == "ok", (index, result["verdict"])
            counts = diff._HOSTS["hw-hmode"].vms["fuzz"].exit_stats.counts
            exited |= {Cause[k.split(":", 1)[1].upper()]
                       for k in counts if k.startswith("guest_trap:")}
        assert exited == RAISED

    def test_a_lost_reinjected_value_is_caught_and_shrinks(self, monkeypatch):
        exit_guest_trap = Hypervisor._exit_guest_trap

        def drop_value(hv, vm, vcpu, ins, info):
            if vm.config.virt_mode is VirtMode.HW_ASSIST:
                info = info._replace(value=0)
            return exit_guest_trap(hv, vm, vcpu, ins, info)

        monkeypatch.setattr(Hypervisor, "_exit_guest_trap", drop_value)
        opts = default_opts()
        result = run_case(1, 2, opts)
        assert result["verdict"]["pair"] == ("interp", "hw-hmode")
        shrunk = shrink_case(1, 2, opts, result)
        assert len(shrunk["cells"]) <= 2


# -- committed corpus -------------------------------------------------------


def _corpus_entries():
    return load_corpus(CORPUS_DIR)


class TestCorpusReplay:
    def test_corpus_is_nonempty(self):
        entries = _corpus_entries()
        assert len(entries) >= 2
        bugs = {e["opts"].get("bug") for e in entries}
        assert "pr5-vector-loop" in bugs
        assert "bt-stale-smc" in bugs

    @pytest.mark.parametrize(
        "entry", _corpus_entries(),
        ids=lambda e: f"{e['opts'].get('bug')}-s{e['root_seed']}"
                      f"-c{e['case_index']}")
    def test_entry_flags_under_shim_and_passes_at_head(self, entry):
        # (An entry without a shim was found by a campaign on an older
        # commit: nothing at HEAD brings its bug back to flag.)
        if entry["opts"].get("bug") is not None:
            buggy = replay_entry(entry, with_bug=True)
            assert buggy["verdict"]["kind"] == entry["verdict"]["kind"]
        clean = replay_entry(entry, with_bug=False)
        assert clean["verdict"]["kind"] == "ok", (
            "committed corpus repro regressed at HEAD: "
            f"{clean['verdict']}"
        )
