"""Differential fuzzer tests: determinism, shrinking, bug shims, corpus.

The fuzzer's whole value is byte-reproducibility: the same root seed
must generate the same cases, campaigns must not depend on worker
count, and the shrinker must produce the same minimal repro every
time. The committed corpus under ``tests/fuzz_corpus/`` is replayed
both ways -- it must still flag under the bug shim it was recorded
against and must pass clean at HEAD.
"""

import os

import pytest

from repro.fuzz import gen
from repro.fuzz.bugs import apply_bug, known_bugs
from repro.fuzz.campaign import manifest_identity, run_campaign
from repro.fuzz.corpus import load_corpus, replay_entry
from repro.fuzz.diff import default_opts, run_case
from repro.fuzz.shrink import shrink_case

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
