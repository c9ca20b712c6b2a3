"""Command-line interface."""

import json

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "hw-nested" in out and "hello" in out


def test_run_single_experiment(capsys):
    assert main(["run", "e5"]) == 0
    out = capsys.readouterr().out
    assert "E5a" in out and "credit" in out
    assert "E5b" in out  # the extra latency table prints too


def test_run_json_emits_metrics_manifest(capsys):
    assert main(["run", "e5", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["schema"] == "pyvisor.metrics.manifest/1"
    assert manifest["experiment"] == "E5"
    # Baseline registration guarantees coverage even for a
    # scheduler-only experiment.
    assert len(manifest["subsystems"]) >= 6
    dispatches = manifest["metrics"]["sched.dispatches"]
    assert dispatches["type"] == "counter"
    assert dispatches["value"] > 0
    # Wake-latency histograms come through as summaries.
    names = manifest["subsystems"]["sched"]
    assert any(n.endswith("wake_latency_us") for n in names)


def test_run_unknown_experiment(capsys):
    assert main(["run", "e99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_boot_default(capsys):
    assert main(["boot"]) == 0
    out = capsys.readouterr().out
    assert "user result       : 42" in out
    assert "virtualization OK : True" in out


def test_boot_trap_emulate_reports_violation(capsys):
    assert main(["boot", "--mode", "trap-emulate"]) == 0
    out = capsys.readouterr().out
    assert "virtualization OK : False" in out


def test_boot_native(capsys):
    assert main(["boot", "--mode", "native", "--workload", "syscall_storm"]) == 0
    out = capsys.readouterr().out
    assert "exits             : 0" in out


def test_boot_bad_arguments(capsys):
    assert main(["boot", "--mode", "nope"]) == 2
    assert main(["boot", "--workload", "nope"]) == 2


def test_run_e8s_sharded_json(capsys):
    assert main(["run", "e8s", "--quick", "--shards", "2", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["schema"] == "pyvisor.metrics.manifest/1"
    assert manifest["experiment"] == "E8s"
    assert manifest["extra"]["cluster_sharded"]["shards"] == 2
    assert "cluster.shard.000.epochs" in manifest["metrics"]


def test_run_shard_flags_ignored_for_unaware_experiments(capsys):
    # --shards only reaches shard-aware experiments; others run as
    # before.
    assert main(["run", "e5", "--shards", "4"]) == 0
    assert "E5a" in capsys.readouterr().out


def test_fuzz_faults_on_by_default(capsys):
    assert main(["fuzz", "--seed", "1", "--cases", "2", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["extra"]["fuzz"]["opts"]["fault_rate"] == 0.05


def test_fuzz_no_faults_flag(capsys):
    assert main(["fuzz", "--seed", "1", "--cases", "2", "--no-faults",
                 "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["extra"]["fuzz"]["opts"]["fault_rate"] == 0.0


def test_fuzz_text_report_carries_the_wall_clock(capsys):
    # Aim 1's "wall-clock for a campaign" as a number -- in the text
    # report only: the manifest is what --jobs parity compares.
    import re

    assert main(["fuzz", "--seed", "1", "--cases", "2"]) == 0
    report = capsys.readouterr().out
    assert re.search(r"^elapsed +: \d+\.\d\d s$", report, re.M)
    assert re.search(r"^cases/s +: \d+\.\d$", report, re.M)
    assert main(["fuzz", "--seed", "1", "--cases", "2", "--json"]) == 0
    manifest = capsys.readouterr().out
    assert "elapsed" not in manifest and "cases/s" not in manifest


def test_fuzz_events_on_by_default_and_no_events_flag(capsys):
    assert main(["fuzz", "--seed", "1", "--cases", "2", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["extra"]["fuzz"]["opts"]["events"] is True
    assert main(["fuzz", "--seed", "1", "--cases", "2", "--no-events",
                 "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["extra"]["fuzz"]["opts"]["events"] is False


def test_faults_list_enumerates_registered_sites(capsys):
    assert main(["faults", "--list"]) == 0
    out = capsys.readouterr().out
    for site in ("irq.lost", "irq.spurious", "irq.storm", "irq.delayed",
                 "virtio.ring_stuck", "host.crash"):
        assert site in out
    assert "[irq]" in out and "[virtio]" in out
    assert "registered fault sites" in out


def test_faults_without_list_errors(capsys):
    assert main(["faults"]) == 2
