"""Fuzz campaigns: parallel differential execution + shrinking + manifest.

A campaign runs ``cases`` generated programs, each a pure function of
``(root_seed, case_index, opts)``, across all five backends. Cases
fan out over ``multiprocessing`` workers; because every case carries
its identity, scheduling is irrelevant to the results and a campaign's
manifest is byte-identical for ``--jobs 1`` and ``--jobs 8`` (modulo
the manifest's wall-clock timing block, which identity comparison
strips -- see :func:`manifest_identity`).

Each failing case is located (:func:`~repro.fuzz.diff.locate`: the
retire edge where its pair first parts), shrunk (optional) and written
to the output directory as corpus JSON plus standalone repro scripts;
the manifest summarizes outcomes, per-template coverage counters and
shrink stats under the ``fuzz.*`` metrics scope.
"""

import json
import multiprocessing
import os
from typing import Callable, Dict, List, Optional

from repro.fuzz import gen
from repro.fuzz.corpus import make_entry, save_entry, write_repro_script
from repro.fuzz.diff import default_opts, locate, run_case
from repro.fuzz.shrink import shrink_case
from repro.obs.manifest import build_manifest
from repro.obs.registry import MetricsRegistry


def _run_one(args) -> Dict:
    root_seed, index, opts = args
    return run_case(root_seed, index, opts)


def run_campaign(root_seed: int, cases: int, jobs: int, opts: Dict,
                 log: Callable[[str], None], shrink: bool = True,
                 out_dir: Optional[str] = None) -> Dict:
    """Run a campaign; returns ``{"manifest", "results", "failures"}``.
    ``log`` gets one message per failure (with its edge) and per shrunk
    repro."""
    opts = {**default_opts(), **opts}
    work = [(root_seed, i, opts) for i in range(cases)]

    if jobs > 1:
        # fork keeps the loaded package; chunking keeps dispatch cheap.
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, cases // (jobs * 8))
        with ctx.Pool(processes=jobs) as pool:
            results = pool.map(_run_one, work, chunksize=chunk)
    else:
        results = [_run_one(w) for w in work]
    results.sort(key=lambda r: r["index"])

    failures = [r for r in results if r["verdict"]["kind"] != "ok"]
    for f in failures:
        f["edge"] = locate(gen.generate_case(root_seed, f["index"]), opts,
                           f["verdict"])
        log(f"case {f['index']}: {f['verdict']['kind']} "
            f"({f['verdict']['group']}, fields={f['verdict']['fields']})"
            + _describe(f["edge"]))

    shrunk: List[Dict] = []
    if shrink:
        for failure in failures:
            s = shrink_case(root_seed, failure["index"], opts,
                            original=failure)
            entry = make_entry(root_seed, failure["index"], s["cells"],
                               opts, s["result"]["verdict"],
                               shrink_evals=s["evals"])
            shrunk.append({"entry": entry, "stats": s})
            log(f"case {failure['index']}: shrunk "
                f"{s['original_cells']} -> {s['shrunk_cells']} cells "
                f"({s['body_instructions']} instructions, "
                f"{s['evals']} probes)")

    registry = MetricsRegistry()
    scope = registry.scope("fuzz")
    scope.counter("cases").inc(len(results))
    scope.counter("divergences").inc(
        sum(1 for r in results if r["verdict"]["kind"] == "divergence"))
    scope.counter("hangs").inc(
        sum(1 for r in results if r["verdict"]["kind"] == "hang"))
    scope.counter("aborts").inc(
        sum(1 for r in results if r["outcomes"]["interp"] == "abort"))
    scope.counter("shrink.probes").inc(
        sum(s["stats"]["evals"] for s in shrunk))
    template_totals: Dict[str, int] = {}
    for r in results:
        for name, count in r["template_counts"].items():
            template_totals[name] = template_totals.get(name, 0) + count
    for name in sorted(template_totals):
        scope.counter(f"template.{name}").inc(template_totals[name])

    manifest = build_manifest(registry, experiment="fuzz", extra={
        "fuzz": {
            "root_seed": root_seed,
            "cases": cases,
            "opts": {k: v for k, v in sorted(opts.items())},
            "failures": [
                {"index": r["index"],
                 "verdict": r["verdict"],
                 "outcomes": r["outcomes"],
                 "edge": r["edge"]}
                for r in failures
            ],
            "shrunk": [
                {"index": s["entry"]["case_index"],
                 "cells": s["entry"]["cells"],
                 "body_instructions": s["entry"]["body_instructions"],
                 "shrink_evals": s["entry"]["shrink_evals"]}
                for s in shrunk
            ],
            "outcome_classes": _outcome_histogram(results),
        },
    })

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for s in shrunk:
            stem = f"repro-{root_seed}-{s['entry']['case_index']}"
            save_entry(os.path.join(out_dir, stem + ".json"), s["entry"])
            write_repro_script(os.path.join(out_dir, stem + ".py"),
                               s["entry"])

    return {"manifest": manifest, "results": results,
            "failures": failures, "shrunk": shrunk}


def _describe(edge: Optional[Dict]) -> str:
    """A located edge as log lines: each row's pc, the instruction there
    and its exit tail (``reason/detail@pc``)."""
    if edge is None:
        return ", not located"
    lines = [f" at edge {edge['n']} (fields={edge['fields']})"]
    for name, row in edge["rows"].items():
        exits = " ".join(f"{e[1]}/{e[3]}@{e[4]:#x}" for e in row.get("exits", ()))
        lines.append(f"  {name:9s} pc={row['pc']:#x} {row['ins']}"
                     + (f"; exits: {exits}" if exits else ""))
    return "\n".join(lines)


def _outcome_histogram(results: List[Dict]) -> Dict[str, int]:
    hist: Dict[str, int] = {}
    for r in results:
        for outcome in r["outcomes"].values():
            hist[outcome] = hist.get(outcome, 0) + 1
    return dict(sorted(hist.items()))


def manifest_identity(manifest: Dict) -> str:
    """Deterministic serialization of a campaign manifest: everything
    except wall-clock fields. Two campaigns over the same inputs must
    agree on this string regardless of ``--jobs``."""
    stripped = {k: v for k, v in manifest.items()
                if k not in ("time", "timebase")}
    return json.dumps(stripped, sort_keys=True)
