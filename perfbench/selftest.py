"""Tests of the benchmark itself, at a tiny size (under a minute):

    python3 perfbench/selftest.py

They run ``run.main`` in-process with two strata per corpus pass and two
CLI sizes, and keep their scratch files apart from real runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

TINY = {
    name: dataclasses.replace(wl, strata=2, trace_passes=1)
    for name, wl in run.WORKLOADS.items()
}


def tiny_run(workload: str, trace: int, seed: int = 3, workloads=None) -> dict:
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(run.WORKLOADS, workloads or TINY))
        stack.enter_context(mock.patch.object(run, "WORK_DIR", os.path.join(run.WORK_DIR, "selftest")))
        stack.enter_context(mock.patch.object(run, "SETUP_REPEATS", 1))
        stack.enter_context(mock.patch.object(W, "CLI_MAX_N", 2))
        stack.enter_context(contextlib.redirect_stdout(out))
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.001", "--trace", str(trace)]
        code = run.main(args)
    assert code == 0, code
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2])["context"]
    return result


def perturbed(workload: str, change) -> dict:
    wl = TINY[workload]

    def run_and_change(prog, item):
        return change(wl.run(prog, item))

    return {**TINY, workload: dataclasses.replace(wl, run=run_and_change)}


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in BENCH[group]}
            for wl in BENCH["workloads"]:
                with self.subTest(workload=wl["name"], trace=trace):
                    result = tiny_run(wl["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics", "context"})
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["context"]["failed_frac"], 0.0)
                    self.assertGreater(result["attempted"], 0)


class FreshImport(unittest.TestCase):
    def test_a_repeated_item_meets_a_fresh_import(self):
        wl = TINY["packet"]
        visits = []

        def run_and_note(prog, psi):
            visits.append((W.plain(psi), prog.aq))  # keeps each import alive
            return wl.run(prog, psi)

        # the traced run visits every item twice: untraced, then traced
        result = tiny_run("packet", 1, workloads={**TINY, "packet": dataclasses.replace(wl, run=run_and_note)})
        self.assertTrue(result["correct"])
        self.assertLess(len({key for key, _aq in visits}), len(visits))
        self.assertEqual(len({(key, id(aq)) for key, aq in visits}), len(visits))


class FailuresCounted(unittest.TestCase):
    def test_wrong_digest(self):
        real = run.load_expected()
        wrong = {**real, "uniqueness": {k: {**e, "digest": "0" * 20} for k, e in real["uniqueness"].items()}}
        with mock.patch.object(run, "load_expected", lambda: wrong):
            result = tiny_run("uniqueness", 0)
        self.assertGreater(result["context"]["failed_frac"], 0)
        self.assertFalse(result["correct"])

    def test_perturbed_uniqueness_matches(self):
        def extra_match(raw):
            offs, rep = raw
            return offs, dataclasses.replace(rep, matches=rep.matches + rep.matches)

        result = tiny_run("uniqueness", 0, workloads=perturbed("uniqueness", extra_match))
        self.assertEqual(result["context"]["failed_frac"], 1.0)

    def test_perturbed_filtration_count(self):
        def one_more_state(raw):
            ranges, rep = raw
            return ranges, dataclasses.replace(rep, enumerated=rep.enumerated + 1)

        result = tiny_run("filtration", 0, workloads=perturbed("filtration", one_more_state))
        self.assertEqual(result["context"]["failed_frac"], 1.0)

    def test_perturbed_packet_entry(self):
        def drop_vanishing(raw):
            pk_plus, same, down, qm, kernel = raw
            return pk_plus, same, dataclasses.replace(down, vanishing=()), qm, kernel

        result = tiny_run("packet", 0, workloads=perturbed("packet", drop_vanishing))
        self.assertGreater(result["context"]["failed_frac"], 0)

    def test_cli_workers_must_match_byte_for_byte(self):
        def space_for_two_workers(raw):
            code, text = raw
            return code, text + " "

        wl = TINY["cli"]

        def run_cli(prog, argv):
            raw = wl.run(prog, argv)
            return space_for_two_workers(raw) if argv[-2:] == ["--workers", "2"] else raw

        result = tiny_run("cli", 0, workloads={**TINY, "cli": dataclasses.replace(wl, run=run_cli)})
        self.assertGreater(result["context"]["failed_frac"], 0)
        self.assertFalse(result["correct"])

    def test_raising_operation(self):
        def boom(raw):
            raise RuntimeError("operation failed")

        result = tiny_run("packet", 0, workloads=perturbed("packet", boom))
        self.assertEqual(result["context"]["failed_frac"], 1.0)


if __name__ == "__main__":
    unittest.main()
