"""Record the expected digest and exact counts of every benchmark operation.

    python3 perfbench/record.py --workload filtration

runs the workload's operation on every corpus item it can draw,
checks each verdict, and stores the digest of the canonical output, the
exact counts and the measured cost in ``perfbench/expected/<workload>.json``.
``run.py`` compares every operation it times against that file, and
stratifies its samples by the recorded cost.  Re-record only when the
program's outputs are meant to change.  Record ``filtration`` before
``cli``: the cli workload draws its spec files from the filtration
records.  The filtration sweep takes about a quarter of an hour on a
2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from run import EXPECTED_DIR, WORKLOADS, Timings, cli_fixed, cli_spec_item, freeze, load_expected, timed  # noqa: E402


def cli_spec_pool(expected: dict) -> list[str]:
    """Signed-corpus keys whose filtration sweep stays small: the specs
    the cli workload can draw for `verify all`."""
    return [
        k for k, e in sorted(expected["filtration"].items(), key=lambda kv: int(kv[0]))
        if not e["truncated"] and e["states"] <= W.CLI_SPEC_MAX_STATES
    ]


def record(name: str) -> None:
    prog = W.load_program(os.path.join(ROOT, "src"))
    spec = WORKLOADS[name]
    expected = load_expected()
    section: dict = {}
    corpus = W.corpus(prog, spec.signed)
    if name == "cli":
        work = os.path.join(ROOT, ".bench_work", "record")
        os.makedirs(work, exist_ok=True)
        items = cli_fixed() + [cli_spec_item(corpus, k, work) for k in cli_spec_pool(expected)]
    else:
        items = [(str(i), psi) for i, psi in enumerate(corpus)]
    freeze()
    for key, item in items:
        # the cost is the median of up to three runs, within one second,
        # in the scaled time the benchmark reports
        runs = Timings()
        while len(runs.scaled) < 3 and sum(runs.scaled) < 1.0:
            raw, seconds, _cpu = timed(spec.run, prog, item)
            runs.add(seconds)
        ok, out, counts = spec.check(item, raw)
        if not ok:
            raise SystemExit(f"{name} {key}: verdict failed, nothing recorded")
        entry = {"digest": W.digest(out), **counts, "cost_ms": round(1e3 * statistics.median(runs.scaled), 3)}
        first = section.setdefault(key, entry)
        if first["digest"] != entry["digest"]:
            raise SystemExit(f"{name} {key}: output differs between invocations")
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(section, fh, sort_keys=True, indent=0)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    record(args.workload)


if __name__ == "__main__":
    main()
