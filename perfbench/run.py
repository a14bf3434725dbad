"""Corpus-sweep benchmark for arthurcomb.

    python3 perfbench/run.py --workload uniqueness --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  One process runs a closed loop: one operation
at a time, the next one only after the previous one returned.  The
operations come in passes; every pass draws one corpus item from each
cost stratum (see ``strata_of``), so a pass costs about the same
whatever the seed.  The run makes as many passes as the recorded costs
say fit in ``--seconds``.

Operations are timed in elapsed time, scaled to a fixed machine speed
(see ``Timings``).  The program is imported afresh (untimed) before any
item is visited a second time in the process, so no state it keeps
carries over from one visit of an item to the next.  Every operation is
checked: its verdict, the digest of its canonical output and its exact
counts must equal ``perfbench/expected/``.  With ``--trace 0`` the last
line of stdout is the end-to-end result; with ``--trace 1`` a fixed
number of passes runs untraced, then traced, and the last line holds
the per-layer metrics.  The line before it records the machine context.
Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_DIR = os.path.join(HERE, "expected")
WORK_DIR = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 5
# A run stops early only past this many times --seconds of wall time; on
# the machine this was written on, a run took up to 1.7 times --seconds.
DEADLINE_FACTOR = 1.75
STRATUM_SIZE = 8
REFERENCE_N = 3000
REFERENCE_S = 1e-3  # the reference loop's time on the machine times are scaled to


@dataclass(frozen=True)
class Workload:
    run: Callable
    check: Callable
    signed: bool
    strata: int  # stratified items per pass
    trace_passes: int  # fixed work of the traced run
    heavy: Callable[[dict], bool]
    heavy_rule: str
    build: Callable = W.parameter  # an item's plain data -> the operation's input


WORKLOADS = {
    "uniqueness": Workload(
        W.uniqueness_run, W.uniqueness_check, signed=False, strata=65, trace_passes=3,
        heavy=lambda e: e["rearrangements"] >= 5040,
        heavy_rule="rearrangements >= 5040",
    ),
    "filtration": Workload(
        W.filtration_run, W.filtration_check, signed=True, strata=11, trace_passes=1,
        heavy=lambda e: bool(e["truncated"]),
        heavy_rule="filtration stopped at the state cap",
    ),
    "packet": Workload(
        W.packet_run, W.packet_check, signed=True, strata=129, trace_passes=4,
        heavy=lambda e: e["packet_entries"] >= 16,
        heavy_rule="dominating packet has >= 16 entries",
    ),
    "cli": Workload(
        W.cli_run, W.cli_check, signed=True, strata=7, trace_passes=1,
        heavy=lambda e: False,
        heavy_rule="none: the invocation list is fixed per pass",
        build=lambda prog, argv: argv,
    ),
}


def load_expected() -> dict:
    """Recorded digests and counts, one file per workload."""
    out = {}
    for name in WORKLOADS:
        path = os.path.join(EXPECTED_DIR, f"{name}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                out[name] = json.load(fh)
    return out


# ---------------------------------------------------------------------------
# sampling


def strata_of(keys: list[str], entries: dict, wl: Workload) -> list[list[str]]:
    """``wl.strata`` groups of ``STRATUM_SIZE`` neighbours in recorded cost
    order, centred on evenly spaced quantiles.

    Heavy and light keys are stratified apart, with strata given to each
    in proportion, so every pass holds the same number of heavy items.
    Items within a stratum cost about the same, so the seed changes
    which items run but hardly what they cost.
    """
    heavy = [k for k in keys if wl.heavy(entries[k])]
    light = [k for k in keys if not wl.heavy(entries[k])]
    n_heavy = round(wl.strata * len(heavy) / len(keys))
    out = []
    for group, n in ((light, wl.strata - n_heavy), (heavy, n_heavy)):
        group.sort(key=lambda k: (entries[k]["cost_ms"], int(k)))
        width = min(STRATUM_SIZE, len(group) // max(n, 1))
        for i in range(n):
            lo = min(max((2 * i + 1) * len(group) // (2 * n) - width // 2, 0), len(group) - width)
            out.append(group[lo : lo + width])
    return out


def pass_cost(strata: list[list[str]], entries: dict) -> float:
    """Recorded milliseconds of an average pass."""
    return sum(statistics.fmean(entries[k]["cost_ms"] for k in s) for s in strata)


def passes(strata: list[list], rng: random.Random):
    """Pass j takes the j-th item of each shuffled stratum, cycling."""
    for s in strata:
        rng.shuffle(s)
    j = 0
    while True:
        p = [s[j % len(s)] for s in strata]
        rng.shuffle(p)
        yield p
        j += 1


def cli_fixed() -> list[tuple[str, list[str]]]:
    """The invocations every cli pass runs, keyed by what fixes their
    output; --workers 2 directly follows --workers 1 for the same n."""
    out = []
    for n in range(1, W.CLI_MAX_N + 1):
        out.append((f"twisted n={n}", W.cli_twisted_argv(n, 1)))
        out.append((f"twisted n={n}", W.cli_twisted_argv(n, 2)))
        out.append((f"kostant n={n}", W.cli_kostant_argv(n)))
    return out


def cli_spec_item(signed: list, key: str, work: str) -> tuple[str, list[str]]:
    """Write the spec file of corpus item ``key``; return its `verify all` item."""
    path = os.path.join(work, f"spec-{key}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(W.spec_payload(signed[int(key)]), fh)
    return f"all {key}", W.cli_all_argv(path)


def setup(name: str, seed: int, expected: dict):
    """Everything before the first timed operation: imports, corpus
    enumeration, seeded sample selection and input-file writing.

    Returns the program, the passes and the recorded cost of a pass."""
    wl = WORKLOADS[name]
    prog = W.load_program(SRC)
    rng = random.Random(seed)
    corpus = W.corpus(prog, wl.signed)
    entries = expected[name]
    if name == "cli":
        work = os.path.join(WORK_DIR, f"cli-{seed}")
        os.makedirs(work, exist_ok=True)
        keys = [k.split()[1] for k in entries if k.startswith("all ")]
        cost = {k: entries[f"all {k}"] for k in keys}
        spec_strata = strata_of(keys, cost, wl)
        strata = [[cli_spec_item(corpus, k, work) for k in s] for s in spec_strata]
        fixed = cli_fixed()
        pass_ms = sum(entries[k]["cost_ms"] for k, _argv in fixed) + pass_cost(spec_strata, cost)
        return prog, (fixed + p for p in passes(strata, rng)), pass_ms
    keys = [str(i) for i in range(len(corpus))]
    if set(keys) != set(entries):
        raise RuntimeError(f"the {name} corpus does not match the recorded one")
    key_strata = strata_of(keys, entries, wl)
    strata = [[(k, W.plain(corpus[int(k)])) for k in s] for s in key_strata]
    return prog, passes(strata, rng), pass_cost(key_strata, entries)


# ---------------------------------------------------------------------------
# measurement


class Loaded:
    """The program under test, imported afresh before an item is visited
    a second time, so that a cache in the program never serves a repeat
    visit that a user's single-pass sweep would not make.  A tracer, if
    given, is moved onto each new import."""

    def __init__(self, prog, tracer: tracing.Tracer | None = None):
        self.prog = prog
        self.tracer = tracer
        self.seen: set[str] = set()
        self.reloads = 0
        if tracer is not None:
            tracer.install(prog)

    def visit(self, key: str):
        if key in self.seen:
            if self.tracer is not None:
                self.tracer.remove()
            self.prog = None
            gc.unfreeze()  # collect the old import before making the new one
            gc.collect()
            self.prog = W.load_program(SRC)
            freeze()
            if self.tracer is not None:
                self.tracer.install(self.prog)
            self.seen.clear()
            self.reloads += 1
        self.seen.add(key)
        return self.prog


class Checker:
    """Checks each operation against the recorded digest and counts."""

    def __init__(self, name: str, expected: dict):
        self.wl = WORKLOADS[name]
        self.entries = expected[name]
        self.last_stdout: dict[str, str] = {}
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.heavy = 0

    def __call__(self, key: str, item, raw) -> None:
        self.attempted += 1
        try:
            ok, out, counts = self.wl.check(item, raw)
        except Exception:  # a malformed result is a failed operation
            ok, out, counts = False, None, {}
        entry = self.entries.get(key, {})
        ok = ok and out is not None and W.digest(out) == entry.get("digest")
        ok = ok and all(entry.get(c) == v for c, v in counts.items())
        if isinstance(item, list) and "--workers" in item:
            # --workers 2 must print the --workers 1 report byte for byte
            previous = self.last_stdout.pop(key, None)
            if previous is None:
                self.last_stdout[key] = raw[1]
            else:
                ok = ok and previous == raw[1]
        if entry and self.wl.heavy(entry):
            self.heavy += 1
        for c, v in counts.items():
            self.counts[c] = self.counts.get(c, 0) + v
        if not ok:
            self.failed += 1


def cpu_clock() -> float:
    """CPU seconds of this process and of its children that have ended.

    Not a metric: the context line reports the CPU seconds of the timed
    operations next to their elapsed seconds, as a noise indicator."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def timed(run, prog, item):
    """Run one operation from a clean collector state; return its result,
    elapsed seconds and CPU seconds.  Collecting first makes the
    collections inside the operation fall at the same points on every
    run."""
    gc.collect()
    cpu = cpu_clock()
    start = time.perf_counter()
    raw = run(prog, item)
    return raw, time.perf_counter() - start, cpu_clock() - cpu


def reference_loop() -> float:
    """Elapsed seconds of a fixed loop of tuple building and dict updates,
    the kind of work the package's own loops do, with the collector off so
    that what the program left behind does not change its time."""
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict = {}
        t = (0, 0, 0)
        for i in range(REFERENCE_N):
            t = (t[1], t[2], (t[0] + 7 * i) % 1009)
            seen[t] = seen.get(t, 0) + 1
        return time.perf_counter() - start
    finally:
        gc.enable()


class Timings:
    """Times of the spans of one run: elapsed, scaled and CPU seconds.

    The shared machine this benchmark was written on changed speed by up
    to 2x within minutes, for its CPU time as much as for its elapsed
    time.  So the reference loop runs before the first span and after
    each one, and a span's elapsed time is scaled by ``REFERENCE_S`` over
    the mean of the loop times on either side of it: the time the span
    would have taken on a machine where the loop takes ``REFERENCE_S``.
    A change to the program leaves the loop as it is, so it changes the
    scaled times as much as the elapsed ones."""

    def __init__(self):
        self.refs = [reference_loop()]
        self.elapsed: list[float] = []
        self.scaled: list[float] = []
        self.cpu = 0.0

    def add(self, elapsed: float, cpu: float = 0.0) -> None:
        self.refs.append(reference_loop())
        self.elapsed.append(elapsed)
        self.scaled.append(elapsed * REFERENCE_S / statistics.fmean(self.refs[-2:]))
        self.cpu += cpu


def run_pass(loaded: Loaded, wl: Workload, items, checker: Checker, times: Timings) -> None:
    """Run, time and check ``items`` one after another."""
    for key, data in items:
        prog = item = raw = None  # nothing of the last import outlives a re-import
        prog = loaded.visit(key)
        item = wl.build(prog, data)
        start, cpu = time.perf_counter(), cpu_clock()
        try:
            raw, seconds, cpu_s = timed(wl.run, prog, item)
        except Exception:  # an operation that raises counts as failed
            raw, seconds, cpu_s = None, time.perf_counter() - start, cpu_clock() - cpu
        times.add(seconds, cpu_s)
        if raw is None:
            checker.attempted += 1
            checker.failed += 1
        else:
            checker(key, item, raw)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond
    it, and that percentile."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def freeze() -> None:
    """Move what set-up left alive out of the collector's way, so that
    collections during the operations cost the same on every run."""
    gc.collect()
    gc.freeze()


def measure(name: str, seed: int, seconds: float, expected: dict) -> tuple[dict, Checker, dict]:
    wl = WORKLOADS[name]
    setups = Timings()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prog, gen, pass_ms = setup(name, seed, expected)
        setups.add(time.perf_counter() - start)
    # the pass count follows from the recorded costs, not from the clock,
    # so every run of a workload measures the same amount of work
    n_passes = max(1, round(1e3 * seconds / pass_ms))
    checker = Checker(name, expected)
    freeze()
    loaded = Loaded(prog)
    times = Timings()
    deadline = time.monotonic() + DEADLINE_FACTOR * seconds
    done = 0
    while done < n_passes:
        start = time.monotonic()
        run_pass(loaded, wl, next(gen), checker, times)
        done += 1
        # on a much slower machine, stop before a pass that would end late
        if 2 * time.monotonic() - start > deadline:
            break
    lat = times.scaled
    value, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups.scaled), "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "item_tail_ms": (1e3 * value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # the same figures in unscaled elapsed time, and the CPU time
    info = {
        "passes": done, "samples": len(lat), "tail_percentile": round(pct, 3),
        "reloads": loaded.reloads, "calibration_s": statistics.median(times.refs),
        "elapsed_setup_s": statistics.median(setups.elapsed),
        "elapsed_items_per_s": len(lat) / sum(times.elapsed),
        "elapsed_item_p50_ms": 1e3 * statistics.median(times.elapsed),
        "elapsed_item_tail_ms": 1e3 * tail(times.elapsed)[0],
        "op_wall_s": sum(times.elapsed), "op_cpu_s": times.cpu,
    }
    return metrics, checker, info


def measure_traced(name: str, seed: int, expected: dict) -> tuple[dict, Checker, dict]:
    """A fixed number of passes untraced, then the same passes traced,
    each on a fresh import of the program."""
    wl = WORKLOADS[name]
    prog, gen, _pass_ms = setup(name, seed, expected)
    items = [item for _ in range(wl.trace_passes) for item in next(gen)]
    freeze()
    plain, plain_times = Checker(name, expected), Timings()
    run_pass(Loaded(prog), wl, items, plain, plain_times)
    traced, traced_times = Checker(name, expected), Timings()
    with tracing.Tracer() as tracer:
        gc.unfreeze()
        prog = W.load_program(SRC)
        freeze()
        run_pass(Loaded(prog, tracer), wl, items, traced, traced_times)
    spans_path = os.path.join(WORK_DIR, f"spans-{name}.tsv")
    tracer.write(spans_path)
    layers = tracer.summary()
    layers["cli.report_bytes"] = (traced.counts.get("report_bytes", 0), "bytes")
    overhead = sum(traced_times.scaled) / sum(plain_times.scaled) - 1
    layers["trace_overhead_frac"] = (overhead, "ratio")
    # both passes are checked, so a traced pass that changes an output fails
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.heavy += plain.heavy
    info = {
        "spans": len(tracer), "spans_file": os.path.relpath(spans_path, ROOT),
        "calibration_s": statistics.median(plain_times.refs + traced_times.refs),
    }
    return layers, traced, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arthurcomb corpus-sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(SRC):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()
    if args.workload not in expected:
        print(f"error: nothing recorded for {args.workload} in {EXPECTED_DIR}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.trace:
        metrics, checker, info = measure_traced(args.workload, args.seed, expected)
    else:
        metrics, checker, info = measure(args.workload, args.seed, args.seconds, expected)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "failed_frac": checker.failed / checker.attempted,
        "heavy_frac": checker.heavy / checker.attempted,
        "heavy_rule": WORKLOADS[args.workload].heavy_rule,
        **info,
    }
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
