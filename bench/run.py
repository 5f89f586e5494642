#!/usr/bin/env python3
"""Benchmark of sloccrank: one workload per process, closed loop, checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify_dense --seed 1 --seconds 30 --trace 0

The workload's inputs are made from ``--seed``; one round runs every input
once, in order, each item starting when the previous one ends. Rounds repeat
until the next one would end after ``--seconds``. Outputs of the first round
are checked against values the benchmark computes apart from the program,
and every later round must reproduce them.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead (see README.md). A result file is also written under
``bench/out/``. The program is imported from ``src/`` of the checkout; the
run exits with code 1 and prints no result when that is missing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# every workload is single-threaded, numpy's checks included
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5  # this process and four fresh ones


def _import_program():
    if not (SRC / "sloccrank" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'sloccrank'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sloccrank

    if pathlib.Path(sloccrank.__file__).resolve().parent != SRC / "sloccrank":
        sys.exit(f"error: imported sloccrank from {sloccrank.__file__}, not from {SRC}")


def calibration_ms() -> float:
    """Best of three runs of a fixed pure-Python loop that calls no sloccrank code.

    A diagnostic only: it tells a slow machine from a slow program.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def set_up(name: str, seed: int):
    """Imports, input generation and one warm-up item; returns (workload, seconds)."""
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.run(workload.warmup_item)
    gc.collect()
    gc.freeze()  # the inputs stay alive all run; keep them out of collections
    return workload, time.perf_counter() - T0


def setup_probe_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.splitlines()[-1])


class Rounds:
    """Rounds of a workload: per-item times and the state of its output checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._digests = None

    def run(self, call=None) -> list:
        """Run one round; ``call(run, item)`` wraps each item. Returns item seconds."""
        wl = self.workload
        outputs, seconds = [], []
        for k, item in enumerate(wl.items):
            t = time.perf_counter()
            try:
                out = call(wl.run, item) if call else wl.run(item)
            except Exception:
                out = None
                self.failed += 1
                print(f"item {k} failed:", file=sys.stderr)
                traceback.print_exc()
            seconds.append(time.perf_counter() - t)
            outputs.append(out)
        self.attempted += len(wl.items)
        self._check(outputs)
        return seconds

    def _check(self, outputs) -> None:
        """Check the first round's outputs; later rounds must repeat them."""
        digests = [None if out is None else self.workload.digest(out) for out in outputs]
        if self._digests is None:
            self._digests = digests
            self.errors += self.workload.check(outputs)
        elif digests != self._digests:
            self.errors.append("a later round's outputs differ from the first round's")


# How a workload takes each item's time over the rounds of a run (README.md):
# the best round, when a run holds dozens of rounds of millisecond items, or
# the mean, when it holds a handful of rounds of items that take seconds.
ITEM_TIME = {"best": min, "mean": statistics.fmean}


def item_s(rounds: list, workload) -> list:
    """Each item's time over the rounds, taken as the workload says."""
    stat = ITEM_TIME[workload.ITEM_TIME]
    return [stat(ts) for ts in zip(*rounds)]


def items_per_s(rounds: list, workload) -> float:
    times = item_s(rounds, workload)
    return len(times) / sum(times)


def end_to_end(name: str, seed: int, seconds: float, workload, setup_s: float):
    rounds = Rounds(workload)
    timings = []
    deadline = time.perf_counter() + seconds
    while not timings or time.perf_counter() + max(map(sum, timings)) <= deadline:
        timings.append(rounds.run())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds.errors += workload.check_once()
    setups = [setup_s] + [setup_probe_seconds(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "items_per_s": (items_per_s(timings, workload), "1/s"),
        "item_p50_ms": (statistics.median(item_s(timings, workload)) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    detail = {"rounds": len(timings), "round_s": [sum(t) for t in timings],
              "setup_samples_s": setups}
    return rounds, metrics, detail


def traced(name: str, seed: int, seconds: float, workload):
    """Alternate untraced and traced rounds, then one counting pass."""
    from tracer import CountingPass, Tracer, layer_metrics

    rounds = Rounds(workload)
    plain, traced_rounds, self_ns, counts = [], [], [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() + max(map(sum, plain + traced_rounds)) * 2 <= deadline:
        plain.append(rounds.run())
        tracer.install()
        try:
            traced_rounds.append(rounds.run(tracer.item))
        finally:
            tracer.uninstall()
        if not self_ns:
            _write_spans(name, seed, tracer.spans)
        self_ns.append(tracer.self_ns())
        counts.append({layer: dict(c) for layer, c in tracer.counts.items()})
        tracer.reset()
    if any(c != counts[0] for c in counts):
        rounds.errors.append("per-layer counts differ between traced rounds")
    counting = CountingPass()
    counting.install()
    try:
        rounds.run()
    finally:
        counting.uninstall()
    rounds.errors += workload.check_once()

    layers = {key for per_round in self_ns for key in per_round}
    self_ms = {key: statistics.median(r.get(key, 0) for r in self_ns) / 1e6 for key in layers}
    values = layer_metrics(self_ms, counts[0], counting)
    traced_rate, plain_rate = items_per_s(traced_rounds, workload), items_per_s(plain, workload)
    values["trace.items_per_s"] = traced_rate
    values["trace.untraced_items_per_s"] = plain_rate
    values["trace.overhead_pct"] = (plain_rate / traced_rate - 1) * 100
    values["trace.round_ms"] = statistics.median(map(sum, traced_rounds)) * 1e3
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    metrics = {key: (values[key], units[key]) for key in units}
    detail = {"rounds": len(traced_rounds), "plain_round_s": [sum(t) for t in plain],
              "traced_round_s": [sum(t) for t in traced_rounds]}
    return rounds, metrics, detail


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _write_spans(name: str, seed: int, spans) -> None:
    """Spans of the first traced round, one JSON array per line."""
    try:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{name}-s{seed}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    except OSError as exc:
        print(f"warning: spans not written: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify_dense", "dicke_scan", "identity_trials"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    calib_before = calibration_ms()
    if args.trace:
        rounds, metrics, detail = traced(args.workload, args.seed, args.seconds, workload)
    else:
        rounds, metrics, detail = end_to_end(args.workload, args.seed, args.seconds, workload, setup_s)
    calib_after = calibration_ms()
    print(f"calibration loop: {calib_before:.1f} ms before, {calib_after:.1f} ms after; "
          f"{detail['rounds']} rounds", file=sys.stderr)
    for error in rounds.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)

    result = {
        "correct": not rounds.errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    try:
        OUT_DIR.mkdir(exist_ok=True)
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      calibration_ms=[calib_before, calib_after], errors=rounds.errors, **detail)
        (OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
    except OSError as exc:
        print(f"warning: result file not written: {exc}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
