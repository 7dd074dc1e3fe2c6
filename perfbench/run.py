r"""Benchmark of the `abd` command, end to end (--trace 0) or per layer
(--trace 1), on one seeded workload.

    python3 perfbench/run.py --workload route_mix --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout: it imports `cloneabd` from the
checkout's `src/` and nothing else. An operation is one `abd` subcommand
with `--json`, run in-process through `cloneabd.cli.main` on an input file
written before timing begins. Rounds of every operation repeat until
`--seconds` have passed. Every answer is then judged by `checker.py`, which
shares no code with the program. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

Times are reported at a reference speed. The speed of a shared machine
drifts by up to twofold over minutes, for the program and for any other
Python code alike, so each operation's time is divided by the time of a
fixed piece of pure-Python work run next to it and multiplied by that
work's nominal time, REFERENCE_S; an operation's figure is the median over
rounds. The wall-clock figures are printed on the line before the JSON.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# one cold set-up: a fresh interpreter imports the program from src/ and
# answers one `abd identify`, then prints the monotonic clock (shared by all
# processes), so the set-up is timed from the parent's spawn to the answer
SETUP_CODE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import cloneabd.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cloneabd.cli.main(["identify", sys.argv[2], "--json"])
print(time.monotonic(), code, out.getvalue().replace(chr(10), " "))
"""
SETUP_BASE = "fn or_and 3 00011111\n"
SETUP_CHILDREN = 5  # cold set-ups per run; their median is reported
SETUP_REFERENCES = 10  # reference timings before each child and after the last

TAIL_BEYOND = 10  # operations beyond the tail percentile
REFERENCE_S = 0.0003  # nominal time of the reference work


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int):
        self.key = key
        self.kids: list = []


def _walk(node: _Node, depth: int) -> int:
    if depth == 0:
        return node.key
    return sum(_walk(kid, depth - 1) for kid in node.kids)


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python work: the machine's current
    speed. The work is of the kinds the program does (dict counting, sorting
    with a key, small objects built and walked recursively, clause lists and
    sets); it followed the program's speed more closely than an arithmetic
    loop did, whose scaled times drifted 2-3 times as much."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(600):
        key = i * 7919 % 211
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    root = _Node(0)
    for i in range(6):
        child = _Node(i)
        root.kids.append(child)
        for j in range(6):
            grandchild = _Node(j)
            grandchild.kids = [_Node(x) for x in range(3)]
            child.kids.append(grandchild)
    clauses = [[(i * 3 + j) % 40 - 20 for j in range(3)] for i in range(60)]
    assign: dict = {}
    for clause in clauses:
        if not any(assign.get(abs(l)) == (l > 0) for l in clause if l):
            for l in clause:
                if l and abs(l) not in assign:
                    assign[abs(l)] = l > 0
                    break
    {frozenset(c) for c in clauses}
    _walk(root, 3)
    return time.perf_counter() - start


def load_program():
    """The program's CLI module, imported from the checkout's src/."""
    if not (SRC / "cloneabd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'cloneabd'}")
    sys.path.insert(0, str(SRC))
    import cloneabd.cli
    if not Path(cloneabd.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: cloneabd imported from {cloneabd.__file__}, "
                 f"not from {SRC}")
    return cloneabd.cli


def time_setup(work: Path) -> float:
    """Seconds, at the reference speed, from starting a fresh interpreter
    until it has imported the program and answered one `abd identify`: the
    median of SETUP_CHILDREN cold set-ups, each in its own process."""
    base = work / "setup.fns"
    base.write_text(SETUP_BASE)
    times, refs = [], []
    for _ in range(SETUP_CHILDREN):
        refs += [reference_s() for _ in range(SETUP_REFERENCES)]
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               str(base)], capture_output=True, text=True,
                              timeout=120)
        end, code, answer = (done.stdout.split(" ", 2) + ["", ""])[:3]
        if done.returncode != 0 or code != "0" or '"clone"' not in answer:
            sys.exit(f"perfbench: set-up identify failed: "
                     f"{(done.stdout + done.stderr)[-300:]}")
        times.append(float(end) - start)
    refs += [reference_s() for _ in range(SETUP_REFERENCES)]
    return statistics.median(times) * REFERENCE_S / statistics.median(refs)


def run_op(cli, op):
    """(exit code, stdout, wall seconds, stderr) of one in-process `abd`
    call; an exception escaping `main` is exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, err.getvalue()


def digest(inputs, ops) -> str:
    h = hashlib.sha256()
    for name, text in inputs.files:
        h.update(f"{name}\0{text}\0".encode())
    for op in ops:
        h.update(("\0".join(op.argv)).replace(str(inputs.root), "")
                 .encode() + b"\n")
    return h.hexdigest()[:16]


def candidates_tried(stdout: str) -> int:
    try:
        return json.loads(stdout).get("candidatesTried", 0)
    except ValueError:
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_program()
    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, work: Path) -> int:
    setup_s = time_setup(work)
    rng = random.Random(f"{args.workload}:{args.seed}")
    inputs = workloads.Inputs(work)
    ops = workloads.WORKLOADS[args.workload](rng, inputs)
    print(f"inputs {args.workload} seed {args.seed}: {len(inputs.files)} "
          f"files, {len(ops)} operations, sha256 {digest(inputs, ops)}")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    first: list = [None] * len(ops)
    wall: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    failed = unstable = rounds = 0
    layer: dict = {}
    gc.collect()
    start = time.perf_counter()
    while True:
        solve_sat_calls = tried = 0
        ref = reference_s()
        for i, op in enumerate(ops):
            sat_before = tracer.counts["sat.sat_solve.calls"] if tracer else 0
            code, stdout, elapsed, stderr = run_op(cli, op)
            ref_before, ref = ref, reference_s()
            wall[i].append(elapsed)
            scaled[i].append(elapsed * REFERENCE_S / min(ref_before, ref))
            if code not in (0, 1):
                failed += 1
                print(f"failed: {op.label}: exit {code}: {stderr[-300:]}",
                      file=sys.stderr)
            if first[i] is None:
                first[i] = (code, stdout)
            elif first[i] != (code, stdout):
                unstable += 1
                print(f"unstable: {op.label} answered differently in round "
                      f"{rounds + 1}", file=sys.stderr)
            if op.argv[0] == "solve":
                tried += candidates_tried(stdout)
                if tracer:
                    solve_sat_calls += (tracer.counts["sat.sat_solve.calls"]
                                        - sat_before)
        rounds += 1
        done = time.perf_counter() - start >= args.seconds
        if tracer:
            # the last round's figures are reported and its spans kept
            layer = tracer.round_metrics()
            layer["solvers.candidates_tried"] = tried
            layer["solvers.sat_calls_per_candidate"] = (
                solve_sat_calls / tried if tried else 0)
            if not done:
                tracer.reset()
        if done:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = 0
    cache: dict = {}
    for op, (code, stdout) in zip(ops, first):
        if code not in (0, 1):
            continue
        problem = checker.check(op.expect, code, stdout, cache)
        if problem:
            wrong += 1
            print(f"wrong: {op.label}: {problem}", file=sys.stderr)
    if args.workload == "count_enum":
        wrong += check_count_enum_totals(ops, first)

    times = sorted(statistics.median(samples) for samples in scaled)
    walls = sorted(statistics.median(samples) for samples in wall)
    print(f"rounds {rounds}, {len(ops)} operations per round; wall clock: "
          f"{len(ops) / sum(walls):.4g} op/s, "
          f"p50 {statistics.median(walls) * 1e3:.4g} ms, "
          f"tail (p{100 * (len(ops) - TAIL_BEYOND) // len(ops)}) "
          f"{walls[-TAIL_BEYOND - 1] * 1e3:.4g} ms")
    if tracer:
        layer["trace.ops_per_s"] = len(ops) / sum(times)
        tracer.dump(WORK / f"trace-{args.workload}-s{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "round": rounds, "ops": [op.label for op in ops]})
        metrics = reported(layer, SPEC["per_layer"])
    else:
        metrics = reported({
            "ops_per_s": len(ops) / sum(times),
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_tail": times[-TAIL_BEYOND - 1] * 1e3,
            "peak_rss_mib": peak_rss_mib,
            "setup_s": setup_s,
        }, SPEC["end_to_end"])
    print(json.dumps({"correct": wrong == 0 and unstable == 0,
                      "attempted": rounds * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def check_count_enum_totals(ops, answers) -> int:
    """1 when the summed `abd count` answers differ from the number of
    `abd enumerate` outputs over the same instances, else 0."""
    counted = listed = 0
    paths = {op.argv[1] for op in ops if op.argv[0] == "enumerate"}
    for op, (code, stdout) in zip(ops, answers):
        if op.argv[1] not in paths or code != 0:
            continue
        out = json.loads(stdout)
        if op.argv[0] == "count":
            counted += out["count"]
        else:
            listed += len(out["explanations"])
    if counted != listed:
        print(f"wrong: counts sum to {counted}, enumerations list {listed}",
              file=sys.stderr)
        return 1
    return 0


def reported(values: dict, listed: list) -> dict:
    """The metrics BENCHMARK.json lists, with their units; the run must have
    measured exactly those."""
    names = [m["name"] for m in listed]
    if set(values) != set(names):
        raise RuntimeError(f"measured {sorted(set(values) - set(names))} "
                           f"not listed, listed "
                           f"{sorted(set(names) - set(values))} not measured")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


if __name__ == "__main__":
    sys.exit(main())
