"""Benchmark of poscones: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload diag-kernel --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the library is imported from src/.
Each question is asked only after the previous answer returned and was
checked.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run.  A copy, with the Python version, the core count
and the git commit, goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import known
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MODULES = (
    "errors", "field", "algebra", "forms", "morita", "orders", "signature",
    "cones", "sampling", "zoo", "serde", "cli",
)
SETUPS = 5  # set-ups per run; setup_s is their median
COLD_STARTS = 15  # fresh interpreters per run; cold_start_ms is their median
IMPORT_PROBES = 3  # -X importtime launches in a traced run
MIN_ANSWERS = 100  # so that the p90 has ten samples beyond it


def import_library() -> SimpleNamespace:
    """Import poscones afresh: drop every loaded poscones module first."""
    for name in [m for m in sys.modules if m == "poscones" or m.startswith("poscones.")]:
        del sys.modules[name]
    pc = SimpleNamespace(package=importlib.import_module("poscones"))
    for name in MODULES:
        setattr(pc, name, importlib.import_module(f"poscones.{name}"))
    pc.all_modules = [m for n, m in sys.modules.items() if n.startswith("poscones")]
    return pc


def set_up(workload: str, seed: int, workdir: str, tracer_cls=None):
    """Import, build the algebras and generate round 0.  Returns
    (seconds, library, workload, round-0 questions, tracer or None)."""
    start = perf_counter()
    pc = import_library()
    tr = None
    if tracer_cls is not None:
        tr = tracer_cls(pc)
        tr.install()
    try:
        cls = workloads.WORKLOADS[workload]
        wl = cls(pc, seed, workdir) if cls is workloads.ProblemFiles else cls(pc, seed)
        questions = wl.questions(0)
    finally:
        if tr is not None:
            tr.uninstall()
    return perf_counter() - start, pc, wl, questions, tr


class Tally:
    """Outcomes of the questions asked in a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.faults: dict[str, int] = {}
        self.first: dict[str, tuple] = {}

    def ask(self, q, tracer=None):
        self.attempted += 1
        try:
            if tracer is None:
                start = perf_counter()
                answer = q.ask()
                elapsed = perf_counter() - start
            else:
                answer, elapsed = tracer.question(q.ask)
        except Exception as exc:  # a crash of the program under test is a failed operation
            self.failed += 1
            key = f"{q.kind}: {type(exc).__name__}: {exc}"
            self.faults[key] = self.faults.get(key, 0) + 1
            return None
        self.latencies.append(elapsed)
        try:
            q.check(answer)
        except known.Mismatch as exc:
            self.wrong.append(f"{q.kind}: {exc}")
        self.first.setdefault(q.kind, (q, answer))
        return answer

    def self_check(self) -> list[str]:
        """A corrupted copy of the first answer of each kind must be rejected."""
        missed = []
        for kind, (q, answer) in self.first.items():
            if q.corrupt is None:
                continue
            try:
                q.check(q.corrupt(answer))
            except known.Mismatch:
                continue
            missed.append(kind)
        return missed


def cold_start(path: str, importtime: bool = False) -> tuple[float, tuple, str]:
    """Wall time of a fresh `python -m poscones.cli run` on the problem file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-m", "poscones.cli", "run", path, "--json"]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    return elapsed, (proc.returncode, proc.stdout, "" if importtime else proc.stderr), proc.stderr


def import_ms(stderr: str) -> float:
    """Cumulative import time of the top-level poscones imports, from -X importtime."""
    total = 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
        if m and m.group(2).startswith("poscones"):
            total += int(m.group(1))
    return total / 1000.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def quantile(values, q: int) -> float:
    """The q-th decile, as statistics.quantiles(values, n=10) gives it."""
    return statistics.quantiles(values, n=10)[q - 1]


def extra_setup(args, workdir: str) -> float:
    """Time one more set-up, then drop it: the loop keeps its own modules,
    which the library's function-level imports find in sys.modules."""
    saved = {n: m for n, m in sys.modules.items() if n.startswith("poscones")}
    try:
        return set_up(args.workload, args.seed, workdir)[0]
    finally:
        for n in [n for n in sys.modules if n.startswith("poscones")]:
            del sys.modules[n]
        sys.modules.update(saved)


def measure(args, workdir: str) -> tuple[dict, Tally, dict]:
    """The untraced run: end-to-end metrics."""
    elapsed, pc, wl, questions, _ = set_up(args.workload, args.seed, workdir)
    times = [elapsed]
    small, path = workloads.small_problem(pc, workdir)
    colds = []
    tally = Tally()

    def launch():
        elapsed, outcome, _ = cold_start(path)
        colds.append(elapsed)
        try:
            small.check(outcome)
        except known.Mismatch as exc:
            tally.wrong.append(f"cold start: {exc}")

    def setup_again(k):
        sub = os.path.join(workdir, f"setup-{k}")
        os.mkdir(sub)
        times.append(extra_setup(args, sub))

    # On a shared host the speed drifts over stretches of seconds, so the
    # cold starts and the further set-ups are spread over the loop, between
    # questions, rather than bunched before or after it.
    events = sorted(
        [(args.seconds * (k + 0.5) / COLD_STARTS, launch) for k in range(COLD_STARTS)]
        + [(args.seconds * k / SETUPS, lambda k=k: setup_again(k)) for k in range(1, SETUPS)],
        key=lambda e: e[0],
    )
    rounds = 0
    start = perf_counter()
    while True:
        for q in questions:
            tally.ask(q)
            while events and perf_counter() - start >= events[0][0]:
                events.pop(0)[1]()
        rounds += 1
        if perf_counter() - start >= args.seconds and len(tally.latencies) >= MIN_ANSWERS:
            break
        questions = wl.questions(rounds)
    loop_s = perf_counter() - start
    for _, event in events:
        event()

    lat = tally.latencies
    metrics = {
        "answers_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * quantile(lat, 5), "ms"),
        "latency_p90_ms": (1000 * quantile(lat, 9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cold_start_ms": (1000 * statistics.median(colds), "ms"),
        "setup_s": (statistics.median(times), "s"),
    }
    samples = {"rounds": rounds, "answers": len(lat), "loop_s": loop_s,
               "setup_s": times, "cold_start_s": colds, "latencies": lat}
    return metrics, tally, samples


def measure_traced(args, workdir: str) -> tuple[dict, Tally, dict]:
    """The traced run: round 0 plus the small problem file, asked untraced
    and then traced, in turn, until the time is up."""
    _, pc, wl, questions, tr = set_up(args.workload, args.seed, workdir, tracer.Tracer)
    sampling_s = tr.outer_s["sampling"]
    tr.reset()
    small, path = workloads.small_problem(pc, workdir)
    probe = workloads.Question("run", lambda: workloads.run_cli(pc, path), small.check)
    questions = questions + [probe]
    bytes_in = getattr(wl, "bytes_in", 0) + os.path.getsize(path)

    # the small file is kept out of attempted and failed, so that the failed
    # share is that of the workload's own rounds, as in the untraced run
    tally, probe_tally = Tally(), Tally()
    untraced = traced = 0.0
    passes = 0
    bytes_out = 0
    start = perf_counter()
    while True:
        for traced_pass in (False, True):
            tr.spans.clear()
            for q in questions:
                counted = probe_tally if q is probe else tally
                mark = len(counted.latencies)
                answer = counted.ask(q, tr if traced_pass else None)
                spent = sum(counted.latencies[mark:])
                if traced_pass:
                    traced += spent
                    if q.kind == "run" and answer is not None:
                        bytes_out += len(answer[1])
                else:
                    untraced += spent
        passes += 1
        if perf_counter() - start >= args.seconds:
            break
    tally.wrong += probe_tally.wrong
    tally.faults.update(probe_tally.faults)

    answers = (len(tally.latencies) + len(probe_tally.latencies)) // 2 // passes
    calls = tr.calls

    def per_pass(x):
        return x // passes if isinstance(x, int) and x % passes == 0 else x / passes

    imports = [import_ms(cold_start(path, importtime=True)[2]) for _ in range(IMPORT_PROBES)]
    metrics = {
        "field.ops": (per_pass(calls["field.ops"]), "count"),
        "field.sign_at.calls": (per_pass(calls["field.sign_at"]), "count"),
        "algebra.delem_ops": (per_pass(calls["algebra.delem_ops"]), "count"),
        "algebra.matmul.calls": (per_pass(calls["algebra.matmul"]), "count"),
        "algebra.matmul.self_s": (per_pass(tr.self_s["algebra.matmul"]), "s"),
        "algebra.inverse.calls": (per_pass(calls["algebra.inverse"]), "count"),
        "algebra.inverse.self_s": (per_pass(tr.self_s["algebra.inverse"]), "s"),
        "forms.diagonalize.calls": (per_pass(calls["forms.diagonalize"]), "count"),
        "forms.diagonalize.self_s": (per_pass(tr.self_s["forms.diagonalize"]), "s"),
        "forms.diagonalize.side_sum": (per_pass(tr.side_sum), "count"),
        "forms.diagonalize.per_answer": (calls["forms.diagonalize"] / passes / answers, "count"),
        "forms.verify.calls": (per_pass(calls["forms._verify_diagonalization"]), "count"),
        "forms.verify.s": (per_pass(tr.outer_s["forms._verify_diagonalization"]), "s"),
        "morita.full_reduction.calls": (per_pass(calls["morita.full_reduction"]), "count"),
        "morita.self_s": (per_pass(tr.layer_self("morita")), "s"),
        "orders.classify.calls": (per_pass(calls["orders.classify"]), "count"),
        "signature.sign_eta.calls": (per_pass(calls["signature.sign_eta"]), "count"),
        "signature.self_s": (per_pass(tr.layer_self("signature")), "s"),
        "signature.pre_sylvester.s": (per_pass(tr.outer_s["signature.pre_sylvester"]), "s"),
        "signature.trace_form.s": (per_pass(tr.outer_s["signature.trace_form"]), "s"),
        "cones.member.calls": (per_pass(calls["cones.member"]), "count"),
        "cones.self_s": (per_pass(tr.layer_self("cones")), "s"),
        "cones.positive_involution_at.s": (
            per_pass(tr.outer_s["cones.positive_involution_at"]), "s"),
        "serde.decode.s": (per_pass(tr.outer_s["serde.decode"]), "s"),
        "serde.encode.s": (per_pass(tr.outer_s["serde.encode"]), "s"),
        "serde.bytes_in": (bytes_in, "bytes"),
        "serde.bytes_out": (per_pass(bytes_out), "bytes"),
        "cli.self_s": (per_pass(tr.layer_self("cli")), "s"),
        "cli.import_ms": (statistics.median(imports), "ms"),
        "sampling.s": (sampling_s, "s"),
        "trace.untraced_s": (untraced / passes, "s"),
        "trace.traced_s": (traced / passes, "s"),
        "trace.overhead": (traced / untraced, "ratio"),
    }
    tr.write_spans(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")
    samples = {"passes": passes, "answers_per_pass": answers, "import_ms": imports}
    return metrics, tally, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "poscones" / "__init__.py").is_file():
        sys.stderr.write(f"error: no poscones package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = measure_traced if args.trace else measure
        metrics, tally, samples = run(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missed = tally.self_check()
    for kind in missed:
        tally.wrong.append(f"self-check: a corrupted {kind} answer passed the check")
    for line in tally.wrong[:20]:
        sys.stderr.write(f"wrong: {line}\n")
    for key, n in tally.faults.items():
        sys.stderr.write(f"failed x{n}: {key}\n")

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "samples": samples, "wrong": tally.wrong,
        "faults": tally.faults, "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
