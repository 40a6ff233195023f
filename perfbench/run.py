"""Closed-loop benchmark of the twobridge CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root or anywhere else: the package is imported
from the `src/` directory next to this one, and nothing is installed.
One client in this process calls `twobridge.cli.run(argv)` with each
generated argv in turn; the next call starts when the previous one has
returned.  Each reply is checked against `oracle` outside the timed
region.  The last line of stdout is the result object; the line before
it records the input sizes and the environment.

Times are CPU seconds (see cpu_clock) scaled to a reference speed (see
speed.py); raw CPU and wall times go on the info line.
With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs half the time untraced and half with spans around the public
functions of every layer (see spans.py), reports the per-layer metrics,
and writes the spans to .perfbench/spans-<workload>.tsv.  --smoke runs
the checker self-test and every workload at a tiny size.  See README.md
for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 21
SETUP_CODE = "import twobridge.cli as cli; cli._build_parser()"


class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    if not (SRC / "twobridge" / "cli.py").is_file():
        raise Failure(f"no twobridge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twobridge.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise Failure(f"twobridge was imported from {cli.__file__}, not from {SRC}")
    return cli


def cpu_clock() -> float:
    """CPU seconds used so far by this process (all its threads) and by
    its children that have ended.

    The program is serial, so on a core of its own this advances with
    the wall clock.  Unlike the wall clock it stops while the hypervisor
    runs other guests on the core (steal time).  Slow-downs from sharing
    the caches and memory with other guests still show in it; speed.py
    takes those out.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure_setup(runs: int) -> tuple[list[float], list[float], list[float]]:
    """Seconds for a fresh interpreter to import twobridge.cli and build
    its parser, once per run: (CPU time at the reference speed, CPU time,
    wall time).  The speed kernel is sampled before and after each
    interpreter, which inherits this process's CPU."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, cpu, wall = [], [], []
    before = speed.sample()
    for _ in range(runs):
        start, start_cpu = time.perf_counter(), cpu_clock()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        cpu.append(cpu_clock() - start_cpu)
        wall.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise Failure(f"set-up interpreter failed: {proc.stderr.strip()}")
        after = speed.sample()
        scaled.append(cpu[-1] * 2 * speed.NOMINAL_S / (before + after))
        before = after
    return scaled, cpu, wall


def pin_to_one_cpu() -> tuple[int, int | None]:
    """Pin this process, and so the census pool threads and the set-up
    interpreters, to the highest-numbered CPU it may use.  Returns (CPUs
    it could use before, the CPU pinned to or None).

    The pool's threads take turns on the GIL.  Spread over two CPUs, each
    hand-over crosses cores and its cost varies by tens of percent from
    run to run; on one CPU it is steady.  The program has no parallel
    work to lose: only one thread runs Python code at a time.
    """
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1, None
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def environment(nproc: int, pinned: int | None) -> dict:
    pool_width = os.cpu_count() or 1  # census(threads=None) uses os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "census_pool_width": pool_width,
        "pool_exceeds_nproc": pool_width > nproc,
        "pinned_cpu": pinned,
        "machine": platform.machine(),
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories); 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Loop:
    """Closed loop over the workload's deck: one call at a time."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.checker = checks.Checker(workload)
        self.position = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def warm_up(self) -> None:
        """One untimed, unchecked call, so lazy set-up inside the process is done."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.cli.run(list(self.workload.warmup))

    def call(self, probe: speed.Probe, tracer=None) -> tuple[float, float, tuple[int, int], int, int]:
        """One call; returns (CPU seconds, wall seconds, (index of the first
        speed sample taken during it, index of the first taken after it),
        reports completed, stdout bytes).  The CPU seconds leave out the
        speed samples taken during the call."""
        call = self.workload.deck[self.position % len(self.workload.deck)]
        self.position += 1
        if tracer is not None:
            tracer.op_id = self.position
        out, err = io.StringIO(), io.StringIO()
        with probe.held():
            first, spent = len(probe.samples), probe.spent
            start, start_cpu = time.perf_counter(), cpu_clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(list(call.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        with probe.held():
            cpu = cpu_clock() - start_cpu - (probe.spent - spent)
            seconds = time.perf_counter() - start
            after = len(probe.samples)
        text = out.getvalue()
        self.attempted += 1
        if code == 0:
            problems = self.checker.check(call, text)
        else:
            problems = [f"exit {code}: {err.getvalue().strip()}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(call.argv)}: {'; '.join(problems[:3])}")
            return cpu, seconds, (first, after), 0, len(text)
        reports = text.count("\n") if self.workload.census_n else 1
        return cpu, seconds, (first, after), reports, len(text)

    def run(self, seconds: float, tracer=None) -> dict:
        """Calls until `seconds` of wall time have been spent in them.

        A speed.Probe runs throughout.  Each call's CPU time is scaled by
        NOMINAL_S over the mean of the samples taken during it and the
        last one before and first one after it, so `latencies` and `busy`
        are CPU seconds at the reference speed.
        """
        cpus, walls, marks, reports, out_bytes = [], [], [], 0, 0
        with speed.Probe() as probe:
            while sum(walls) < seconds:
                cpu, wall, mark, done, size = self.call(probe, tracer)
                cpus.append(cpu)
                walls.append(wall)
                marks.append(mark)
                reports += done
                out_bytes += size
        if multiprocessing.active_children():
            raise Failure("child processes outlive the calls; their CPU time would not be measured")
        scales = [speed.NOMINAL_S / statistics.mean(probe.samples[first - 1:after + 1])
                  for first, after in marks]
        latencies = [cpu * scale for cpu, scale in zip(cpus, scales)]
        return {"latencies": latencies, "cpus": cpus, "walls": walls, "scales": scales,
                "reports": reports, "stdout_bytes": out_bytes, "busy": sum(latencies)}


def percentile_ms(latencies: list[float], tenth: int) -> float:
    """The tenth-th decile, interpolated between samples (never beyond them)."""
    if len(latencies) == 1:
        return latencies[0] * 1000
    return statistics.quantiles(latencies, n=10, method="inclusive")[tenth - 1] * 1000


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(window: dict, setup_s: float) -> dict:
    lat = window["latencies"]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(window["reports"] / window["busy"], "1/s"),
        "latency_ms_p50": metric(statistics.median(lat) * 1000, "ms"),
        "latency_ms_p90": metric(percentile_ms(lat, 9), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(summary: dict, window: dict, untraced: dict, spans_list: list) -> tuple[dict, dict]:
    calls = len(window["latencies"])

    def layer(name):
        return summary.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "extras": [], "parents": {}})

    def per_call(value, unit="count/call"):
        return metric(value / calls, unit)

    def ms(name, key="ns"):
        return per_call(layer(name)[key] / 1e6, "ms/call")

    slopes = layer("slopes.enumerate_bscf")
    records = sum(r for r, _ in slopes["extras"])
    distinct = sum(d for _, d in slopes["extras"])
    census = layer("obstruction.census")
    candidates = layer("rational.crossing_number")["parents"].get("obstruction.census", 0)
    knots = sum(census["extras"])
    traced_rate = window["reports"] / window["busy"]
    untraced_rate = untraced["reports"] / untraced["busy"]
    metrics = {
        "slopes.enumerate_bscf.calls": per_call(slopes["calls"]),
        "slopes.enumerate_bscf.ms": ms("slopes.enumerate_bscf"),
        "slopes.records": per_call(records),
        "slopes.useful_ratio": metric(distinct / records if records else 0.0, "ratio"),
        "alexander.conway_even_form.ms": ms("alexander.conway_even_form"),
        "alexander.seifert_from_conway.calls": per_call(layer("alexander.seifert_from_conway")["calls"]),
        "alexander.seifert_from_conway.ms": ms("alexander.seifert_from_conway"),
        "alexander.alexander_poly.ms": ms("alexander.alexander_poly"),
        "alexander.signature.ms": ms("alexander.signature"),
        "alexander.genus_total": per_call(sum(layer("alexander.seifert_from_conway")["extras"])),
        "casson.root_of_unity_check.calls": per_call(layer("casson.root_of_unity_check")["calls"]),
        "casson.root_of_unity_check.ms": ms("casson.root_of_unity_check"),
        "casson.root_of_unity_check.tail_share": metric(_tail_share(spans_list, "casson.root_of_unity_check"), "ratio"),
        "casson.p_prime_total": per_call(sum(layer("casson.root_of_unity_check")["extras"])),
        "casson.total_seminorm.ms": ms("casson.total_seminorm"),
        "casson.cosmetic_difference.ms": ms("casson.cosmetic_difference"),
        "casson.lambda_surgery.self_ms": ms("casson.lambda_surgery", "self_ns"),
        "obstruction.census.self_ms": ms("obstruction.census", "self_ns"),
        "obstruction.census.candidates": per_call(candidates),
        "obstruction.census.useful_ratio": metric(knots / candidates if candidates else 0.0, "ratio"),
        "obstruction.obstruct.calls": per_call(layer("obstruction.obstruct")["calls"]),
        "obstruction.obstruct.self_ms": ms("obstruction.obstruct", "self_ns"),
        "cli.run.calls": metric(calls, "count"),
        "cli.run.ms": ms("cli.run"),
        "cli.run.self_ms": ms("cli.run", "self_ns"),
        "cli.stdout_bytes": per_call(window["stdout_bytes"], "B/call"),
        "rational.preferred_form.calls": per_call(layer("rational.preferred_form")["calls"]),
        "rational.preferred_form.ms": ms("rational.preferred_form"),
        "rational.crossing_number.calls": per_call(layer("rational.crossing_number")["calls"]),
        "rational.crossing_number.ms": ms("rational.crossing_number"),
        "trace.overhead_ratio": metric(traced_rate / untraced_rate, "ratio"),
    }
    run_ns = layer("cli.run")["ns"] or 1
    shares = {name: round(data["ns"] / run_ns, 4) for name, data in sorted(summary.items())}
    self_shares = {name: round(data["self_ns"] / run_ns, 4) for name, data in sorted(summary.items())}
    return metrics, {"time_share": shares, "self_time_share": self_shares}


def _tail_share(spans_list: list, name: str) -> float:
    """Share of CLI time spent in `name` over the slowest tenth of traced calls."""
    run_ns, layer_ns = {}, {}
    for _id, span_name, start, end, _parent, op, _extra in spans_list:
        if span_name == "cli.run":
            run_ns[op] = end - start
        elif span_name == name:
            layer_ns[op] = layer_ns.get(op, 0) + end - start
    slowest = sorted(run_ns, key=run_ns.get)[-max(1, len(run_ns) // 10):] if run_ns else []
    total = sum(run_ns[op] for op in slowest)
    return sum(layer_ns.get(op, 0) for op in slowest) / total if total else 0.0


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, env: dict,
                 smoke: bool = False, setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    setup, setup_cpu, setup_wall = measure_setup(setup_runs)
    workload = workloads.build(name, seed, smoke)
    loop = Loop(cli, workload)
    loop.warm_up()
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "sizes": workload.sizes, "env": env,
            "setup_s_runs": [round(t, 6) for t in setup],
            "setup_cpu_s_median": round(statistics.median(setup_cpu), 6),
            "setup_wall_s_median": round(statistics.median(setup_wall), 6)}
    if not trace:
        window = loop.run(seconds)
        metrics = end_to_end(window, statistics.median(setup))
        info["latency_samples"] = len(window["latencies"])
        info["cpu_ms_p50"] = round(statistics.median(window["cpus"]) * 1000, 4)
        info["wall_ms_p50"] = round(statistics.median(window["walls"]) * 1000, 4)
        info["wall_over_cpu"] = round(sum(window["walls"]) / sum(window["cpus"]), 4)
        info["speed_scale"] = [round(f(window["scales"]), 4) for f in (min, statistics.median, max)]
        info["beyond_p90"] = sum(1 for t in window["latencies"] if t * 1000 > metrics["latency_ms_p90"]["value"])
    else:
        untraced = loop.run(seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            window = loop.run(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        summary = spans.summarize(tracer.spans)
        metrics, info["shares"] = per_layer(summary, window, untraced, tracer.spans)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}.tsv")
        info["spans"] = len(tracer.spans)
    info["calls"] = loop.attempted
    info["failed_ratio"] = loop.failed / loop.attempted
    info["problems"] = loop.problems
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    return info, result


def self_test(cli) -> list[str]:
    """Feed every checker one genuine and several tampered replies; return
    the tampered replies that were not flagged (and genuine ones that were)."""
    misses = []

    def tampered(text, edit):
        doc = json.loads(text)
        edit(doc["payload"])
        return json.dumps(doc)

    def flip_verdict(report):
        report["verdict"] = next(v for v in oracle.VERDICTS if v != report["verdict"])

    def shift_sigma(payload):
        payload["signature"] += 2

    def flip_hypotheses(payload):
        payload["hypotheses_ok"] = not payload["hypotheses_ok"]

    def shift_lambda(payload):
        value = oracle.parse_rational(payload["lambda"]) + 1
        payload["lambda"] = value.numerator if value.denominator == 1 else str(value)

    for name in workloads.BUILDERS:
        workload = workloads.build(name, 0, smoke=True)
        checker = checks.Checker(workload)
        call = workload.deck[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(list(call.argv))
        text = out.getvalue()
        problems = checker.check(call, text) if code == 0 else [f"exit {code}"]
        if problems:
            misses.append(f"{name}: genuine reply flagged: {problems[:2]}")
            continue
        if name == "census":
            lines = text.splitlines()
            variants = {
                "census count off by 1": "\n".join(lines[:-1]) + "\n",
                "flipped verdict": "\n".join([tampered(lines[0], flip_verdict)] + lines[1:]) + "\n",
            }
        elif name == "many_expansions":
            variants = {"flipped verdict": tampered(text, flip_verdict)}
        elif name == "high_genus":
            variants = {"sigma off by 2": tampered(text, shift_sigma)}
        else:
            variants = {"flipped hypotheses_ok": tampered(text, flip_hypotheses),
                        "lambda off by 1": tampered(text, shift_lambda)}
        for label, text in variants.items():
            if not checker.check(call, text):
                misses.append(f"{name}: {label} not flagged")
    return misses


def smoke(cli, env: dict) -> int:
    misses = self_test(cli)
    print(json.dumps({"self_test": "ok" if not misses else misses}))
    ok = not misses
    for name in workloads.BUILDERS:
        for trace in (False, True):
            info, result = run_workload(cli, name, 0, 0.5, trace, env, smoke=True, setup_runs=1)
            ok = ok and result["correct"]
            print(json.dumps({"smoke": name, "trace": int(trace), "correct": result["correct"],
                              "attempted": result["attempted"], "problems": info["problems"],
                              "sizes": info["sizes"]}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="checker self-test and tiny runs of every workload")
    args = parser.parse_args(argv)
    try:
        cli = load_cli()
        env = environment(*pin_to_one_cpu())
        if args.smoke:
            return smoke(cli, env)
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        info, result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), env)
    except (Failure, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
