#!/usr/bin/env python3
"""psynd benchmark: run one workload for a while, check it, print metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload orbit-fixed --seed 0 --seconds 36 --trace 0

Each operation of the workload (see ``workloads.py``) goes through the
public entry point ``psynd.cli.main``: config file in, report file out,
then ``verify`` on the report. Everything runs in this process on one
thread. The operations are repeated in passes until ``--seconds`` are
used up; times are medians over passes. Times are in reference seconds:
seconds scaled by the host's speed at the moment they were measured,
so that the drift of a shared host cancels (see ``calibrate.py``). The
raw seconds are in the run record.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced pass; untraced and traced passes then alternate, so
that the tracing overhead can be measured. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the run's inputs and exact work counts, and
the same record is written to ``.bench_work/`` with the trace spans.

Exit codes: 0 after a run (checked outputs or not), 2 when the package
sources or the workload cannot be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, build_ops  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
REFS_PATH = HERE / "refs.json"
HELD_OUT_SEED = 97
SETUP_PROBES_FIRST = 3  # then one more before every further pass
VERIFY_REPEATS = 5
VERIFY_REPEAT_BELOW_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "points_per_s": "1/s",
    "verify_s": "s",
    "peak_rss_mib": "MiB",
}


class SetupError(Exception):
    pass


def load_psynd():
    """Import ``psynd`` from this checkout's ``src/``, and from nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "psynd" / "cli.py").is_file():
        raise SetupError(f"no psynd sources at {src}")
    sys.path.insert(0, str(src))
    import psynd
    import psynd.cli

    if src not in Path(psynd.__file__).resolve().parents:
        raise SetupError(f"psynd imported from {psynd.__file__}, not from {src}")
    return psynd


# -- set-up ------------------------------------------------------------


@dataclass
class Prepared:
    op: Op
    config: Path
    report: Path


def _named_reals(cfg: dict) -> List[str]:
    system = cfg.get("system", {})
    texts = []
    for key in ("alpha", "beta"):
        value = system.get(key)
        texts += value if isinstance(value, list) else [value] if value is not None else []
    if "alpha" in cfg.get("set", {}):
        texts.append(cfg["set"]["alpha"])
    return texts


def prepare(psynd, workload: str, seed: int, small: bool, workdir: Path) -> List[Prepared]:
    """Write the workload's configs and resolve their named constants."""
    constants = psynd.constants
    workdir.mkdir(parents=True, exist_ok=True)
    prepared = []
    for i, op in enumerate(build_ops(workload, seed, small)):
        for text in _named_reals(op.config):
            spec = constants.parse_real(text)
            if not spec.is_rational:
                spec.fixed(constants.DEFAULT_BITS)
        config = workdir / f"op{i}.json"
        config.write_text(json.dumps(op.config, sort_keys=True), encoding="utf-8")
        prepared.append(Prepared(op, config, workdir / f"op{i}.report.json"))
    return prepared


def measure_setup(args, workdir: Path, count: int) -> List[tuple]:
    """Seconds and reference seconds from process start until the inputs
    are ready, per fresh process; the probe samples the host's speed itself."""
    times = []
    for i in range(count):
        probe_dir = workdir / f"probe{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe-dir", str(probe_dir)]
        if args.small:
            cmd.append("--small")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SetupError("set-up probe timed out")
        shutil.rmtree(probe_dir, ignore_errors=True)
        word, *fields = line.split()
        if proc.returncode != 0 or word != "ready" or len(fields) != 2:
            raise SetupError(f"set-up probe failed: {err.strip()}")
        spent, speed = map(float, fields)
        times.append((elapsed - spent, (elapsed - spent) * speed))
    return times


# -- one pass ----------------------------------------------------------


@dataclass
class PassResult:
    run: Dict[str, List[float]] = field(default_factory=dict)
    verify: Dict[str, List[float]] = field(default_factory=dict)
    run_ref: Dict[str, List[float]] = field(default_factory=dict)
    verify_ref: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    work: Dict[str, dict] = field(default_factory=dict)
    digests: Dict[str, Dict[str, str]] = field(default_factory=dict)


def _call(psynd, argv: List[str], tracer: Optional[Tracer], name: str, bucket: str,
          kernel: Optional[Callable[[], int]] = None):
    """One ``psynd`` invocation: (exit code, seconds, reference seconds or
    None, captured stdout). With a ``kernel``, the host's speed is sampled
    with it (see ``calibrate``); traced calls are not sampled."""

    def main():
        try:
            return psynd.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # an operation that crashes is a failed operation
            return f"{type(exc).__name__}: {exc}"

    buf = io.StringIO()
    gc.collect()  # every call starts from the same collector state
    with contextlib.redirect_stdout(buf):
        if kernel is not None:
            code, elapsed, ref = calibrate.timed(main, kernel)
        else:
            span = None
            if tracer is not None:
                tracer.op = name
                span = tracer.open(name, bucket)
            t0 = time.perf_counter()
            code = main()
            elapsed, ref = time.perf_counter() - t0, None
            if span is not None:
                tracer.close(span)
    return code, elapsed, ref, buf.getvalue()


def _cert_summary(cert: dict) -> dict:
    keep = ("shift_bound", "shift_box", "gap_bound", "gap", "run_length", "rect", "interval")
    return {"type": cert.get("type"), **{k: cert[k] for k in keep if k in cert}}


def run_pass(psynd, prepared: List[Prepared], refs: Optional[dict], sink: list,
             tracer: Optional[Tracer] = None, deadline: Optional[float] = None,
             cost: Optional[Dict[str, float]] = None, reference: bool = False) -> PassResult:
    """Every operation once, with checks; with a ``deadline``, stop before an
    operation whose last ``cost`` would overrun it; with ``reference``, also
    time every call in reference seconds."""
    res = PassResult()
    counters_before = None
    for p in prepared:
        op = p.op
        t_op = time.perf_counter()
        if deadline is not None and t_op + cost.get(op.name, 0.0) > deadline:
            break
        if tracer is not None:
            counters_before = _work_counts(tracer)
        sink.clear()
        p.report.unlink(missing_ok=True)
        argv = [op.command, "--config", str(p.config), "--out", str(p.report), *op.flags]
        code, elapsed, ref, _ = _call(psynd, argv, tracer, op.name, "cli.self_s",
                                      calibrate.mixed if reference else None)
        res.run[op.name] = [elapsed]
        if reference:
            res.run_ref[op.name] = [ref]
        res.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        report = None
        if p.report.is_file():
            report = json.loads(p.report.read_text(encoding="utf-8"))
        elif code == 0:
            problems.append("no report written")
        digests = {label: layers.digest_set(obj) for label, obj in _numbered(sink)}
        work = {
            "points": op.points,
            "sizes": op.sizes,
            "members": {label: layers.set_count(obj) for label, obj in _numbered(sink)},
        }
        sink.clear()
        if report is not None:
            work["report_bytes"] = p.report.stat().st_size
            work["certificates"] = [_cert_summary(c) for c in report.get("certificates", [])]
            if "members" in report.get("set", {}):
                digests["report.set"] = layers.digest_set_json(report["set"])
            if op.expect_oracle and report.get("results", {}).get("oracle_match") is not True:
                problems.append("oracle_match is not true")
        expected = (refs or {}).get(op.name)
        if expected is not None and expected != digests:
            bad = sorted(k for k in set(expected) | set(digests) if expected.get(k) != digests.get(k))
            problems.append(f"mask digests differ from the reference: {bad}")
        res.digests[op.name] = digests
        for problem in problems:
            res.failures.append(f"{op.name}: {problem}")

        if op.verify and report is not None and "members" in report.get("set", {}):
            times = res.verify[op.name] = []
            refs_s = res.verify_ref[op.name] = []
            # a verify of milliseconds is repeated for more samples; traced
            # passes verify once, so that their counts repeat exactly
            while not times or (tracer is None and len(times) < VERIFY_REPEATS
                                and sum(times) < VERIFY_REPEAT_BELOW_S):
                vcode, velapsed, vref, out = _call(psynd, ["verify", "--config", str(p.report)],
                                                   tracer, f"verify {op.name}",
                                                   "cli.report_read_s",
                                                   calibrate.masks if reference else None)
                times.append(velapsed)
                if reference:
                    refs_s.append(vref)
                res.attempted += 1
                if vcode != 0:
                    res.failures.append(f"verify {op.name}: exit {vcode}")
            lines = out.splitlines()
            skipped = sum(1 for line in lines if line.endswith(": skipped (refutation or unknown)"))
            work["verify"] = {"exit": vcode, "skipped": skipped, "lines": len(lines)}
            if tracer is not None:
                tracer.tally["windows.verify_skipped"] += skipped
        if tracer is not None:
            tracer.tally["cli.report_bytes"] += work.get("report_bytes", 0)
            after = _work_counts(tracer)
            work["trace_counts"] = {k: after[k] - counters_before.get(k, 0)
                                    for k in after if after[k] != counters_before.get(k, 0)}
        res.work[op.name] = work
        if cost is not None:
            cost[op.name] = time.perf_counter() - t_op
    return res


def _numbered(sink):
    seen: Dict[str, int] = {}
    for label, obj in sink:
        k = seen.get(label, 0)
        seen[label] = k + 1
        yield f"{label}#{k}", obj


def _work_counts(tr: Tracer) -> Dict[str, int]:
    counts = {f"{name}.calls": stats[0] for name, stats in tr.counters.items()}
    counts.update({f"{name}.hits": stats[2] for name, stats in tr.counters.items()})
    counts.update(tr.tally)
    return counts


# -- the run -----------------------------------------------------------


def _medians(passes: List[PassResult], attr: str) -> Dict[str, float]:
    """Per operation, the median of its times over the passes that ran it."""
    names = getattr(passes[0], attr).keys()
    return {n: statistics.median(t for p in passes for t in getattr(p, attr).get(n, ()))
            for n in names}


def _load_refs(small: bool, workload: str, seed: int) -> Optional[dict]:
    if not REFS_PATH.is_file():
        return None
    refs = json.loads(REFS_PATH.read_text(encoding="utf-8"))
    return refs.get("small" if small else "full", {}).get(workload, {}).get(str(seed))


def run_workload(psynd, args, prepared, refs, workdir: Path) -> dict:
    """Passes until the time is used up; returns the result record."""
    sink: list = []
    capture = layers.install_capture(psynd, sink)
    start = time.perf_counter()
    passes: List[PassResult] = []
    traced = []
    setup_times: List[tuple] = []
    try:
        if args.trace:
            # untraced and traced passes alternate, so that the overhead compares
            # passes run under the same conditions
            longest = 0.0
            while time.perf_counter() - start + longest <= args.seconds or not traced:
                t0 = time.perf_counter()
                if len(traced) < len(passes):
                    tr = Tracer()
                    patches = layers.install_trace(psynd, tr)
                    try:
                        traced.append((tr, run_pass(psynd, prepared, refs, sink, tr)))
                    finally:
                        patches.undo()
                else:
                    passes.append(run_pass(psynd, prepared, refs, sink))
                longest = max(longest, time.perf_counter() - t0)
        else:
            # set-up probes are spread over the run: the machine's speed drifts
            # over seconds, and one burst of probes would sample a single state
            cost: Dict[str, float] = {}
            deadline = start + args.seconds
            while True:
                setup_times += measure_setup(args, workdir, 1 if passes else SETUP_PROBES_FIRST)
                rec = run_pass(psynd, prepared, refs, sink, deadline=deadline if passes else None,
                               cost=cost, reference=True)
                if rec.run:
                    passes.append(rec)
                if len(rec.run) < len(prepared):
                    break
    finally:
        capture.undo()

    everything = passes + [rec for _, rec in traced]
    failures = [f for rec in everything for f in rec.failures]
    attempted = sum(rec.attempted for rec in everything)
    first = everything[0]
    run_medians = _medians(passes, "run")
    verify_medians = _medians(passes, "verify")
    run_ref_medians = {} if args.trace else _medians(passes, "run_ref")
    verify_ref_medians = {} if args.trace else _medians(passes, "verify_ref")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "traced_passes": len(traced),
        "references": "checked" if refs else "none for this seed",
        "ops": {name: {**work, "samples": sum(name in p.run for p in passes),
                       "median_run_s": run_medians[name],
                       "median_verify_s": verify_medians.get(name, 0.0),
                       "median_run_ref_s": run_ref_medians.get(name),
                       "median_verify_ref_s": verify_ref_medians.get(name)}
                for name, work in first.work.items()},
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    points = sum(p.op.points for p in prepared)
    correct = not failures
    if args.trace:
        # the first pass also warms the heap and caches; leave it out when there are others
        warm = passes[1:] or passes
        untraced = statistics.median(
            sum(t[0] for t in p.run.values()) + sum(t[0] for t in p.verify.values()) for p in warm)
        metrics, consistent = _trace_metrics(traced, untraced, record)
        correct = correct and consistent
        trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            for k, (tr, _) in enumerate(traced):
                tr.write_jsonl(fh, {"pass": k})
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        run_s = sum(run_ref_medians.values())
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "run_s": run_s,
            "points_per_s": points / run_s,
            "verify_s": sum(verify_ref_medians.values()),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["raw_seconds"] = {
            "setup_s": statistics.median(raw for raw, _ in setup_times),
            "run_s": sum(run_medians.values()),
            "verify_s": sum(verify_medians.values()),
        }
        record["setup_s_probes"] = setup_times
    record["correct"] = correct
    units = layers.PER_LAYER if args.trace else END_TO_END
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return record


def _trace_metrics(traced, untraced_s: float, record: dict):
    """Per-layer metrics of the median traced pass, and whether they are sound."""
    totals = [sum(s.end - s.start for s in tr.roots()) for tr, _ in traced]
    order = sorted(range(len(traced)), key=totals.__getitem__)
    tr, rec = traced[order[(len(order) - 1) // 2]]
    for name, work in rec.work.items():
        record["ops"][name]["trace_counts"] = work["trace_counts"]
    metrics = layers.layer_metrics(tr)
    roots = tr.roots()
    metrics["trace.run_s"] = sum(s.end - s.start for s in roots if s.bucket == "cli.self_s")
    metrics["trace.verify_s"] = sum(s.end - s.start for s in roots if s.bucket != "cli.self_s")
    total = metrics["trace.run_s"] + metrics["trace.verify_s"]
    metrics["trace.overhead_s"] = total - untraced_s
    self_sum = sum(metrics[name] for name in layers.TIME_BUCKETS)
    sums_ok = abs(self_sum - total) <= 1e-9 * max(1.0, total)
    counts = [{n: layers.layer_metrics(t)[n] for n in layers.EXACT_COUNTS} for t, _ in traced]
    repeat_ok = all(c == counts[0] for c in counts)
    record["trace_checks"] = {"self_time_sum_s": self_sum, "traced_total_s": total,
                              "self_times_add_up": sums_ok, "counts_repeat": repeat_ok}
    return metrics, sums_ok and repeat_ok


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="divide every window and box by 50 (for the benchmark's tests)")
    parser.add_argument("--probe-dir", type=Path, default=None,
                        help="only set up into this directory, print 'ready' and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_dir is not None:
            # a speed sample at each end; the parent takes their time out
            t0 = time.perf_counter()
            speeds = [calibrate.speed()]
            spent = time.perf_counter() - t0
            prepare(load_psynd(), args.workload, args.seed, args.small, args.probe_dir)
            t0 = time.perf_counter()
            speeds.append(calibrate.speed())
            spent += time.perf_counter() - t0
            print(f"ready {spent!r} {statistics.fmean(speeds)!r}", flush=True)
            return 0
        psynd = load_psynd()
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        try:
            prepared = prepare(psynd, args.workload, args.seed, args.small, workdir)
            refs = _load_refs(args.small, args.workload, args.seed)
            record = run_workload(psynd, args, prepared, refs, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    result_path = WORK_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"info": {k: v for k, v in record.items() if k != "metrics"}}))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
