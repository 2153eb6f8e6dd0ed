"""Tests of the benchmark itself: small runs, the correctness gate, tracing.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_is_correct(capsys, workload):
    info, result = _run(capsys, "--workload", workload, "--seed", "0", "--seconds", "0.1", "--small")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert info["references"] == "checked"
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_small_traced_runs_repeat_and_add_up(capsys):
    argv = ("--workload", "certify", "--seed", "0", "--seconds", "0.1", "--small", "--trace", "1")
    runs = [_run(capsys, *argv) for _ in range(2)]
    for info, result in runs:
        assert result["correct"]
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        assert info["trace_checks"]["self_times_add_up"]
    counts = [{n: r["metrics"][n]["value"] for n in layers.EXACT_COUNTS} for _, r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["windows.witness_attempts"] > 0
    assert counts[0]["windows.verify_probes"] > 0


def test_flipped_reference_bit_fails(capsys, tmp_path, monkeypatch):
    psynd = run.load_psynd()
    refs = json.loads(run.REFS_PATH.read_text(encoding="utf-8"))
    op = next(o for o in build_ops("certify", 0, small=True) if o.name == "analyze-golden")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(op.config), encoding="utf-8")
    sink = []
    capture = layers.install_capture(psynd, sink)
    try:
        assert psynd.cli.main([op.command, "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    finally:
        capture.undo()
    (label, decided), = sink
    flipped = psynd.windows.WindowSet(decided.lo, decided.hi, decided.mask ^ 1)
    entry = refs["small"]["certify"]["0"]["analyze-golden"]
    assert entry[f"{label}#0"] == layers.digest_set(decided)
    entry[f"{label}#0"] = layers.digest_set(flipped)
    tampered = tmp_path / "refs.json"
    tampered.write_text(json.dumps(refs), encoding="utf-8")
    monkeypatch.setattr(run, "REFS_PATH", tampered)

    info, result = _run(capsys, "--workload", "certify", "--seed", "0", "--seconds", "0.1", "--small")
    assert not result["correct"]
    assert info["fail_ratio"] > 0
    assert all("analyze-golden" in f for f in info["failures"])


def test_self_times_add_up_to_the_root():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    child = tr.spanned("child", "b.child", tr.counted("c", lambda: None))
    root = tr.open("root", "b.root")  # 0.0
    child()  # span 1.0 .. 4.0 around a counter call 2.0 .. 3.0
    tr.counted("c", lambda: None)()  # 5.0 .. 5.5, directly under the root
    tr.close(root)  # 10.0
    times = tr.bucket_self_times()
    assert times == {"b.root": 10.0 - 3.0 - 0.5, "b.child": 3.0 - 1.0, "c": 1.5}
    assert sum(times.values()) == root.end - root.start
    assert tr.counters["c"][0] == 2


def test_timed_takes_the_sampler_time_out_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    result, seconds, ref = calibrate.timed(lambda: time.sleep(0.35) or "done")
    assert result == "done"
    # samples ran at 0.1, 0.2 and 0.3 s inside the sleep; their time is taken out
    assert 0.2 < seconds < 0.35
    assert ref > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_digest_from_report_matches_digest_of_set():
    psynd = run.load_psynd()
    win = psynd.windows
    s = win.WindowSet(-5, 20, 0b1011001)
    g = win.GridSet((-2, 1, 3, 12), [0b1, 0, 0b1000000001, 0b110])
    for obj in (s, g):
        assert layers.digest_set_json(obj.to_json_obj()) == layers.digest_set(obj)
    assert layers.digest_set(s) != layers.digest_set(win.WindowSet(-5, 20, 0b1011000))


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
