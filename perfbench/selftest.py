#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (2 s clips, few entries).

    python3 perfbench/selftest.py

Checks, for every workload, that each metric named in BENCHMARK.json is
emitted with its unit, traced and untraced, and that end-to-end values are
finite and non-zero; that a manifest entry whose source WAV is missing is
counted in fail_ratio and fails the run; that the command exits non-zero
without printing a result in a directory holding only the benchmark; and that
it exits 2 when the program under src/ does not import.
Takes about a minute and a half, most of it in the eval workload's Frechet
distances.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY_S = 2.0  # clip length; the workloads themselves use 10 s


def emitted(result, spec, env, out_dir, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        line = run.emit(dict(result, trace=trace), spec, env, out_dir)
    assert json.loads(buf.getvalue().splitlines()[-1]) == line
    return line


def check_workload(workload, spec, env, work):
    result = run.run_workload(workload, seed=3, seconds=0, trace=True, work=work / workload,
                              import_s=0.0, duration=TINY_S)
    assert result["correct"], (workload, result["checks_failed"])
    for trace in (0, 1):
        line = emitted(result, spec, env, work / "out", trace)
        assert list(line["metrics"]) == list(spec[trace]), (workload, trace)
        for name, unit in spec[trace].items():
            value = line["metrics"][name]["value"]
            assert line["metrics"][name]["unit"] == unit
            assert math.isfinite(value), (workload, name, value)
            assert trace == 1 or value > 0, (workload, name, value)
    print(f"ok   {workload}: {len(spec[0])} end-to-end and {len(spec[1])} per-layer metrics")


def check_missing_source(work):
    result = run.run_workload("synth-reverb", seed=3, seconds=0, trace=False, work=work / "inject",
                              import_s=0.0, duration=TINY_S, inject_missing=True)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["extra"]["fail_ratio"] > 0, result["extra"]
    print(f"ok   missing source WAV: failed={result['failed']} "
          f"fail_ratio={result['extra']['fail_ratio']:.3f}, run marked incorrect")


def run_in(directory):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-reverb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=directory, capture_output=True, text=True, timeout=180)


def benchmark_only(directory):
    shutil.copytree(run.ROOT / "perfbench", directory / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", directory)
    return directory


def check_bare_directory(work):
    proc = run_in(benchmark_only(work / "bare"))
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   bare directory: exit {proc.returncode}, no result line")


def check_broken_program(work):
    broken = benchmark_only(work / "broken")
    package = broken / "src" / "stereoscene"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def broken(:\n")
    proc = run_in(broken)
    assert proc.returncode == 2 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   program that does not import: exit 2, no result line")


def main():
    run.import_program()
    spec = run.load_spec()
    env = run.environment()
    run.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        check_bare_directory(work)
        check_broken_program(work)
        check_missing_source(work)
        for workload in run.WORKLOADS:
            check_workload(workload, spec, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
