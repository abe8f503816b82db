#!/usr/bin/env python3
"""stereoscene benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload synth-reverb --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is a single-process closed loop (workers=1) over
10 s clips at 16 kHz, driving the public ``pipeline`` API on inputs made from
``--seed``:

  synth-reverb    indoor entries incl. one small-room moving clip,
                  synthesize + validate
  eval-subsets    synthesize + validate a generated outdoor set in all four
                  subsets, then evaluate it against a reference set built
                  during set-up

Passes of the flow repeat until ``--seconds`` have elapsed (at least one).
With ``--trace 1`` the run makes one untraced and one traced pass, and
reports per-layer figures from spans recorded around calls into each module.
The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it give the environment and every figure by name and unit. The
exit code is 1 when an output check fails.
"""

import os
import sys
import time

PROCESS_T0 = time.perf_counter()
# The dense Frechet eigh is the one multithreaded call; pin BLAS before numpy
# loads so every run uses the same thread count.
BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
CLIP_S = 10.0
SETUP_ROUNDS = 5
WARMUP_S = 1.0
WORKLOADS = ("synth-reverb", "eval-subsets")
# Printed on every run but not in BENCHMARK.json: a single call is too short
# a window to stay steady on a shared machine, and the two ratios are 0 on a
# clean run. flow_clips_per_s times the same calls as one longer window.
REPORT_ONLY = {
    "synth_clips_per_s": "clips/s",
    "validate_clips_per_s": "clips/s",
    "eval_pairs_per_s": "pairs/s",
    "fail_ratio": "ratio",
    "violation_ratio": "ratio",
    # itd_err_us over the clips the seed commit gets right (not the chirp):
    # a stand-in for the metric once the chirp defect is fixed
    "itd_err_floor_us": "us",
}


class SetupError(RuntimeError):
    pass


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def import_program():
    """Import stereoscene from this checkout's src/, nowhere else."""
    if not (SRC / "stereoscene" / "__init__.py").is_file():
        raise SetupError(f"no stereoscene package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stereoscene
    from stereoscene import pipeline  # noqa: F401

    if Path(stereoscene.__file__).resolve().parent != (SRC / "stereoscene").resolve():
        raise SetupError(f"stereoscene imported from {stereoscene.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------
def _blas_threads():
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stereoscene").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------
def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def itd_errors_us(dataset: Path, prefix: str = "") -> list[dict]:
    """|median windowed TDOA - geometric ITD| per still single-source clip,
    with the clip id and the name of its source WAV."""
    import numpy as np
    from stereoscene import metrics
    from stereoscene.audio_io import read_wav
    from stereoscene.pipeline import DatasetIndex
    from stereoscene.scene import SceneSpec

    errors = []
    for row in DatasetIndex.load(dataset / "index.jsonl").rows:
        meta = json.loads((dataset / row["metadata"]).read_text())
        scene = SceneSpec.from_json(json.dumps(meta["scene"]))
        if len(scene.sources) != 1 or scene.sources[0].movement != "still":
            continue
        pos = np.asarray(scene.sources[0].start_pos)
        itd = (np.linalg.norm(pos - scene.mic_array.left_pos)
               - np.linalg.norm(pos - scene.mic_array.right_pos)) / 343.0
        vals = metrics.tdoa_series(read_wav(dataset / row["wav"])).valid_values()
        if vals.size:
            errors.append({"id": prefix + row["id"], "source": Path(meta["source_audio"][0]).stem,
                           "err_us": abs(float(np.median(vals)) - itd) * 1e6})
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclass
class Inputs:
    manifest: Path
    n_entries: int
    global_seed: int
    duration: float
    reference: Path | None = None  # eval-subsets: reference dataset directory


@dataclass
class Checks:
    ran: int = 0
    failed: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.ran += 1
        if not ok:
            self.failed.append(what)


def prepare(workload: str, seed: int, directory: Path, duration: float,
            inject_missing: bool) -> Inputs:
    """Sources, manifest, a warm-up synthesize + validate of 1 s clips, and
    on eval-subsets the reference set, synthesized under the next global seed."""
    import inputs
    from stereoscene import pipeline

    sources = inputs.make_sources(directory / "sources", seed)
    if workload == "synth-reverb":
        entries = inputs.indoor_manifest(seed, sources, duration)
    else:
        entries = inputs.outdoor_manifest(sources)
    if inject_missing:
        bad = dict(entries[0], id="missing-source")
        bad["audio"] = [str(directory / "sources" / "no-such-file.wav")]
        entries.append(bad)
    manifest = inputs.write_manifest(directory / "manifest.jsonl", entries)
    entries = pipeline.read_manifest(manifest)
    warm = [next(e for e in entries if e.subset == "SS"),
            next(e for e in entries if e.attributes.sources[0].movement == "moving")]
    pipeline.synthesize(warm, directory / "warmup", global_seed=seed, duration=WARMUP_S)
    pipeline.validate(directory / "warmup")
    reference = None
    if workload == "eval-subsets":
        reference = directory / "reference"
        pipeline.synthesize(entries, reference, global_seed=seed + 1, workers=1, duration=duration)
    return Inputs(manifest=manifest, n_entries=len(entries), global_seed=seed, duration=duration,
                  reference=reference)


def set_up(workload: str, seed: int, directory: Path, duration: float,
           inject_missing: bool) -> tuple[Inputs, list[float], list[str]]:
    """SETUP_ROUNDS identical rounds of ``prepare`` in one directory: the
    inputs of the last round, each round's wall time and each round's tree
    digest. The directory is cleared before each round, outside the timer."""
    rounds, digests = [], []
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(directory, ignore_errors=True)
        t = time.perf_counter()
        inp = prepare(workload, seed, directory, duration, inject_missing)
        rounds.append(time.perf_counter() - t)
        digests.append(tree_digest(directory))
    return inp, rounds, digests


def run_flow(inp: Inputs, out: Path, checks: Checks) -> dict:
    """One pass: synthesize, validate, and (eval-subsets) evaluate."""
    from stereoscene import pipeline

    manifest = pipeline.read_manifest(inp.manifest)
    dataset = out / "dataset"
    t0 = time.perf_counter()
    index = pipeline.synthesize(manifest, dataset, global_seed=inp.global_seed, workers=1,
                                duration=inp.duration)
    t1 = time.perf_counter()
    report = pipeline.validate(dataset)
    t2 = time.perf_counter()
    evaluation = None
    if inp.reference is not None:
        evaluation = pipeline.evaluate(dataset, inp.reference / "index.jsonl")
    t3 = time.perf_counter()

    checks.expect(len(index.rows) == inp.n_entries,
                  f"index has {len(index.rows)} rows for {inp.n_entries} manifest entries")
    checks.expect(report.checked == len(index.rows),
                  f"validate checked {report.checked} of {len(index.rows)} clips")
    result = {
        "dataset": dataset,
        "entries": inp.n_entries,
        "written": len(index.rows),
        "raised": len(index.failures),
        "checked": report.checked,
        "violating": len({v["id"] for v in report.violations}),
        "violations": report.violations,
        "synth_s": t1 - t0,
        "validate_s": t2 - t1,
        "evaluate_s": t3 - t2,
        "flow_s": t3 - t0,
        "pairs": 0,
        "skipped": 0,
    }
    if evaluation is not None:
        import math

        pairs = len(evaluation.rows)
        scores = (evaluation.gcc_mae, evaluation.gcc_ma, evaluation.fsad)
        checks.expect(all(math.isfinite(v) for v in scores), f"non-finite scores {scores}")
        checks.expect(sorted(evaluation.by_subset) == sorted(pipeline.SUBSETS),
                      f"by_subset rows {sorted(evaluation.by_subset)}")
        result.update(pairs=pairs, skipped=len(evaluation.skipped), scores=evaluation.to_dict())
    return result


def median(values):
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 import_s: float, duration: float = CLIP_S, inject_missing: bool = False) -> dict:
    """Set up, run passes for ``seconds`` (one untraced + one traced pass
    when ``trace``), check the outputs, and collect every figure."""
    inp, rounds, setup_digests = set_up(workload, seed, work / "setup", duration, inject_missing)
    setup_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checks = Checks()
    checks.expect(len(set(setup_digests)) == 1,
                  f"set-up rounds wrote different trees: {setup_digests}")
    passes, digests, scores = [], [], []
    t_flow = time.perf_counter()
    while True:
        out = work / f"pass{len(passes)}"
        res = run_flow(inp, out, checks)
        passes.append(res)
        digests.append(tree_digest(res["dataset"]))
        scores.append(res.get("scores"))
        if len(passes) > 1:
            shutil.rmtree(passes[-2]["dataset"])
        if trace or time.perf_counter() - t_flow >= seconds:
            break

    # ru_maxrss is the whole process's peak; set-up (1 s warm-up clips, the
    # outdoor reference set) stays well below the passes on every workload
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    spans = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_flow(inp, work / "traced", checks)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        digests.append(tree_digest(traced["dataset"]))
        scores.append(traced.get("scores"))
        layers = tracing.layer_metrics(spans, traced["flow_s"], 2 * traced["pairs"])
        layers["trace.overhead_ratio"] = traced["flow_s"] / passes[-1]["flow_s"]

    # an untraced eval-subsets run makes a single pass: nothing to compare
    if len(digests) > 1:
        checks.expect(len(set(digests)) == 1, f"dataset trees differ across passes: {digests}")
        checks.expect(all(s == scores[0] for s in scores), "evaluate reports differ across passes")
    last = passes[-1]
    itd_clips = itd_errors_us(last["dataset"])
    if inp.reference is not None:
        itd_clips += itd_errors_us(inp.reference, prefix="reference/")
    errors = [c["err_us"] for c in itd_clips]
    floor = [c["err_us"] for c in itd_clips if c["source"] != "chirp"]
    checks.expect(bool(floor), "no still single-source clip to measure ITD error on")

    attempted = sum(p["entries"] + p["pairs"] for p in passes) + checks.ran
    failed = sum(p["raised"] + p["skipped"] for p in passes) + len(checks.failed)
    # Rates pool every call of the run (total clips over total seconds):
    # this shared machine's speed drifts smoothly, and one long window
    # averages the drift better than a median of short ones.
    def pooled(count, seconds):
        return sum(p[count] for p in passes) / sum(p[seconds] for p in passes)

    metrics = {
        "flow_clips_per_s": pooled("entries", "flow_s"),
        "setup_s": median(rounds),
        "peak_rss_mb": peak_rss_kib / 1024,
        "itd_err_us": sum(errors) / len(errors) if errors else float("nan"),
    }
    extra = {
        "fail_ratio": failed / attempted,
        "violation_ratio": last["violating"] / last["checked"] if last["checked"] else 1.0,
        "synth_clips_per_s": pooled("written", "synth_s"),
        "validate_clips_per_s": pooled("checked", "validate_s"),
        "eval_pairs_per_s": pooled("pairs", "evaluate_s") if inp.reference is not None else None,
        "itd_err_floor_us": sum(floor) / len(floor) if floor else None,
        "itd_clips": itd_clips,
        "setup_peak_rss_mb": setup_rss_kib / 1024,
        "setup_rounds_s": rounds,
        "import_s": import_s,
        "passes": len(passes),
        "flow_s": [p["flow_s"] for p in passes],
        "violations": last["violations"],
        "scores": last.get("scores"),
    }
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": not checks.failed, "attempted": attempted, "failed": failed,
        "checks_failed": checks.failed, "metrics": metrics, "layers": layers,
        "extra": extra, "spans": spans,
    }


def emit(result: dict, spec: dict, env: dict, out_dir: Path) -> dict:
    """Print the report and the final JSON line; returns that line's object."""
    trace = result["trace"]
    values = result["layers"] if trace else result["metrics"]
    missing = sorted(set(spec[trace]) - set(values))
    if missing:
        raise SetupError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in spec[trace].items()},
    }
    tag = f"{result['workload']}_seed{result['seed']}_trace{trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {k: v for k, v in result.items() if k != "spans"}
    record["env"] = env
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str))
    if trace:
        with open(out_dir / f"{tag}.spans.jsonl", "w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in spec[0].items():
        print(f"{name} {result['metrics'][name]:.6g} {unit}")
    for name, unit in REPORT_ONLY.items():
        value = result["extra"][name]
        print(f"{name} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    if trace:
        for name, unit in spec[1].items():
            print(f"{name} {values[name]:.6g} {unit}")
    for what in result["checks_failed"]:
        print(f"CHECK FAILED: {what}")
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        import_program()
    except Exception as exc:  # a missing or broken program is not a failed output check
        print(f"perfbench: cannot start: {exc!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_T0

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work,
                              import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = emit(result, spec, environment(), OUT)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
