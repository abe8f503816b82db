"""Command-line interface: synthesize / evaluate / validate / parse-captions
/ render-scene. Exit codes: 0 success, 1 partial failure, 2 bad invocation
(including a file that cannot be read or written)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import captions as cap
from . import metrics, pipeline
from .audio_io import AudioBuffer, replace_file, write_wav
from .acoustics import stereo_rir_for
from .rng import SeededRng
from .scene import SceneSpec


def _cmd_synthesize(args) -> int:
    manifest = pipeline.read_manifest(args.manifest)
    index = pipeline.synthesize(
        manifest, args.out, global_seed=args.seed, workers=args.workers,
        sample_rate=args.sample_rate, pcm16=args.pcm16, subset_filter=args.subset,
    )
    print(f"synthesized {len(index.rows)} clips -> {args.out}")
    if index.failures:
        for failure in index.failures:
            print(f"FAILED {failure['id']}: {failure['error'].splitlines()[0]}",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    report = pipeline.validate(args.dataset)
    if args.out_json:
        replace_file(args.out_json, report.to_json().encode())
    print(f"checked {report.checked} clips, {len(report.violations)} violation(s)")
    for v in report.violations:
        print(f"  {v['id']}: {v['kind']}: {v['detail']}")
    return 0 if report.ok else 1


def _cmd_evaluate(args) -> int:
    if bool(args.external_gen) != bool(args.external_ref):
        missing = "--external-ref" if args.external_gen else "--external-gen"
        print(f"error: external embeddings need {missing} as well", file=sys.stderr)
        return 2
    ext = (args.external_gen, args.external_ref) if args.external_gen else None
    report = pipeline.evaluate(args.generated, args.reference, external_embeddings=ext)
    if args.out_json:
        replace_file(args.out_json, report.to_json().encode())
    print(f"{'metric':<10} {'value':>10}")
    print(f"{'gcc_mae':<10} {report.gcc_mae:>10.3f}")
    print(f"{'gcc_ma':<10} {report.gcc_ma:>10.3f}")
    print(f"{'fsad':<10} {report.fsad:>10.4f}")
    if report.crw_mae is not None:
        print(f"{'crw_mae':<10} {report.crw_mae:>10.3f}")
    for subset, row in report.by_subset.items():
        print(f"  [{subset}] n={row['count']} gcc_mae={row['gcc_mae']:.3f} "
              f"gcc_ma={row['gcc_ma']:.3f} fsad={row['fsad']:.4f}")
    if report.skipped:
        print(f"skipped clips: {', '.join(report.skipped)}")
        return 1
    return 0


def _cmd_parse_captions(args) -> int:
    text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    status = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = cap.parse_caption(line)
            print(json.dumps({"caption": line, "attributes": record.to_dict()},
                             sort_keys=True))
        except cap.CaptionParseError as exc:
            print(json.dumps({"caption": line, "error": str(exc)}, sort_keys=True))
            status = 1
    return status


def _cmd_render_scene(args) -> int:
    try:
        scene = SceneSpec.from_json(Path(args.scene).read_text())
        final, gain = pipeline.master(
            pipeline.mix_scene(pipeline.render_sources(scene, args.audio, SeededRng(args.seed))))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.export_rir:
        # before the mix is written, so an unusable RIR path leaves no --out file
        rir_dir = Path(args.export_rir)
        rir_dir.mkdir(parents=True, exist_ok=True)
    write_wav(args.out, final, pcm16=args.pcm16)
    print(f"wrote {args.out} (master gain {gain!r})")
    if args.export_rir:
        for i, src in enumerate(scene.sources):
            rir = stereo_rir_for(scene, src.start_pos)
            for ch, name in enumerate(("left", "right")):
                write_wav(rir_dir / f"source{i}_{name}.wav",
                          AudioBuffer(rir.samples[ch], scene.sample_rate))
        print(f"exported RIRs -> {rir_dir}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereoscene",
        description="Synthesize binaural scenes and evaluate stereo audio sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="render a JSONL manifest into a dataset tree")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--sample-rate", type=_positive_int, default=16000)
    p.add_argument("--subset", choices=pipeline.SUBSETS, default=None,
                   help="only synthesize entries with this subset tag")
    p.add_argument("--pcm16", action="store_true", help="write 16-bit PCM instead of float32")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("validate", help="check a synthesized tree against its invariants")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("evaluate", help="TDOA/Frechet metrics between two WAV directories")
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out-json", default=None)
    p.add_argument("--external-gen", default=None,
                   help="directory of external .bin embeddings for the generated set")
    p.add_argument("--external-ref", default=None,
                   help="directory of external .bin embeddings for the reference set")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("parse-captions", help="parse captions (file or '-') into attributes")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_parse_captions)

    p = sub.add_parser("render-scene", help="render one scene JSON (debug; can export RIRs)")
    p.add_argument("--scene", required=True)
    p.add_argument("--audio", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pcm16", action="store_true")
    p.add_argument("--export-rir", default=None)
    p.set_defaults(func=_cmd_render_scene)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # bad input files, and files that cannot be read or written
    except (pipeline.ManifestError, metrics.MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
