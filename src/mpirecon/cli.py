"""Command-line pipeline runner.

Subcommands select pipeline stages (``run`` takes them from the config),
generate phantoms, sweep deconvolution parameters, or extract image
profiles.  Every command takes ``--config PATH`` plus optional ``--out``
and ``--seed`` overrides; failures print a stage-tagged message to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys

from .fileio import _fmt, load_image
from .pipeline import (
    PipelineConfig,
    PipelineError,
    example_config,
    extract_profile,
    generate_phantom_only,
    parse_pairs,
    run_pipeline,
    sweep,
)


def _add_common(parser):
    parser.add_argument("--config", required=True, help="pipeline configuration file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="noise seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpirecon",
        description="Trajectory-independent model-based MPI reconstruction pipeline.",
        epilog="Run 'mpirecon example-config' to print every config key with its default.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "run the stages listed in the config"),
        ("simulate", "generate phantom and signal"),
        ("preprocess", "transfer-function correction and SNR thresholding"),
        ("core", "recover the core operator field from the signal"),
        ("deconvolve", "recover the concentration from the trace image"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("phantom", help="rasterize and write the configured phantom")
    _add_common(p)

    p = sub.add_parser("sweep", help="grid search over (h_sat, nu0) for the deconvolution")
    _add_common(p)
    p.add_argument(
        "--pairs",
        default=None,
        help="semicolon-separated h_sat,nu0 pairs, e.g. '800,1e-5;1000,1e-4' "
        "(defaults to the [sweep] section)",
    )

    p = sub.add_parser("profile", help="extract a row or column profile from an image")
    p.add_argument("--image", required=True, help="image base path (triple without suffix)")
    p.add_argument("--axis", choices=("row", "column"), default="row")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    sub.add_parser("example-config", help="print every config key with its default")
    return parser


def _profile_command(args) -> int:
    image = load_image(args.image)
    coords, values = extract_profile(image.values, args.axis, args.index, image.geometry)
    lines = ["coordinate_m,value"]
    lines += [f"{_fmt(c)},{_fmt(v)}" for c, v in zip(coords, values)]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example-config":
            sys.stdout.write(example_config())
            return 0
        if args.command == "profile":
            return _profile_command(args)
        config = PipelineConfig.from_file(args.config)
        if args.command == "phantom":
            result = generate_phantom_only(config, out_dir=args.out)
        elif args.command == "sweep":
            pairs = parse_pairs(args.pairs) if args.pairs else None
            ranked = sweep(config, pairs=pairs, out_dir=args.out, seed=args.seed)
            for row in ranked:
                print(f"h_sat={row['h_sat']} nu0={row['nu0']} score={row['score']} {row['status']}")
            return 0
        elif args.command == "run":
            result = run_pipeline(config, out_dir=args.out, seed=args.seed)
        else:
            result = run_pipeline(config, out_dir=args.out, seed=args.seed, stages=(args.command,))
        print(f"wrote {len(result.artifacts)} artifacts to {result.out_dir}")
        return 0
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: [config] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
