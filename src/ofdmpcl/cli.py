"""Command-line front end.

    ofdmpcl run <scenario.json> [--out DIR] [--seed N]
    ofdmpcl heatmap <map> <out.pgm> [--floor-db F]
    ofdmpcl validate <scenario.json>

Exit codes: 0 success, 1 runtime error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import OfdmPclError, ScenarioError
from .mapfile import export_heatmap
from .scenario import load_scenario, run_scenario


def _floor_db(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmpcl",
        description="Multistatic OFDM passive-radar simulator and processor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its artifacts")
    run_p.add_argument("scenario", help="scenario file or bundled scenario name")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")

    heat_p = sub.add_parser("heatmap", help="render a scattering map to a PGM image")
    heat_p.add_argument("map", help="scattering map file")
    heat_p.add_argument("image", help="output PGM path")
    heat_p.add_argument(
        "--floor-db", type=_floor_db, default=60.0,
        help="dynamic range below the peak (default 60)",
    )

    val_p = sub.add_parser("validate", help="check a scenario file and exit")
    val_p.add_argument("scenario", help="scenario file or bundled scenario name")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            scenario = load_scenario(args.scenario)
            print(f"ok: {scenario.name} ({len(scenario.pairs)} pairs)")
            return 0
        if args.command == "run":
            scenario = load_scenario(args.scenario)
            result = run_scenario(scenario, out_dir=args.out, seed=args.seed)
            for pr in result.pair_results:
                top = pr.detections[0] if pr.detections else None
                summary = (
                    f"strongest at delay {top.refined_delay_s * 1e9:.1f} ns, "
                    f"doppler {top.refined_doppler_hz:+.1f} Hz, {top.snr_db:.1f} dB"
                    if top
                    else "no detections"
                )
                print(
                    f"pair {pr.pair.pair_id}: {len(pr.detections)} detections; {summary}"
                )
            for est in result.positions:
                x, y = est.position
                print(f"position {result.target_hint}: ({x:.2f}, {y:.2f}) m, "
                      f"rms {est.residual_rms_m:.3f} m from {est.pairs_used} pairs")
            print(f"artifacts in {result.output_dir}")
            return 0
        if args.command == "heatmap":
            export_heatmap(args.map, args.image, db_floor=args.floor_db)
            print(f"wrote {args.image}")
            return 0
    except ScenarioError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except (OfdmPclError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
