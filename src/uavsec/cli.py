"""Command-line entry point for the flight-sweep simulator."""

from __future__ import annotations

import argparse
import sys

from .harness import parse_config, parse_value, run_experiment, summarize, write_results

_LIST_OPTIONS = ("--powers", "--antennas")


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a usage error: ``main`` prints one ``error:`` line."""

    def error(self, message):
        raise ValueError(message)


def _attach_list_values(argv: list[str]) -> list[str]:
    """``argv`` with ``OPT V`` joined into ``OPT=V`` where OPT is a list option
    (or its abbreviation) and V starts with a single '-': argparse would take
    V for an option, since only a plain negative number counts as a value."""
    out: list[str] = []
    for arg in argv:
        option = out[-1] if out else ""
        if (len(option) > 2 and any(name.startswith(option) for name in _LIST_OPTIONS)
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--out", help="output file (default: config output.path)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uavsec",
        description="Secrecy-rate sweeps for a UAV directional-modulation link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the sweep defined by the config")
    _add_common(run)

    power = sub.add_parser("sweep-power", help="run with an overridden transmit-power sweep")
    _add_common(power)
    power.add_argument("--powers", required=True,
                       help="comma-separated transmit powers in dBm")

    ant = sub.add_parser("sweep-antennas", help="run with an overridden antenna-count sweep")
    _add_common(ant)
    ant.add_argument("--antennas", required=True,
                     help="comma-separated antenna counts")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
        cfg = parse_config(args.config)
        # ``_replace`` builds the config through its checks again.
        if args.command == "sweep-power":
            powers = parse_value("sweep.power_dbm", args.powers, "--powers")
            cfg = cfg._replace(power_sweep_dbm=powers)
        elif args.command == "sweep-antennas":
            antennas = parse_value("sweep.antennas", args.antennas, "--antennas")
            cfg = cfg._replace(antenna_sweep=antennas)
        result = run_experiment(cfg)
        out = args.out or cfg.output_path
        fmt = args.format or cfg.output_format
        write_results(result, fmt, out)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {result.rows} records to {out} ({fmt})")
    summary = summarize(result)
    for row in summary:
        if row["nonconverged"]:
            print(
                f"warning: strategy={row['strategy']} M={row['M']} Ps={row['Ps_dbm']:g}dBm: "
                f"{row['nonconverged']} of {row['points']} points hit the iteration cap "
                f"(ais.max_iterations={cfg.ais.max_iterations}) without converging",
                file=sys.stderr,
            )
    for row in summary:
        print(
            f"strategy={row['strategy']} M={row['M']} Ps={row['Ps_dbm']:g}dBm "
            f"mean_SR={row['mean_secrecy_rate']:.6f} "
            f"SSR={row['ssr_per_point_clamped']:.6f} "
            f"SSR_sum_clamped={row['ssr_sum_clamped']:.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
