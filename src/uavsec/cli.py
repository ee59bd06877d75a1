"""Command-line entry point for the flight-sweep simulator.

The parser is built once, at import; ``main`` keeps no state between calls,
so it is safe to call repeatedly in one process.
"""

import argparse
import sys

from .harness import parse_config, run_experiment, summarize, write_results


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a usage error: ``main`` prints one ``error:`` line."""

    def error(self, message):
        raise ValueError(message)


_PARSER = _Parser(prog="uavsec", description="Secrecy-rate sweeps for a UAV directional-modulation link")
_PARSER.add_argument("command", choices=("run",), help="run the sweep defined by the config")
_PARSER.add_argument("--config", required=True, help="path to a key=value config file")
# argparse copies an append destination's list before it appends, so the
# shared default=[] stays empty from call to call.
_PARSER.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides",
                     help="a config line read after the file's (repeatable; the last value of a key wins)")
_PARSER.add_argument("--out", action="append", type="output.path={}".format, metavar="O", dest="overrides",
                     help="output file: the config line output.path=O, in argv order with --set")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = parse_config(args.config, args.overrides)
        result = run_experiment(cfg)
        write_results(result, cfg.output_format, cfg.output_path)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {result.rows} records to {cfg.output_path} ({cfg.output_format})")
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
