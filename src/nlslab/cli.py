"""Command-line driver: ``nlslab <experiment> --config <path> [--out <dir>]
[--parallel]``.

Exit status: 0 when every residual passes, 1 on a numerical failure, 2 on a
configuration error.  NLSLAB_OUT sets the default output directory.
"""

import argparse
import sys

from .errors import ConfigError, NlslabError
from .harness import EXPERIMENTS, default_output_dir, load_config, run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlslab",
        description="spectral verification laboratory for critical NLS scattering",
    )
    sub = parser.add_subparsers(dest="experiment", metavar="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--out", help="output directory for reports and tables")
        p.add_argument(
            "--parallel", action="store_true",
            help="accepted for compatibility and recorded as params.parallel "
                 "in the report; the computation is the same either way",
        )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.experiment:
        parser.print_help()
        return 2
    try:
        overrides = load_config(args.config) if args.config else {}
        out_dir = args.out or default_output_dir()
        report = run(
            args.experiment, overrides, out_dir=out_dir, parallel=args.parallel
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NlslabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    for r in report.residuals:
        flag = "PASS" if r.ok else "FAIL"
        print(f"[{flag}] {r.name}: {r.value:.6e} (tol {r.tolerance:.1e})")
    print(f"verdict: {report.verdict}  ({report.wall_clock_s:.1f}s)  -> {out_dir}")
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
