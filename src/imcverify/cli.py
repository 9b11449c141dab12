"""Command-line front end.

Subcommands run individual pipeline phases against the same configuration
file; ``run`` executes the full pipeline. Every phase builds what it needs
from the config: only ``improve`` and ``simulate`` reload a result table,
and only one that ``verify`` or ``improve`` stamped for the current config
and posterior table. Exit codes: 0 success, 1 input error, 2 internal
soundness error, 3 an unbounded verify phase that hit ``max_iterations``
before converging (every export is still written).
"""

from __future__ import annotations

import logging
import sys
from types import SimpleNamespace

from .config import _path, load_config
from .errors import EvaluationError, InputError, SoundnessError
from .pipeline import run_pipeline

log = logging.getLogger("imcverify")

# each subcommand: the phases it runs and its help text
_COMMANDS = {
    "run": (("abstract", "verify", "improve", "simulate"),
            "full pipeline: abstract, verify, improve, simulate"),
    "abstract": (("abstract",), "build the IMC from the config and export it"),
    "verify": (("verify",), "robust value iteration on the IMC of the config"),
    "improve": (("improve",), "the cluster pass over verify's stamped results.csv"),
    "simulate": (("simulate",), "Monte Carlo validation of the stamped result table"),
}

# the options of a plain command line, by token, and the argument each sets
_PLAIN_OPTIONS = {"-c": "config", "--config": "config", "--output-dir": "output_dir",
                  "--seed": "seed", "-v": "verbose", "--verbose": "verbose"}


def _read_plain(argv):
    """The arguments of a plain command line, as the parser returns them:
    a subcommand, then options from ``_PLAIN_OPTIONS`` with ``-c`` among
    them, each option and each value its own token, and a seed of ASCII
    digits. None for any other line, which only the parser reads: importing
    argparse and building its parsers costs a process several ms."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    args = {"command": argv[0], "phases": _COMMANDS[argv[0]][0],
            "config": None, "output_dir": None, "seed": None, "verbose": 0}
    tokens = iter(argv[1:])
    for token in tokens:
        dest = _PLAIN_OPTIONS.get(token)
        if dest == "verbose":
            args[dest] += 1
            continue
        value = next(tokens, None)
        if dest is None or value is None or value.startswith("-"):
            return None
        if dest == "seed":
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                return None
        args[dest] = value
    return None if args["config"] is None else SimpleNamespace(**args)


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # a usage error is an input error: exit code 1, not 2
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="imcverify",
        description=(
            "Sound interval Markov chain abstraction and reach-avoid "
            "verification of stochastic systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (phases, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(phases=phases)
        p.add_argument("-c", "--config", required=True, help="path to the YAML config")
        p.add_argument("--output-dir", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the Monte Carlo seed")
        p.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv) or _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        config = load_config(args.config)
        if args.output_dir is not None:  # "" would write into, and clear, the working directory
            config.output_dir = _path(args.output_dir, "--output-dir")
        if args.seed is not None:
            if args.seed < 0:
                raise InputError(f"--seed: must be an integer >= 0, got {args.seed}")
            config.monte_carlo.seed = args.seed
        summary = run_pipeline(config, phases=args.phases)
    except SoundnessError as exc:
        log.error("internal soundness error: %s", exc)
        return 2
    except (EvaluationError, ValueError) as exc:  # the input errors are ValueErrors
        log.error("%s", exc)
        return 1

    if "classification" in summary:
        counts = summary["classification"]["counts"]
        log.info(
            "states: %d (satisfies %d, violates %d, undetermined %d)",
            summary.get("states", 0),
            counts["satisfies"],
            counts["violates"],
            counts["undetermined"],
        )
    simulate_summary = summary.get("phases", {}).get("simulate")
    if simulate_summary is not None:
        log.info(
            "validation: %d cells sampled, all sound: %s",
            len(simulate_summary["validation"]),
            simulate_summary["all_sound"],
        )
    log.info("artifacts written to the configured output directory")
    verify_summary = summary.get("phases", {}).get("verify")
    return 3 if verify_summary is not None and not verify_summary["converged"] else 0


if __name__ == "__main__":
    sys.exit(main())
