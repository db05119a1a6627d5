"""Command-line harness: coherence suite, tomography, dilations, protocols.

Exit codes: 0 all checks pass, 1 a check failed, 2 a usage, IO, resource
or internal error (an enumeration bound, input nested too deeply, a field
of the wrong type, a check that would run no trial, any other exception).
All reports are canonical JSON (sorted keys), byte-stable for a fixed
configuration and seed.  A key=value config file seeds flags; explicit ones win.
Each `cmd_*` returns its report, whether its checks passed and a summary;
`main` parses the command line once (again only when the config adds flags)
and writes every report and maps every outcome to an exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import serial
from .coherence import SuiteConfig, run_suite
from .dilation import realize_instrument
from .faults import KNOWN_FAULTS
from .protocols import (
    capacity_report,
    clone_state,
    dense_coding,
    entanglement_swapping,
    hypersignaling_report,
    monogamy_demo,
)
from .serial import ParseError, dumps
from .systems import TheoryMode, leaf
from .tomography import pair_report, span_report

USAGE_ERROR = 2
CHECK_FAILED = 1
Outcome = tuple[object, bool, str]  # a command's report, pass flag and summary


def _emit(doc, out: str | None, quiet: bool, summary: str) -> None:
    text = dumps(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if not quiet and out:
        print(summary)


def _message(exc: Exception) -> str:
    """`exc` as its text, with the path of an `OSError` echoed as
    `serial.shown` echoes an input: the same text for a short path."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: {serial.shown(exc.filename)}"
    return str(exc)


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(serial.E_SCHEMA, f"bad config line {serial.shown(line)}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _dim(text: str) -> int:
    """`text` as an int; a refusal echoes it through `serial.shown`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(serial.E_SCHEMA, f"bad dim {serial.shown(text)}") from None


def _dims_list(text: str, arities: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Semicolon-separated dim tuples: at least one, each of an arity in `arities`."""
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            groups.append(tuple(map(_dim, chunk.split(","))))
    if not groups or any(len(g) not in arities for g in groups):
        raise ParseError(serial.E_SCHEMA, "need tuples of "
                         f"{' or '.join(map(str, arities))} dims, got {serial.shown(text)}")
    return groups


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_coherence(args) -> Outcome:
    kwargs = {}
    if args.dims_matrix is not None:
        tuples = _dims_list(args.dims_matrix, (3, 4))
        kwargs["pentagon_dims"] = tuple(t for t in tuples if len(t) == 4) or \
            SuiteConfig.pentagon_dims
        kwargs["hexagon_dims"] = tuple(t for t in tuples if len(t) == 3) or \
            SuiteConfig.hexagon_dims
    fault = None if args.fault in (None, "none") else args.fault
    config = SuiteConfig(mode=args.mode, seed=args.seed, fault=fault,
                         kernel_pairs=args.pairs, **kwargs)
    reports = run_suite(config)
    passed = all(r.passed for r in reports)
    doc = {"config": {"mode": args.mode.value, "seed": args.seed,
                      "fault": fault or "none"},
           "passed": passed,
           "reports": [r.to_json() for r in reports]}
    for entry in doc["reports"]:
        serial.validate_document(entry, "check_report")
    summary = f"coherence: {sum(r.passed for r in reports)}/{len(reports)} checks pass"
    return doc, passed, summary


def cmd_verify_dims(args) -> Outcome:
    if args.triples is None:  # from neither the command line nor the config
        raise ParseError(serial.E_SCHEMA, "verify-dims needs --triples TRIPLES")
    reports = []
    ok = True
    for dims in _dims_list(args.triples, (3,)):
        doc = span_report(*(leaf(d, args.mode) for d in dims))
        serial.validate_document(doc, "span_report")
        ok &= doc["delta3"] == 0 and doc["bilocal_identity_holds"]
        reports.append(doc)
    return reports, ok, f"verify-dims: {len(reports)} triples"


def cmd_tomography(args) -> Outcome:
    if args.pairs is None:  # from neither the command line nor the config
        raise ParseError(serial.E_SCHEMA, "tomography needs --pairs PAIRS")
    reports = []
    ok = True
    for dims in _dims_list(args.pairs, (2,)):
        doc = pair_report(*(leaf(d, args.mode) for d in dims))
        ok &= doc["strict_bilocality"] and doc["corollary_nab"]
        reports.append(doc)
    return reports, ok, f"tomography: {len(reports)} pairs"


def cmd_dilate(args) -> Outcome:
    doc = json.loads(Path(args.instrument).read_text(encoding="utf-8"))
    instrument = serial.instrument_from_json(doc)
    result = realize_instrument(instrument)
    out_doc = {
        "verified": result.verified,
        "sigma": serial.vector_to_json(result.sigma),
        "observation": [serial.vector_to_json(e) for e in result.observation],
        "outcomes": serial.outcomes_to_json(result.outcomes),
        "mu": {f"h={','.join(map(str, fl.h))};"
               f"xi={','.join('+' if s == 1 else '-' for s in fl.xi)}":
               serial.fraction_to_str(w) for fl, w in result.mu.items()},
    }
    serial.validate_document(out_doc, "dilation_result")
    return out_doc, result.verified, f"dilate: verified={result.verified}"


def cmd_protocol(args) -> Outcome:
    mode, name = args.mode, args.name
    if name == "dense-coding":
        report = dense_coding(mode)
    elif name == "swap":
        report = entanglement_swapping(args.i, args.j, args.s, args.k, args.l,
                                       args.t)
    elif name == "clone":
        if not args.state:
            raise ParseError(serial.E_SCHEMA, "clone needs --state FILE")
        doc = json.loads(Path(args.state).read_text(encoding="utf-8"))
        report = clone_state(serial.state_from_json(doc))
    elif name == "monogamy":
        report = monogamy_demo(mode)
    elif name == "hypersignal":
        pairs = _dims_list(args.dims, (2,))
        if len(pairs) != 1:
            raise ParseError(serial.E_SCHEMA, "hypersignal takes one pair of dims, "
                             f"got {serial.shown(args.dims)}")
        [(a, b)] = pairs
        report = hypersignaling_report(leaf(a, mode), leaf(b, mode))
    else:  # "capacity", the last name argparse allows
        report = capacity_report(args.n, mode)
    doc = report.to_json()
    serial.validate_document(doc, "protocol_report")
    return doc, report.success, f"protocol {name}: success={report.success}"


def cmd_schema(args) -> Outcome:
    return serial.schema(), True, "schema written"


# argparse's own error messages are cut after this many characters: room to
# spare for its longest text (121 characters, the subcommands' choice list)
# around one echoed value of 80, so that only a longer value is cut
_PARSER_SHOWN = 240


class _Parser(argparse.ArgumentParser):
    """argparse's parser (and, as their class, its subparsers), whose error
    message is cut after _PARSER_SHOWN characters and marked "..." where
    cut, so that no refused value of the command line is echoed whole."""

    def error(self, message: str):
        if len(message) > _PARSER_SHOWN:
            message = message[:_PARSER_SHOWN] + "..."
        super().error(message)


@functools.cache  # built on the first `main` call, then shared by every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bct",
        description="Exact checks and protocols for a bilocal classical theory.")
    parser.add_argument("--config", help="flat key=value file mirroring flags")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--mode", default="BCT", choices=["BCT", "CT", "bct", "ct"])
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    p = sub.add_parser("coherence", help="run the consistency suite")
    common(p)
    p.add_argument("--dims-matrix", help="semicolon-separated dim tuples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=_positive, default=100,
                   help="seeded kernel pairs per kernel-level check")
    p.add_argument("--fault", default="none", choices=["none", *KNOWN_FAULTS])

    p = sub.add_parser("verify-dims", help="tripartite dimension identities")
    common(p)
    p.add_argument("--triples", help='e.g. "2,2,2;2,2,3;3,3,2"')

    p = sub.add_parser("tomography", help="bipartite dimension excess reports")
    common(p)
    p.add_argument("--pairs", help='e.g. "2,2;2,3"')

    p = sub.add_parser("dilate", help="realize an instrument on the processor")
    common(p)
    p.add_argument("instrument", help="path to an instrument JSON document")

    p = sub.add_parser("protocol", help="run an information-theoretic protocol")
    common(p)
    p.add_argument("name", choices=["dense-coding", "swap", "clone", "monogamy",
                                    "hypersignal", "capacity"])
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--s", default="+")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--t", default="+")
    p.add_argument("--n", type=int, default=1, help="carriers for capacity")
    p.add_argument("--dims", default="2,2", help="pair dims for hypersignal")
    p.add_argument("--state", help="state JSON path for clone")

    p = sub.add_parser("schema", help="print the JSON schemas")
    common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extras = parser.parse_known_args(argv)
        try:
            defaults = _load_config(args.config)
        except (OSError, ValueError) as exc:  # a ParseError is a ValueError
            print(f"config error: {_message(exc)}", file=sys.stderr)
            return USAGE_ERROR
        # appended after argv, config flags land in the subcommand's scope;
        # a flag given as `--name value` or `--name=value` keeps its value
        given = {arg.partition("=")[0] for arg in argv}
        added = []
        for key, value in defaults.items():
            flag = f"--{key.replace('_', '-')}"
            if flag not in given:
                added += [flag, value]
        if added and args.command is not None:
            args, extras = parser.parse_known_args(argv + added)
        if extras:  # the message `parse_args` gives
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit:
        return USAGE_ERROR
    if not args.command:
        parser.print_usage()
        return USAGE_ERROR
    # argparse before 3.12 reads `--flag=--` as an empty list, not a value
    if any(isinstance(value, list) for value in vars(args).values()):
        print("error: '--' is not a flag's value", file=sys.stderr)
        return USAGE_ERROR
    args.mode = TheoryMode(args.mode.upper())
    # looked up per call, not bound into the shared parser
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        doc, passed, summary = command(args)
        _emit(doc, args.out, args.quiet, summary)
    except ParseError as exc:
        print(f"error {exc}", file=sys.stderr)  # its text starts with its code
        return USAGE_ERROR
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a crash is never reported as a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if passed else CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
