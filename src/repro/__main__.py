"""Command-line verification: ``python -m repro PRE PROGRAM POST``.

Verifies one hyper-triple through a :class:`repro.api.Session` backend
chain and exits with the verdict:

- ``0`` — verified,
- ``1`` — refuted (a counterexample is printed),
- ``2`` — undecided (every backend passed or ran out of budget),
- ``3`` — bad input (parse error, unknown option).

Example::

    python -m repro \\
        "forall <a>, <b>. a(l) == b(l)" \\
        "y := nonDet(); l := h xor y" \\
        "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"

Program variables default to those read or written by the program plus
those mentioned by the assertions; override with ``--vars``.

A third mode, ``python -m repro serve``, runs the persistent
verification service (:mod:`repro.serve`): a long-lived daemon that
accepts task wire documents over a socket, dispatches verification to a
worker pool, and answers already-seen tasks from a content-addressed
on-disk result store without re-verifying.

A second mode, ``python -m repro fuzz --seed S --trials N``, runs the
differential conformance harness (:mod:`repro.conformance`) over seeded
random triples instead: exit code ``0`` means every backend agreed on
every trial, ``1`` means a cross-backend disagreement was found (a
shrunk minimal reproducer is printed).  The trial log for a seed is
byte-for-byte reproducible; add ``--shards K`` to fan the trials out
over worker processes without changing it.

Both modes accept ``--json``: instead of the human-readable log, stdout
carries one :mod:`repro.codec` wire document (a ``task-result`` or a
``fuzz-report``, stamped with ``schema_version``) that
``repro.from_wire`` — in any process, on any machine — decodes back to
the full result object, proof trees and witnesses included.  Exit codes
are unchanged.
"""

import argparse
import json
import sys

from .api.session import Session
from .api.task import infer_variables as _infer_vars
from .assertions.parser import parse_assertion
from .errors import ReproError
from .lang.parser import parse_command

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_UNDECIDED = 2
EXIT_BAD_INPUT = 3


def _split_names(text):
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _parse_budgets(entries):
    budgets = {}
    for entry in entries:
        name, _, seconds = entry.partition("=")
        if not name or not seconds:
            raise ValueError("--budget expects NAME=SECONDS, got %r" % entry)
        budgets[name] = float(seconds)
    return budgets


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Verify a Hyper Hoare Logic triple {PRE} PROGRAM {POST}; "
        "the exit code is the verdict (0 verified, 1 refuted, 2 undecided).",
    )
    parser.add_argument("pre", help="precondition (hyper-assertion syntax)")
    parser.add_argument("program", help="program (command syntax)")
    parser.add_argument("post", help="postcondition (hyper-assertion syntax)")
    parser.add_argument(
        "--vars",
        help="comma-separated program variables (default: inferred from the triple)",
    )
    parser.add_argument(
        "--lvars",
        help="comma-separated logical variables (default: inferred)",
    )
    parser.add_argument("--lo", type=int, default=0, help="domain lower bound")
    parser.add_argument("--hi", type=int, default=1, help="domain upper bound")
    parser.add_argument(
        "--entailment",
        choices=("sat", "brute"),
        default="sat",
        help="entailment oracle method (default: sat)",
    )
    parser.add_argument(
        "--invariant",
        help="loop invariant annotation (routes while-programs through the "
        "Fig. 5 loop backend)",
    )
    parser.add_argument(
        "--max-set-size",
        type=int,
        help="cap oracle initial-set sizes (under-approximate on large universes)",
    )
    parser.add_argument(
        "--budget",
        action="append",
        default=[],
        metavar="NAME=SECONDS",
        help="per-backend wall-clock budget (repeatable), e.g. exhaustive=2.5",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress output; exit code only"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the result as a repro.codec wire document (a task-result "
        "with schema_version) on stdout instead of the human-readable log; "
        "exit codes are unchanged",
    )
    return parser


def build_fuzz_parser():
    from .conformance import CHECK_KINDS

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Differentially fuzz every verification backend on seeded "
        "random triples; the exit code is the verdict (0 all backends agree, "
        "1 disagreement found).",
    )
    parser.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    parser.add_argument(
        "--trials",
        type=int,
        help="number of trials (default 200, or 40 with --quick)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 40 trials unless --trials is given explicitly",
    )
    parser.add_argument(
        "--shards",
        type=int,
        help="fan trials out over this many worker processes (default: inline)",
    )
    parser.add_argument(
        "--vars",
        default="x,y",
        help="comma-separated program variables of the fuzz universe (default x,y)",
    )
    parser.add_argument("--lo", type=int, default=0, help="domain lower bound")
    parser.add_argument(
        "--hi",
        type=int,
        default=1,
        help="domain upper bound (keep tiny: the naive reference oracle "
        "re-executes sem per candidate set)",
    )
    parser.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the HL/IL embedding judgments (two oracle runs per trial)",
    )
    parser.add_argument(
        "--checks",
        help="comma-separated check selectors, matched as substrings against "
        "the per-trial check kinds (%s); prefix a selector with '-' to "
        "exclude instead, e.g. --checks compiled or --checks=-embedding; "
        "--checks list prints the known kinds and exits (default: run all %d)"
        % (", ".join(CHECK_KINDS), len(CHECK_KINDS)),
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="print the known check kinds, one per line, and exit 0",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the per-trial log"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the fuzz report as a repro.codec wire document (a "
        "fuzz-report with schema_version) on stdout instead of the trial "
        "log and summary; exit codes are unchanged",
    )
    return parser


def fuzz_main(argv):
    from .conformance import CHECK_KINDS, run_fuzz
    from .gen import GenConfig

    parser = build_fuzz_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0

    trials = args.trials if args.trials is not None else (40 if args.quick else 200)
    if args.list_checks or args.checks == "list":
        for kind in CHECK_KINDS:
            print(kind)
        return 0
    checks = _split_names(args.checks) if args.checks else None
    try:
        if trials < 1:
            raise ValueError("--trials must be >= 1, got %d" % trials)
        for selector in checks or ():
            needle = selector[1:] if selector.startswith("-") else selector
            if not any(needle in kind for kind in CHECK_KINDS):
                raise ValueError(
                    "--checks selector %r matches no check kind (known: %s)"
                    % (selector, ", ".join(CHECK_KINDS))
                )
        config = GenConfig(
            pvars=_split_names(args.vars),
            lo=args.lo,
            hi=args.hi,
            max_command_depth=2,
            max_assertion_depth=2,
        )

        def stream(outcome):
            if not (args.quiet or args.json):
                print(outcome.describe_line())

        report = run_fuzz(
            args.seed,
            trials,
            config=config,
            shards=args.shards,
            embeddings=not args.no_embeddings,
            on_outcome=stream,
            checks=checks,
        )
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.json:
        print(json.dumps(report.to_wire(), sort_keys=True))
    else:
        print(report.summary())
        print(
            "elapsed: %.3fs (%d shards, %.1f trials/s)"
            % (report.elapsed, report.shards, trials / report.elapsed if report.elapsed else 0.0)
        )
    return EXIT_VERIFIED if report.agreed else EXIT_REFUTED


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "serve":
        from .serve.cli import serve_main

        return serve_main(argv[1:])
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0

    # Bound before the try body: the KeyError handler below reports the
    # universe variables, and a KeyError escaping *before* inference
    # (e.g. out of a parser) must not turn into a NameError that masks
    # the real problem.
    pvars = ()
    lvars = ()
    try:
        budgets = _parse_budgets(args.budget)
        command = parse_command(args.program)
        assertions = [parse_assertion(args.pre), parse_assertion(args.post)]
        if args.invariant:
            assertions.append(parse_assertion(args.invariant))
        inferred_pvars, inferred_lvars = _infer_vars(command, assertions)
        pvars = _split_names(args.vars) if args.vars else inferred_pvars
        lvars = _split_names(args.lvars) if args.lvars else inferred_lvars

        session = Session(
            pvars,
            lo=args.lo,
            hi=args.hi,
            lvars=lvars,
            entailment=args.entailment,
            budgets=budgets,
            max_set_size=args.max_set_size,
        )
        result = session.verify(
            args.pre, args.program, args.post, invariant=args.invariant
        )
    except KeyError as err:
        # A raw KeyError escaping the evaluator means an assertion names
        # a variable outside the declared universe.
        print(
            "error: unknown variable %s — not among the universe variables %r "
            "(adjust --vars/--lvars)" % (err, list(pvars) + list(lvars)),
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    except (ReproError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_BAD_INPUT

    if args.json:
        print(json.dumps(result.to_wire(), sort_keys=True))
    elif not args.quiet:
        verdict = {True: "verified", False: "refuted", None: "undecided"}[
            result.verdict
        ]
        print("%s (method: %s, %.3fs)" % (verdict, result.method, result.elapsed))
        for outcome in result.outcomes:
            print("  %r" % (outcome,))
        if result.counterexample:
            print(result.counterexample)
        for assumption in result.assumptions:
            print("  assumed: %s" % assumption)

    if result.verified:
        return EXIT_VERIFIED
    if result.refuted:
        return EXIT_REFUTED
    return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
