"""Command-line front end.

Subcommands: `conclusions`, `transform`, `check`, `classify`, `gen`.
Input is a `.dfl` file path or `-` for stdin.  Exit codes: 0 success (or
checked property holds), 1 checked property fails, 2 parse error, 3
precondition or semantic error.  All report metadata is emitted as `%`
comments so outputs remain parseable `.dfl` streams, and every subcommand
is deterministic.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .core import (
    Atom,
    DeflogError,
    Literal,
    Theory,
    check_normal,
    check_well_formed,
    ground,
)
from .parser import ParseError, parse, parse_atoms, print_theory

# `engine`, `transform` and `analysis` are imported by the subcommands that
# call them, so a process pays only for the subcommand it runs.

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_PARSE_ERROR = 2
EXIT_PRECONDITION = 3

def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path: str, allow_generated: bool) -> Theory:
    return parse(_read_source(path), allow_generated=allow_generated)


def _atoms(listing: str | None, flag: str, allow_generated: bool) -> list[Atom]:
    try:
        return parse_atoms(listing or "", allow_generated=allow_generated)
    except ParseError as exc:
        raise ParseError(f"in {flag}: {exc.message}", exc.line, exc.col) from None


def _prepare(theory: Theory, do_ground: bool) -> Theory:
    if do_ground:
        return ground(theory)
    if not theory.is_ground:
        raise DeflogError("theory is not ground (pass --ground to expand schemas)")
    return theory


def _cmd_conclusions(args: argparse.Namespace) -> int:
    from .engine import Mode, conclusions

    theory = _prepare(_load(args.input, args.allow_generated), args.ground)
    result = conclusions(theory, Mode(args.mode),
                         extra_atoms=_atoms(args.atoms, "--atoms", args.allow_generated))
    # The theory keeps its solve; free both before the listing is built.
    del theory
    # One write: an unbuffered stdout makes every `print` a system call.
    sys.stdout.write("\n".join([*result.lines(), ""]))
    return EXIT_OK


def _cmd_transform(args: argparse.Namespace) -> int:
    from . import transform

    theory = _load(args.input, args.allow_generated)
    # Each `--stage` runs the `deflog.transform` function it names, `-` read as `_`.
    result, report = getattr(transform, args.stage.replace("-", "_"))(theory)
    sys.stdout.write(print_theory(result))
    if args.report:
        print(f"% input: facts={report.input_facts} rules={report.input_rules}"
              f" superiority={report.input_superiority} size={report.input_size}")
        print(f"% output: facts={report.output_facts} rules={report.output_rules}"
              f" superiority={report.output_superiority} size={report.output_size}")
        print(f"% growth-factor: {report.growth_factor:.3f}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    theory = _load(args.input, args.allow_generated)
    if args.what == "well-formed":
        report = check_well_formed(theory)
        if not report.acyclic:
            print("cyclic superiority")
        if not report.complementary:
            print("superiority between rules with non-complementary heads")
        print(f"well-formed: {'yes' if report.ok else 'no'}")
        return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS
    if args.what == "normal":
        report = check_normal(theory)
        print(f"literal rule condition: {'yes' if report.literal_rule_condition else 'no'}")
        print(f"no strict rule in superiority: {'yes' if report.no_strict_in_sup else 'no'}")
        print(f"no facts: {'yes' if report.no_facts else 'no'}")
        print(f"normal form: {'yes' if report.ok else 'no'}")
        return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS
    # equiv
    from .analysis import equivalent

    if not args.other:
        raise DeflogError("check --what equiv needs a second theory file")
    other = _load(args.other, True)
    sigma = _atoms(args.sigma, "--sigma", args.allow_generated)
    same = equivalent(theory, other, sigma or None)
    shown = ",".join(sorted(map(str, sigma))) if sigma else "common language"
    print(f"equivalent over {shown}: {'yes' if same else 'no'}")
    return EXIT_OK if same else EXIT_PROPERTY_FAILS


def _cmd_classify(args: argparse.Namespace) -> int:
    from .analysis import classify_pair
    from .engine import Mode, conclusions

    theory = _prepare(_load(args.input, args.allow_generated), args.ground)
    named = _atoms(args.atom, "--atom", args.allow_generated)
    if len(named) != 1:
        raise ParseError("in --atom: expected exactly one atom", 1, 1)
    atom = named[0]
    extra = _atoms(args.atoms, "--atoms", args.allow_generated)
    if atom not in theory.atoms and atom not in extra:
        raise DeflogError(f"unknown atom: {atom}")
    verdict = classify_pair(conclusions(theory, Mode.FULL, extra_atoms=extra), Literal(atom))
    print(f"{atom}: {verdict.outcome_p.value} ~{atom}: {verdict.outcome_not_p.value}"
          f" pair: {verdict.status.value}")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    from .analysis import gen_theory

    theory = gen_theory(
        args.seed,
        num_atoms=args.num_atoms,
        num_rules=args.num_rules,
        num_facts=args.num_facts,
        defeater_fraction=args.defeater_fraction,
        strict_fraction=args.strict_fraction,
        sup_density=args.sup_density,
        force_acyclic=args.force_acyclic,
        force_well_formed=args.force_well_formed,
        force_normalized=args.force_normalized,
    )
    sys.stdout.write(print_theory(theory))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deflog",
        description="Defeasible logic toolkit: conclusions, transformations, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="path to a .dfl file, or - for stdin")
        p.add_argument("--allow-generated", action="store_true",
                       help="accept $-symbols (reading back transformed theories)")

    p = sub.add_parser("conclusions", help="compute all conclusions")
    add_input(p)
    p.add_argument("--mode", choices=["full", "reduced"], default="full")
    p.add_argument("--ground", action="store_true", help="expand rule schemas first")
    p.add_argument("--atoms", help="comma-separated extra atoms to include in the language")
    p.set_defaults(func=_cmd_conclusions)

    p = sub.add_parser("transform", help="apply a transformation stage")
    add_input(p)
    p.add_argument("--stage", choices=["elim-dft", "elim-sup", "normal", "pipeline"],
                   required=True)
    p.add_argument("--report", action="store_true",
                   help="append size accounting as % comments")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("check", help="check a property of one or two theories")
    add_input(p)
    p.add_argument("--what", choices=["well-formed", "normal", "equiv"], required=True)
    p.add_argument("other", nargs="?", help="second theory (for --what equiv)")
    p.add_argument("--sigma", help="comma-separated atoms defining the language")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="outcome of an atom and its negation")
    add_input(p)
    p.add_argument("--atom", required=True)
    p.add_argument("--ground", action="store_true", help="expand rule schemas first")
    p.add_argument("--atoms", help="comma-separated extra atoms to include in the language")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gen", help="generate a seeded random theory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--num-atoms", type=int, default=6)
    p.add_argument("--num-rules", type=int, default=10)
    p.add_argument("--num-facts", type=int, default=0)
    p.add_argument("--defeater-fraction", type=float, default=0.0)
    p.add_argument("--strict-fraction", type=float, default=0.0)
    p.add_argument("--sup-density", type=float, default=0.0)
    p.add_argument("--force-acyclic", action="store_true")
    p.add_argument("--force-well-formed", action="store_true")
    p.add_argument("--force-normalized", action="store_true")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (DeflogError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def run() -> None:
    """Process entry point of `deflog` and `python -m deflog.cli`.

    One CLI run leaves a fixed amount of cyclic garbage (argparse's parser
    graph) whatever its input, so the process runs `main` with the cyclic
    collector off and, before exiting, freezes the heap: CPython's last
    collection at shutdown skips frozen objects.  `main` itself leaves the
    collector as it found it, for tests and embedders that call it.
    """
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
