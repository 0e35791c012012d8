"""Command-line front end and flat-file formats for ray sets and inequalities.

The ray-set format is line oriented: a header ``ksset 1``, then ``name``,
``dim`` and ``scalar`` directives, then one ``ray`` line per ray.  Exact
components are written ``a`` or ``a:b`` (meaning a + b*sqrt(m) for the
declared discriminant m); numeric components are plain floats.  ``#`` starts
a comment.  Files re-emitted by :func:`emit_rayset` are in canonical form:
directives in a fixed order and every ray canonicalized.

The inequality format lists ``term <i> <w_i>`` and ``edge <i> <j> <w_ij>``
lines followed by ``classical_bound`` and ``quantum_value``; it round-trips
losslessly through :func:`parse_inequality`.

Subcommands: ``verify``, ``inequality``, ``evaluate``, ``info``, ``prune``,
``catalog list`` and ``catalog get``.  Exit codes: 0 on success (for
``verify``: the set is a KS set), 1 when ``verify`` finds a coloring, 2 on
I/O, parse, or usage errors.  Random evaluation is seeded via ``--seed``,
the ``KS_CERTIFY_SEED`` environment variable, or 0, in that order.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Sequence, TextIO

from .algebra import RayVector
from .catalog import catalog_entries, get_entry, load_text
from .coloring import DefinitionMode, check_colorable
from .inequality import (
    Inequality,
    StateSpec,
    build_inequality,
    pruned_weights,
    quantum_value,
)
from .rayset import (
    DuplicateRayError,
    ProblemInstance,
    RaySet,
    ScalarMode,
    build_instance,
    covered_vertices,
    prune_unbased,
    validate_rayset,
)

FORMAT_HEADER = "ksset 1"
SEED_ENV_VAR = "KS_CERTIFY_SEED"

_EXACT_COMPONENT = re.compile(r"^([+-]?\d+)(?::([+-]?\d+))?$")


class ParseError(ValueError):
    """A malformed line in a ray-set or inequality file."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _significant_lines(text: str) -> list[tuple[int, str]]:
    """Strip comments and blanks; yield (1-based line number, content)."""
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            lines.append((number, content))
    return lines


def _parse_exact_component(token: str, number: int) -> tuple[int, int]:
    # str.isdecimal accepts exactly the characters that \d matches.
    if (token[1:] if token[0] in "+-" else token).isdecimal():
        return int(token), 0
    match = _EXACT_COMPONENT.match(token)
    if match is None:
        raise ParseError(number, f"bad component {token!r}; expected 'a' or 'a:b'")
    rat = int(match.group(1))
    irr = int(match.group(2)) if match.group(2) is not None else 0
    return rat, irr


def parse_rayset(text: str) -> RaySet:
    """Parse ray-set file text into a validated, canonicalized RaySet.

    Raises ParseError (naming the offending line) for an unknown header,
    unknown or repeated directives, a dimension below 3, bad component
    syntax, a wrong component count, or a zero or non-finite ray, and
    re-raises duplicate-ray errors from validation with the line number of
    the second copy.
    """
    lines = _significant_lines(text)
    if not lines:
        raise ParseError(1, "empty file; expected header 'ksset 1'")
    header_number, header = lines[0]
    if header != FORMAT_HEADER:
        raise ParseError(header_number, f"unknown format version {header!r}; expected 'ksset 1'")

    name: str | None = None
    dimension: int | None = None
    mode: ScalarMode | None = None
    rays: list[RayVector] = []
    ray_lines: list[int] = []

    for number, content in lines[1:]:
        tokens = content.split()
        keyword = tokens[0]
        if keyword == "name":
            if name is not None:
                raise ParseError(number, "repeated 'name' directive")
            if len(tokens) < 2:
                raise ParseError(number, "'name' directive needs a value")
            name = " ".join(tokens[1:])
        elif keyword == "dim":
            if dimension is not None:
                raise ParseError(number, "repeated 'dim' directive")
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(number, "'dim' directive needs one integer")
            dimension = int(tokens[1])
            if dimension < 3:
                raise ParseError(number, f"dimension {dimension} is below 3")
        elif keyword == "scalar":
            if mode is not None:
                raise ParseError(number, "repeated 'scalar' directive")
            if len(tokens) == 2 and tokens[1] == "int":
                mode = ScalarMode.integer()
            elif len(tokens) == 3 and tokens[1] == "quad":
                try:
                    mode = ScalarMode.exact(int(tokens[2]))
                except ValueError as exc:
                    raise ParseError(number, str(exc)) from exc
            elif len(tokens) == 3 and tokens[1] == "numeric":
                try:
                    tol = float(tokens[2])
                except ValueError as exc:
                    raise ParseError(number, f"bad tolerance {tokens[2]!r}") from exc
                try:
                    mode = ScalarMode.numeric(tol)
                except ValueError as exc:
                    raise ParseError(number, str(exc)) from exc
            else:
                raise ParseError(
                    number,
                    "'scalar' directive must be 'int', 'quad <m>' or 'numeric <tol>'",
                )
        elif keyword == "ray":
            if dimension is None:
                raise ParseError(number, "'ray' line before 'dim' directive")
            if mode is None:
                raise ParseError(number, "'ray' line before 'scalar' directive")
            components = tokens[1:]
            if len(components) != dimension:
                raise ParseError(
                    number,
                    f"expected {dimension} components, got {len(components)}",
                )
            try:
                if mode.is_exact:
                    coords = tuple(_parse_exact_component(tok, number) for tok in components)
                else:
                    coords = tuple(float(tok) for tok in components)
                ray = RayVector(coords, mode.disc)
            except ParseError:
                raise
            except ValueError as exc:
                raise ParseError(number, str(exc)) from exc
            rays.append(ray)
            ray_lines.append(number)
        else:
            raise ParseError(number, f"unknown directive {keyword!r}")

    if dimension is None:
        raise ParseError(lines[-1][0], "missing 'dim' directive")
    if mode is None:
        raise ParseError(lines[-1][0], "missing 'scalar' directive")
    if not rays:
        raise ParseError(lines[-1][0], "no 'ray' lines")
    try:
        return validate_rayset(rays, name=name or "unnamed", mode=mode)
    except DuplicateRayError as exc:
        raise ParseError(ray_lines[exc.index_b], str(exc)) from exc


def _format_exact(pair: tuple[int, int]) -> str:
    rat, irr = pair
    return str(rat) if irr == 0 else f"{rat}:{irr}"


def _format_scalar_mode(mode: ScalarMode) -> str:
    if mode.is_exact:
        return "scalar int" if mode.disc == 1 else f"scalar quad {mode.disc}"
    return f"scalar numeric {mode.tol!r}"


def _ray_text(rayset: RaySet, index: int) -> str:
    ray = rayset.rays[index]
    if rayset.mode.is_exact:
        return " ".join(_format_exact(c) for c in ray.coords)
    return " ".join(repr(c) for c in ray.coords)


def emit_rayset(rayset: RaySet) -> str:
    """Serialize a RaySet in canonical form; inverse of parse_rayset."""
    lines = [FORMAT_HEADER, f"name {rayset.name}", f"dim {rayset.dimension}"]
    lines.append(_format_scalar_mode(rayset.mode))
    lines.extend(f"ray {_ray_text(rayset, i)}" for i in range(len(rayset.rays)))
    return "\n".join(lines) + "\n"


def parse_inequality(text: str) -> Inequality:
    """Parse inequality file text; inverse of emit_inequality, so a line
    that it never writes raises ParseError."""
    terms: dict[int, int] = {}
    edges: dict[tuple[int, int], int] = {}
    bounds: dict[str, int] = {}
    for number, content in _significant_lines(text):
        tokens = content.split()
        keyword = tokens[0]
        try:
            if keyword == "term" and len(tokens) == 3:
                index, weight = int(tokens[1]), int(tokens[2])
                if index in terms:
                    raise ParseError(number, f"repeated term for vertex {index}")
                if weight < 0:
                    raise ParseError(number, f"negative weight {weight} for vertex {index}")
                terms[index] = weight
            elif keyword == "edge" and len(tokens) == 4:
                i, j, weight = int(tokens[1]), int(tokens[2]), int(tokens[3])
                if i >= j:
                    raise ParseError(number, f"edge ({i}, {j}) is not an ordered vertex pair")
                if (i, j) in edges:
                    raise ParseError(number, f"repeated edge ({i}, {j})")
                edges[i, j] = weight
            elif keyword in ("classical_bound", "quantum_value") and len(tokens) == 2:
                if keyword in bounds:
                    raise ParseError(number, f"repeated '{keyword}' line")
                bounds[keyword] = int(tokens[1])
            else:
                raise ParseError(number, f"unrecognized line {content!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
    if len(bounds) < 2:
        raise ParseError(1, "missing 'classical_bound' or 'quantum_value' line")
    if not terms:
        raise ParseError(1, "no 'term' lines")
    if sorted(terms) != list(range(len(terms))):
        raise ParseError(1, "term vertex indices must cover 0..n-1")
    weights = tuple(terms[i] for i in range(len(terms)))
    for i, j in edges:
        if i < 0 or j >= len(weights):
            raise ParseError(1, f"edge ({i}, {j}) references an unknown vertex")
    return Inequality(
        vertex_weights=weights,
        edge_terms=tuple(sorted((i, j, w) for (i, j), w in edges.items())),
        classical_bound=bounds["classical_bound"],
        quantum_value=bounds["quantum_value"],
    )


def emit_inequality(inequality: Inequality) -> str:
    """Serialize an inequality: term lines, edge lines, then the two bounds."""
    lines = [
        f"term {i} {w}" for i, w in enumerate(inequality.vertex_weights)
    ]
    lines.extend(f"edge {i} {j} {w}" for i, j, w in inequality.edge_terms)
    lines.append(f"classical_bound {inequality.classical_bound}")
    lines.append(f"quantum_value {inequality.quantum_value}")
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_instance(path: str) -> ProblemInstance:
    return build_instance(parse_rayset(_read_text(path)))


def _resolve_seed(flag_value: int | None) -> int:
    """The seed from ``--seed``, else ``KS_CERTIFY_SEED``, else 0; raises
    ValueError, naming where it came from, unless it is an int >= 0."""
    if flag_value is not None:
        source, value = "--seed", flag_value
    else:
        source, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(value)
    except ValueError as exc:
        raise ValueError(f"bad {SEED_ENV_VAR} value {value!r}") from exc
    if seed < 0:
        raise ValueError(f"{source} {seed} is negative; a seed must be >= 0")
    return seed


def _print_instance_summary(instance: ProblemInstance, out: TextIO) -> None:
    rayset = instance.rayset
    print(f"name {rayset.name}", file=out)
    print(f"dimension {rayset.dimension}", file=out)
    print(f"rays {len(rayset.rays)}", file=out)
    print(f"edges {len(instance.graph.edges)}", file=out)
    print(f"bases {instance.n_bases}", file=out)


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    instance = _load_instance(args.file)
    mode = DefinitionMode[args.mode.upper()]
    result = check_colorable(instance, mode)
    _print_instance_summary(instance, out)
    print(f"mode {args.mode}", file=out)
    print(f"nodes_explored {result.nodes_explored}", file=out)
    if not result.colorable:
        print("KS", file=out)
        return 0
    print("COLORABLE", file=out)
    witness = result.witness
    print("witness " + " ".join(str(v) for v in witness), file=out)
    for index, value in enumerate(witness):
        if value == 1:
            print(f"one {index} ray {_ray_text(instance.rayset, index)}", file=out)
    return 1


def _cmd_inequality(args: argparse.Namespace, out: TextIO) -> int:
    instance = _load_instance(args.file)
    inequality = build_inequality(instance)
    text = emit_inequality(inequality)
    if args.out is None:
        out.write(text)
        return 0
    _write_text(args.out, text)
    _print_instance_summary(instance, out)
    print(f"classical_bound {inequality.classical_bound}", file=out)
    print(f"quantum_value {inequality.quantum_value}", file=out)
    print(f"gap {inequality.gap}", file=out)
    print(f"original_ks {'yes' if inequality.is_original_ks else 'no'}", file=out)
    print(f"written {args.out}", file=out)
    return 0


def _cmd_evaluate(args: argparse.Namespace, out: TextIO) -> int:
    # Every argument is checked before the first line is printed.
    if args.trials < 1:
        raise ValueError(f"--trials {args.trials} is below 1")
    seed = _resolve_seed(args.seed) if args.state == "random" else None
    instance = _load_instance(args.file)
    weights = pruned_weights(instance)
    print(f"name {instance.rayset.name}", file=out)
    print(f"state {args.state}", file=out)
    print(f"trials {args.trials}", file=out)
    if args.state == "random":
        print(f"seed {seed}", file=out)
        states = [StateSpec.random_pure(seed + k) for k in range(args.trials)]
    else:
        states = [StateSpec.maximally_mixed() for _ in range(args.trials)]
    print(f"quantum_value {instance.n_bases}", file=out)
    deviation = 0.0
    for k, state in enumerate(states):
        value = quantum_value(instance, weights, state)
        deviation = max(deviation, abs(value - instance.n_bases))
        print(f"trial {k} {value!r}", file=out)
    print(f"max_deviation {deviation!r}", file=out)
    return 0


def _cmd_info(args: argparse.Namespace, out: TextIO) -> int:
    instance = _load_instance(args.file)
    rayset = instance.rayset
    _print_instance_summary(instance, out)
    print(_format_scalar_mode(rayset.mode), file=out)
    covered = set(covered_vertices(instance))
    print(f"based_rays {len(covered)}", file=out)
    for index in range(len(rayset.rays)):
        based = "yes" if index in covered else "no"
        print(f"ray {index} {_ray_text(rayset, index)} based {based}", file=out)
    return 0


def _cmd_prune(args: argparse.Namespace, out: TextIO) -> int:
    instance = _load_instance(args.file)
    pruned = prune_unbased(instance)
    text = emit_rayset(pruned.rayset)
    removed = instance.graph.vertex_count - pruned.graph.vertex_count
    if args.out is None:
        out.write(text)
        print(f"removed {removed} rays", file=sys.stderr)
        return 0
    _write_text(args.out, text)
    _print_instance_summary(pruned, out)
    print(f"removed {removed}", file=out)
    print(f"written {args.out}", file=out)
    return 0


def _cmd_catalog(args: argparse.Namespace, out: TextIO) -> int:
    if args.catalog_command == "list":
        for entry in catalog_entries():
            verdicts = (
                f"original_ks={'yes' if entry.original_ks else 'no'} "
                f"extended_ks={'yes' if entry.extended_ks else 'no'}"
            )
            print(
                f"{entry.id} dim={entry.dimension} rays={entry.ray_count} {verdicts}",
                file=out,
            )
        return 0
    entry = get_entry(args.id)
    out.write(load_text(entry.id))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later commands
    (each ``parse_args`` call fills a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="kscertify",
        description="Certify Kochen-Specker ray sets and synthesize their inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="decide KS status under a definition mode")
    verify.add_argument("file")
    verify.add_argument("--mode", choices=("original", "extended"), default="original")

    inequality = sub.add_parser("inequality", help="synthesize the weighted inequality")
    inequality.add_argument("file")
    inequality.add_argument("--out", default=None)

    evaluate = sub.add_parser("evaluate", help="evaluate the quantum value on states")
    evaluate.add_argument("file")
    evaluate.add_argument("--state", choices=("mixed", "random"), default="mixed")
    evaluate.add_argument("--trials", type=int, default=1)
    evaluate.add_argument("--seed", type=int, default=None)

    info = sub.add_parser("info", help="summarize a ray-set file")
    info.add_argument("file")

    prune = sub.add_parser("prune", help="drop rays outside every complete basis")
    prune.add_argument("file")
    prune.add_argument("--out", default=None)

    catalog = sub.add_parser("catalog", help="bundled reference ray sets")
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_sub.add_parser("list", help="list catalog entries")
    catalog_get = catalog_sub.add_parser("get", help="print a catalog file")
    catalog_get.add_argument("id")

    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "inequality": _cmd_inequality,
    "evaluate": _cmd_evaluate,
    "info": _cmd_info,
    "prune": _cmd_prune,
    "catalog": _cmd_catalog,
}


def run_command(argv: Sequence[str], out: TextIO | None = None) -> int:
    """Run one subcommand; return the exit status without exiting."""
    if out is None:
        out = sys.stdout
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
