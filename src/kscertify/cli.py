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
import math
import os
import re
import sys
from typing import Sequence, TextIO

from .algebra import QuadScalar, RayVector, numeric_ray
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


class _Scalars(dict):
    """The coordinates of one parse, each distinct (rat, irr) pair built once
    as a QuadScalar (whose constructor checks the discriminant)."""

    def __init__(self, disc: int) -> None:
        super().__init__()
        self.disc = disc

    def __missing__(self, pair: tuple[int, int]) -> QuadScalar:
        scalar = self[pair] = QuadScalar(pair[0], pair[1], self.disc)
        return scalar


def _parse_exact_ray(tokens: list[str], number: int, scalars: _Scalars) -> RayVector:
    """One exact ray, put in canonical form on its integer pairs.

    The same ray as ``canonicalize_ray(exact_ray(pairs, disc))``: under
    ``scalar int`` an ``a:b`` component is folded to a + b first, then the
    pairs are divided by their gcd, signed so that the first nonzero pair is
    positive.
    """
    parts = [_parse_exact_component(tok, number) for tok in tokens]
    if scalars.disc == 1:
        parts = [(a + b, 0) for a, b in parts]
    scalars[0, 0]  # the first ray of a parse checks the discriminant here
    g = math.gcd(*(v for pair in parts for v in pair))
    if g == 0:
        raise ParseError(number, "zero vector is not a ray")
    if next(pair for pair in parts if pair != (0, 0)) < (0, 0):
        g = -g
    if g != 1:
        parts = [(a // g, b // g) for a, b in parts]
    return RayVector(tuple(map(scalars.__getitem__, parts)))


def parse_rayset(text: str) -> RaySet:
    """Parse ray-set file text into a validated, canonicalized RaySet.

    Raises ParseError (naming the offending line) for an unknown header,
    unknown or repeated directives, bad component syntax, or a wrong
    component count, and re-raises duplicate-ray errors from validation
    with the line number of the second copy.
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
    scalars: _Scalars | None = None

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
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError(number, "'dim' directive needs one integer")
            dimension = int(tokens[1])
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
            scalars = _Scalars(mode.disc) if mode.is_exact else None
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
                    ray = _parse_exact_ray(components, number, scalars)
                else:
                    ray = numeric_ray([float(tok) for tok in components])
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
    except ValueError as exc:
        indices = getattr(exc, "index_b", None)
        if indices is not None:
            raise ParseError(ray_lines[indices], str(exc)) from exc
        raise


def _format_exact(coord) -> str:
    if coord.irr_part == 0:
        return str(coord.rat_part)
    return f"{coord.rat_part}:{coord.irr_part}"


def _format_scalar_mode(mode: ScalarMode) -> str:
    if mode.is_exact:
        return "scalar int" if mode.disc == 1 else f"scalar quad {mode.disc}"
    return f"scalar numeric {mode.tol!r}"


def emit_rayset(rayset: RaySet) -> str:
    """Serialize a RaySet in canonical form; inverse of parse_rayset."""
    lines = [FORMAT_HEADER, f"name {rayset.name}", f"dim {rayset.dimension}"]
    lines.append(_format_scalar_mode(rayset.mode))
    for ray in rayset.rays:
        if rayset.mode.is_exact:
            parts = " ".join(_format_exact(c) for c in ray.coords)
        else:
            parts = " ".join(repr(c) for c in ray.coords)
        lines.append(f"ray {parts}")
    return "\n".join(lines) + "\n"


def parse_inequality(text: str) -> Inequality:
    """Parse inequality file text; inverse of emit_inequality."""
    terms: dict[int, int] = {}
    edges: list[tuple[int, int, int]] = []
    classical: int | None = None
    quantum: int | None = None
    for number, content in _significant_lines(text):
        tokens = content.split()
        keyword = tokens[0]
        try:
            if keyword == "term" and len(tokens) == 3:
                index, weight = int(tokens[1]), int(tokens[2])
                if index in terms:
                    raise ParseError(number, f"repeated term for vertex {index}")
                terms[index] = weight
            elif keyword == "edge" and len(tokens) == 4:
                edges.append((int(tokens[1]), int(tokens[2]), int(tokens[3])))
            elif keyword == "classical_bound" and len(tokens) == 2:
                classical = int(tokens[1])
            elif keyword == "quantum_value" and len(tokens) == 2:
                quantum = int(tokens[1])
            else:
                raise ParseError(number, f"unrecognized line {content!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
    if classical is None or quantum is None:
        raise ParseError(1, "missing 'classical_bound' or 'quantum_value' line")
    if not terms:
        raise ParseError(1, "no 'term' lines")
    if sorted(terms) != list(range(len(terms))):
        raise ParseError(1, "term vertex indices must cover 0..n-1")
    weights = tuple(terms[i] for i in range(len(terms)))
    for i, j, _ in edges:
        if not (0 <= i < len(weights) and 0 <= j < len(weights)):
            raise ParseError(1, f"edge ({i}, {j}) references an unknown vertex")
    return Inequality(
        vertex_weights=weights,
        edge_terms=tuple(sorted(edges)),
        classical_bound=classical,
        quantum_value=quantum,
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
    if flag_value is not None:
        return flag_value
    env_value = os.environ.get(SEED_ENV_VAR)
    if env_value is not None:
        try:
            return int(env_value)
        except ValueError as exc:
            raise ValueError(f"bad {SEED_ENV_VAR} value {env_value!r}") from exc
    return 0


def _ray_text(rayset: RaySet, index: int) -> str:
    ray = rayset.rays[index]
    if rayset.mode.is_exact:
        return " ".join(_format_exact(c) for c in ray.coords)
    return " ".join(repr(c) for c in ray.coords)


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
    instance = _load_instance(args.file)
    weights = pruned_weights(instance)
    print(f"name {instance.rayset.name}", file=out)
    print(f"state {args.state}", file=out)
    print(f"trials {args.trials}", file=out)
    if args.state == "random":
        seed = _resolve_seed(args.seed)
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
