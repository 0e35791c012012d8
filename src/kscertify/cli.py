"""Command-line front end.

Subcommands: ``verify``, ``inequality``, ``evaluate``, ``info``, ``prune``,
``catalog list`` and ``catalog get``; the files they read and write are in
the formats of :mod:`kscertify.formats`.  Exit codes: 0 on success (for
``verify``: the set is a KS set), 1 when ``verify`` finds a coloring, 2 on
I/O, parse, or usage errors.  Random evaluation is seeded via ``--seed``,
the ``KS_CERTIFY_SEED`` environment variable, or 0, in that order.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Sequence, TextIO

from .catalog import catalog_entries, get_entry, load_text
from .coloring import DefinitionMode, check_colorable
from .formats import (
    emit_inequality,
    emit_rayset,
    format_ray,
    format_scalar_mode,
    parse_rayset,
)
from .inequality import StateSpec, build_inequality, pruned_weights, quantum_value
from .rayset import ProblemInstance, build_instance, covered_vertices, prune_unbased

SEED_ENV_VAR = "KS_CERTIFY_SEED"

# The instances of the last few ray-set texts loaded or written, keyed by the
# whole text and newest last.  It spares the parse and graph build when one
# process runs several commands on one file, as ``prune`` then ``verify``
# does.  Keying by text means an edited file is never served stale, and
# instances are frozen, so a hit is what a fresh load would build.
_INSTANCE_TABLE_SIZE = 4
_instances: dict[str, ProblemInstance] = {}


def _remember(text: str, instance: ProblemInstance) -> None:
    _instances.pop(text, None)
    _instances[text] = instance
    if len(_instances) > _INSTANCE_TABLE_SIZE:
        del _instances[next(iter(_instances))]


def _load_instance(path: str) -> ProblemInstance:
    text = Path(path).read_text(encoding="utf-8")
    instance = _instances.get(text)
    if instance is None:
        instance = build_instance(parse_rayset(text))
    _remember(text, instance)
    return instance


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
            print(f"one {index} ray {format_ray(instance.rayset.rays[index])}", file=out)
    return 1


def _cmd_inequality(args: argparse.Namespace, out: TextIO) -> int:
    instance = _load_instance(args.file)
    inequality = build_inequality(instance)
    text = emit_inequality(inequality)
    if args.out is None:
        out.write(text)
        return 0
    Path(args.out).write_text(text, encoding="utf-8")
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
    print(format_scalar_mode(rayset.mode), file=out)
    covered = set(covered_vertices(instance))
    print(f"based_rays {len(covered)}", file=out)
    for index, ray in enumerate(rayset.rays):
        based = "yes" if index in covered else "no"
        print(f"ray {index} {format_ray(ray)} based {based}", file=out)
    return 0


def _cmd_prune(args: argparse.Namespace, out: TextIO) -> int:
    instance = _load_instance(args.file)
    pruned = prune_unbased(instance)
    text = emit_rayset(pruned.rayset)
    # Parsing the emitted text gives this instance back: pruning keeps the
    # rays in order, so the graph and the bases are those a load would build.
    _remember(text, pruned)
    removed = instance.graph.vertex_count - pruned.graph.vertex_count
    if args.out is None:
        out.write(text)
        print(f"removed {removed} rays", file=sys.stderr)
        return 0
    Path(args.out).write_text(text, encoding="utf-8")
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
