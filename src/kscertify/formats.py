"""Flat-file formats for ray sets and inequalities.

The ray-set format is line oriented: a header ``ksset 1``, then ``name``,
``dim`` and ``scalar`` directives, then one ``ray`` line per ray.  Exact
components are written ``a`` or ``a:b`` (meaning a + b*sqrt(m) for the
declared discriminant m); numeric components are plain floats.  ``#`` starts
a comment.  Building a ray stores its canonical form (see
:class:`~kscertify.algebra.RayVector`), so files re-emitted by
:func:`emit_rayset` are canonical: directives in a fixed order and every ray
in that form.

The inequality format lists ``term <i> <w_i>`` and ``edge <i> <j> <w_ij>``
lines followed by ``classical_bound`` and ``quantum_value``; it round-trips
losslessly through :func:`parse_inequality`.

Every integer field is an optional sign and ASCII decimal digits, and every
float field a decimal literal, ``inf`` or ``nan``: the syntax the emitters
write.
"""

from __future__ import annotations

import re

from .algebra import RayVector
from .inequality import Inequality
from .rayset import DuplicateRayError, RaySet, ScalarMode, validate_rayset

FORMAT_HEADER = "ksset 1"

_INTEGER = r"[+-]?[0-9]+"
_INTEGER_RE = re.compile(_INTEGER)
_FLOAT_RE = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)")
_EXACT_COMPONENT = re.compile(rf"({_INTEGER})(?::({_INTEGER}))?")


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


def _parse_int(token: str) -> int:
    if _INTEGER_RE.fullmatch(token) is None:
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _parse_float(token: str) -> float:
    if _FLOAT_RE.fullmatch(token) is None:
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _parse_exact_component(token: str) -> tuple[int, int]:
    # For ASCII text str.isdecimal accepts exactly the digits 0-9.
    if token.isascii() and (token[1:] if token[0] in "+-" else token).isdecimal():
        return int(token), 0
    match = _EXACT_COMPONENT.fullmatch(token)
    if match is None:
        raise ValueError(f"bad component {token!r}; expected 'a' or 'a:b'")
    rat, irr = match.groups()
    return int(rat), int(irr) if irr is not None else 0


def parse_rayset(text: str) -> RaySet:
    """Parse ray-set file text into a validated RaySet of canonical rays.

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
        keyword, *fields = content.split()
        # Every ValueError raised for this line becomes a ParseError naming it.
        try:
            if keyword == "name":
                if name is not None:
                    raise ValueError("repeated 'name' directive")
                if not fields:
                    raise ValueError("'name' directive needs a value")
                name = " ".join(fields)
            elif keyword == "dim":
                if dimension is not None:
                    raise ValueError("repeated 'dim' directive")
                if len(fields) != 1 or not (fields[0].isascii() and fields[0].isdecimal()):
                    raise ValueError("'dim' directive needs one integer")
                dimension = int(fields[0])
                if dimension < 3:
                    raise ValueError(f"dimension {dimension} is below 3")
            elif keyword == "scalar":
                if mode is not None:
                    raise ValueError("repeated 'scalar' directive")
                if fields == ["int"]:
                    mode = ScalarMode.integer()
                elif len(fields) == 2 and fields[0] == "quad":
                    mode = ScalarMode.exact(_parse_int(fields[1]))
                elif len(fields) == 2 and fields[0] == "numeric":
                    try:
                        tol = _parse_float(fields[1])
                    except ValueError:
                        raise ValueError(f"bad tolerance {fields[1]!r}") from None
                    mode = ScalarMode.numeric(tol)
                else:
                    raise ValueError(
                        "'scalar' directive must be 'int', 'quad <m>' or 'numeric <tol>'"
                    )
            elif keyword == "ray":
                if dimension is None:
                    raise ValueError("'ray' line before 'dim' directive")
                if mode is None:
                    raise ValueError("'ray' line before 'scalar' directive")
                if len(fields) != dimension:
                    raise ValueError(f"expected {dimension} components, got {len(fields)}")
                if mode.is_exact:
                    coords = tuple(_parse_exact_component(tok) for tok in fields)
                else:
                    coords = tuple(_parse_float(tok) for tok in fields)
                rays.append(RayVector(coords, mode.disc))
                ray_lines.append(number)
            else:
                raise ValueError(f"unknown directive {keyword!r}")
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc

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


def format_scalar_mode(mode: ScalarMode) -> str:
    """The ``scalar`` directive line of a mode."""
    if mode.is_exact:
        return "scalar int" if mode.disc == 1 else f"scalar quad {mode.disc}"
    return f"scalar numeric {mode.tol!r}"


def format_ray(ray: RayVector) -> str:
    """The components of a ray as a ``ray`` line writes them."""
    if ray.exact:
        return " ".join(str(rat) if irr == 0 else f"{rat}:{irr}" for rat, irr in ray.coords)
    return " ".join(repr(c) for c in ray.coords)


def emit_rayset(rayset: RaySet) -> str:
    """Serialize a RaySet in canonical form; inverse of parse_rayset."""
    lines = [FORMAT_HEADER, f"name {rayset.name}", f"dim {rayset.dimension}"]
    lines.append(format_scalar_mode(rayset.mode))
    lines.extend(f"ray {format_ray(ray)}" for ray in rayset.rays)
    return "\n".join(lines) + "\n"


_INEQUALITY_FIELDS = {"term": 2, "edge": 3, "classical_bound": 1, "quantum_value": 1}


def parse_inequality(text: str) -> Inequality:
    """Parse inequality file text; inverse of emit_inequality, so a line
    that it never writes raises ParseError naming that line."""
    # Each entry keeps the line it came from, for the checks after the loop.
    terms: dict[int, tuple[int, int]] = {}
    edges: dict[tuple[int, int], tuple[int, int]] = {}
    bounds: dict[str, tuple[int, int]] = {}
    for number, content in _significant_lines(text):
        keyword, *fields = content.split()
        try:
            if _INEQUALITY_FIELDS.get(keyword) != len(fields):
                raise ValueError(f"unrecognized line {content!r}")
            values = [_parse_int(field) for field in fields]
            if keyword == "term":
                index, weight = values
                if index in terms:
                    raise ValueError(f"repeated term for vertex {index}")
                if weight < 0:
                    raise ValueError(f"negative weight {weight} for vertex {index}")
                terms[index] = weight, number
            elif keyword == "edge":
                i, j, weight = values
                if i >= j:
                    raise ValueError(f"edge ({i}, {j}) is not an ordered vertex pair")
                if (i, j) in edges:
                    raise ValueError(f"repeated edge ({i}, {j})")
                edges[i, j] = weight, number
            else:
                if keyword in bounds:
                    raise ValueError(f"repeated '{keyword}' line")
                bounds[keyword] = values[0], number
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
    if len(bounds) < 2:
        raise ParseError(1, "missing 'classical_bound' or 'quantum_value' line")
    if not terms:
        raise ParseError(1, "no 'term' lines")
    n = len(terms)
    for index, (_, number) in terms.items():
        if not 0 <= index < n:
            raise ParseError(
                number, f"term vertex {index} is outside 0..{n - 1}; "
                "term vertex indices must cover 0..n-1",
            )
    weights = tuple(terms[i][0] for i in range(n))
    for (i, j), (weight, number) in edges.items():
        if i < 0 or j >= n:
            raise ParseError(number, f"edge ({i}, {j}) references an unknown vertex")
        if weight < max(weights[i], weights[j]):
            raise ParseError(number, f"edge weight {weight} on ({i}, {j}) is below max(w_i, w_j)")
    (classical, number), (quantum, _) = bounds["classical_bound"], bounds["quantum_value"]
    if classical > quantum:
        raise ParseError(number, "classical bound cannot exceed the quantum value")
    return Inequality(
        vertex_weights=weights,
        edge_terms=tuple(sorted((i, j, w) for (i, j), (w, _) in edges.items())),
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
