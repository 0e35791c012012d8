"""File formats and command-line behavior: round trips, exit codes, seeds."""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kscertify
from conftest import make_integer_family, make_quadratic_family, transformed
from kscertify import cli
from kscertify.catalog import catalog_entries, load_rayset, load_text
from kscertify.cli import run_command
from kscertify.coloring import DefinitionMode, verify_assignment
from kscertify.inequality import build_inequality
from kscertify.algebra import exact_ray, numeric_ray
from kscertify.formats import (
    ParseError,
    emit_inequality,
    emit_rayset,
    parse_inequality,
    parse_rayset,
)
from kscertify.rayset import (
    DuplicateRayError,
    ScalarMode,
    build_instance,
    prune_unbased,
    validate_rayset,
)

MINIMAL = """\
ksset 1
name t
dim 3
scalar int
ray 1 0 0
ray 0 1 0
ray 0 0 1
"""


def run(argv):
    out = io.StringIO()
    status = run_command(argv, out=out)
    return status, out.getvalue()


# ---------------------------------------------------------------- parsing


def test_parse_minimal_file():
    rayset = parse_rayset(MINIMAL)
    assert rayset.name == "t"
    assert rayset.dimension == 3
    assert len(rayset.rays) == 3
    assert build_instance(rayset).n_bases == 1


def test_parse_quad_component():
    text = "ksset 1\nname q\ndim 3\nscalar quad 2\nray 0 0:1 1\nray 1 0 0\nray 0 1 0:-1\n"
    rayset = parse_rayset(text)
    assert rayset.mode.disc == 2
    assert rayset.rays[0].coords[1] == (0, 1)


def test_parse_numeric_mode():
    text = "ksset 1\nname n\ndim 3\nscalar numeric 1e-09\nray 1.0 0.0 0.0\nray 0.0 0.5 0.5\nray 0 -1 1\n"
    rayset = parse_rayset(text)
    assert not rayset.mode.is_exact
    assert rayset.mode.tol == 1e-9
    assert rayset.rays[1].coords[1] == pytest.approx(2 ** -0.5)


def test_parse_comments_and_blank_lines():
    text = "# leading comment\n\nksset 1\nname c  # trailing\ndim 3\nscalar int\nray 1 0 0\nray 0 1 0\nray 0 0 1\n"
    assert len(parse_rayset(text).rays) == 3


def test_parse_unknown_version():
    with pytest.raises(ParseError, match="line 1.*unknown format version"):
        parse_rayset("ksset 2\ndim 3\nscalar int\nray 1 0 0\n")


def test_parse_wrong_arity():
    with pytest.raises(ParseError, match="line 5.*expected 3 components, got 2"):
        parse_rayset("ksset 1\nname t\ndim 3\nscalar int\nray 1 0\n")


def test_parse_bad_component_syntax():
    with pytest.raises(ParseError, match="bad component '1:2:3'"):
        parse_rayset("ksset 1\nname t\ndim 3\nscalar int\nray 1:2:3 0 0\n")


def test_parse_duplicate_ray_names_line():
    text = "ksset 1\nname t\ndim 3\nscalar int\nray 1 0 0\nray -2 0 0\nray 0 1 0\n"
    with pytest.raises(ParseError, match="line 6"):
        parse_rayset(text)


def test_parse_irrational_duplicate_names_line():
    text = "ksset 1\nname t\ndim 3\nscalar quad 2\nray 1 1 0\nray 0 0 1\nray 0:1 0:1 0\n"
    with pytest.raises(ParseError, match="line 7: rays 0 and 2 are colinear"):
        parse_rayset(text)


def _exact_file(rng: random.Random, disc: int) -> tuple[str, list[tuple[int, list]]]:
    """Seeded ray-set text over Z[sqrt(disc)] and the (line, pairs) of each
    ray: '+' signs, common factors, negative first coordinates, 'a:b' under
    'scalar int' (meaning a + b), and now and then a colinear copy."""
    d = rng.choice((3, 4))
    scalar = "scalar int" if disc == 1 else f"scalar quad {disc}"
    lines = ["ksset 1", "name diff", f"dim {d}", scalar]
    rays: list[tuple[int, list]] = []
    copy_at = rng.randrange(1, 12) if rng.random() < 0.3 else None
    for k in range(rng.randint(3, 12)):
        if rays and k == copy_at:
            a0, b0 = rng.choice(((2, 0), (-1, 0), (-3, 0), (0, 1), (1, 1)))
            pairs = [(a * a0 + disc * b * b0, b * a0 + a * b0) for a, b in rng.choice(rays)[1]]
        else:
            factor = rng.choice((1, 1, 2, -1, -6))
            pairs = [(factor * rng.randint(-3, 3), factor * rng.randint(-2, 2)) for _ in range(d)]
            folded = [a + b for a, b in pairs] if disc == 1 else [p for p in pairs if p != (0, 0)]
            if not any(folded):
                pairs[0] = (factor, 0)
        tokens = []
        for a, b in pairs:
            plus = "+" if rng.random() < 0.3 else ""
            token = f"{a}:{plus if b >= 0 else ''}{b}" if b or rng.random() < 0.2 else str(a)
            tokens.append(plus + token if a >= 0 else token)
        lines.append("ray " + " ".join(tokens))
        rays.append((len(lines), pairs))
    return "\n".join(lines) + "\n", rays


@pytest.mark.parametrize("seed", range(45))
def test_exact_parse_matches_the_validated_rays(seed):
    """The one-pass parse gives validate_rayset([exact_ray(...)]) exactly,
    or the same duplicate error on the line of the second copy."""
    rng = random.Random(seed)
    disc = (1, 2, 3)[seed % 3]
    text, rays = _exact_file(rng, disc)
    try:
        expected = validate_rayset(
            [exact_ray(pairs, disc=disc) for _, pairs in rays],
            name="diff",
            mode=ScalarMode.exact(disc),
        )
    except DuplicateRayError as exc:
        line = rays[exc.index_b][0]
        with pytest.raises(ParseError) as info:
            parse_rayset(text)
        assert (info.value.line_number, str(info.value)) == (line, f"line {line}: {exc}")
        return
    assert parse_rayset(text) == expected


@pytest.mark.parametrize(
    "scalar, ray, message",
    [
        ("int", "1 + 0", "bad component '+'; expected 'a' or 'a:b'"),
        ("int", "1 0 -", "bad component '-'; expected 'a' or 'a:b'"),
        ("int", "1 0 --1", "bad component '--1'; expected 'a' or 'a:b'"),
        ("int", "1 0 1.5", "bad component '1.5'; expected 'a' or 'a:b'"),
        ("int", "1 0 1:", "bad component '1:'; expected 'a' or 'a:b'"),
        ("int", "1 0 :1", "bad component ':1'; expected 'a' or 'a:b'"),
        ("int", "1 0 \u00bd", "bad component '\u00bd'; expected 'a' or 'a:b'"),
        ("int", "1 0 1_0", "bad component '1_0'; expected 'a' or 'a:b'"),
        ("numeric 1e-09", "1_0 0 0", "could not convert string to float: '1_0'"),
        ("numeric 1e-09", "1 0 \u0661", "could not convert string to float: '\u0661'"),
        ("numeric 1e-09", "1 0 infinity", "could not convert string to float: 'infinity'"),
        ("int", "0 -0 +0", "zero vector is not a ray"),
        ("int", "1:-1 0 0", "zero vector is not a ray"),
        ("quad 2", "0:0 0 -0:+0", "zero vector is not a ray"),
        ("int", "1 0", "expected 3 components, got 2"),
        ("numeric 1e-09", "0.0 -0 0e5", "zero vector is not a ray"),
        ("numeric 1e-09", "nan 0 0", "squared norm nan is not a positive finite float"),
        ("numeric 1e-09", "1e400 0 0", "squared norm inf is not a positive finite float"),
        ("numeric 1e-09", "1e-320 0 0", "squared norm 0.0 is not a positive finite float"),
        ("numeric 1e-09", "1e200 1e200 0", "squared norm inf is not a positive finite float"),
    ],
)
def test_malformed_ray_names_its_line(scalar, ray, message):
    text = f"ksset 1\nname t\ndim 3\nscalar {scalar}\nray {ray}\nray 0 1 0\n"
    with pytest.raises(ParseError) as info:
        parse_rayset(text)
    assert (info.value.line_number, str(info.value)) == (5, f"line 5: {message}")


@pytest.mark.parametrize("ray", ["nan 0 0", "1e-320 0 0", "1e200 1e200 0"])
def test_cli_malformed_numeric_ray_exits_2(ray, tmp_path, capsys):
    path = tmp_path / "bad.ks"
    path.write_text(f"ksset 1\nname t\ndim 3\nscalar numeric 1e-09\nray {ray}\n", encoding="utf-8")
    status, out = run(["verify", str(path)])
    assert (status, out) == (2, "")
    assert "error: line 5: squared norm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "d, message",
    [
        ("0", "dimension 0 is below 3"),
        ("2", "dimension 2 is below 3"),
        ("\u00b2", "'dim' directive needs one integer"),
        ("3.0", "'dim' directive needs one integer"),
    ],
)
def test_bad_dim_names_its_line(d, message, tmp_path, capsys):
    text = f"ksset 1\nname t\ndim {d}\nscalar int\nray 1 0\n"
    with pytest.raises(ParseError) as info:
        parse_rayset(text)
    message = f"line 3: {message}"
    assert (info.value.line_number, str(info.value)) == (3, message)
    path = tmp_path / "bad.ks"
    path.write_text(text, encoding="utf-8")
    status, out = run(["verify", str(path)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


NOT_SQUARE_FREE = "is not a positive square-free integer"


@pytest.mark.parametrize(
    "m, rays, reason",
    [
        (4, "ray 1 0 0\nray 0 1 0\n", NOT_SQUARE_FREE),
        (4, "ray 1 0 x\nray 0 1 0\n", NOT_SQUARE_FREE),
        (0, "ray 0 0 0\nray 0 1 0\n", NOT_SQUARE_FREE),
        (4, "", NOT_SQUARE_FREE),
        (-3, "", NOT_SQUARE_FREE),
        # Past 2**31 the trial division for square factors would stall.
        (1000000000000000003, "ray 1 0 0\n", "is not below 2**31"),
    ],
)
def test_bad_discriminant_names_the_scalar_line(m, rays, reason, tmp_path, capsys):
    text = f"ksset 1\nname t\ndim 3\nscalar quad {m}\n{rays}"
    with pytest.raises(ParseError) as info:
        parse_rayset(text)
    message = f"line 4: discriminant {m} {reason}"
    assert (info.value.line_number, str(info.value)) == (4, message)
    path = tmp_path / "bad.ks"
    path.write_text(text, encoding="utf-8")
    assert run(["verify", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
RAYSET_TEXT = "ksset 1\nname t\ndim 3\nscalar quad 2\nray +3:-1 0 0\nray 0 1 0\n"


@pytest.mark.parametrize(
    "row, column, message",
    [
        (2, 1, "'dim' directive needs one integer"),
        (3, 2, "invalid literal for int() with base 10: '\u0662'"),
        (4, 2, "bad component '\u0660'; expected 'a' or 'a:b'"),
        (5, 2, "bad component '\u0661'; expected 'a' or 'a:b'"),
    ],
    ids=["dim", "quad", "component", "component-part"],
)
def test_rayset_integer_fields_take_only_ascii_digits(row, column, message):
    # str.isdecimal and int() also read other scripts' digits, which
    # emit_rayset never writes.
    lines = [line.split() for line in RAYSET_TEXT.splitlines()]
    lines[row][column] = lines[row][column].translate(ARABIC_INDIC)
    text = "\n".join(" ".join(tokens) for tokens in lines) + "\n"
    assert len(parse_rayset(RAYSET_TEXT).rays) == 2
    with pytest.raises(ParseError) as info:
        parse_rayset(text)
    assert str(info.value) == f"line {row + 1}: {message}"


@pytest.mark.parametrize("token", ["0", "-0", "1.", ".5", "+2.5e-3", "1E-3"])
def test_numeric_fields_take_decimal_literals(token):
    text = "ksset 1\nname t\ndim 3\nscalar numeric {0}\nray 1 {0} 0\n"
    assert parse_rayset(text.format(token)) == parse_rayset(text.format(repr(float(token))))


def test_parse_numeric_duplicate_names_line():
    # Rays 0 and 3 and rays 1 and 2 are colinear; the scan meets (1, 2) first.
    text = (
        "ksset 1\nname t\ndim 3\nscalar numeric 1e-09\n"
        "ray 1 0 0\nray 0 1 1\nray 0 -2 -2\nray 3 0 0\n"
    )
    with pytest.raises(ParseError, match="line 7: rays 1 and 2 are colinear"):
        parse_rayset(text)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_parse_bad_numeric_tolerance_names_line(tol, tmp_path, capsys):
    text = f"ksset 1\nname t\ndim 3\nscalar numeric {tol}\nray 1 0 0\nray 0 1 0\nray 0 0 1\n"
    with pytest.raises(ParseError, match="line 4: numeric tolerance .* is not a finite number"):
        parse_rayset(text)
    path = tmp_path / "bad.ks"
    path.write_text(text, encoding="utf-8")
    status, out = run(["verify", str(path)])
    assert status == 2
    assert out == ""
    assert "line 4: numeric tolerance" in capsys.readouterr().err


def _run_python(args, **kwargs):
    """Run a fresh interpreter that imports kscertify from this source tree."""
    src = str(Path(kscertify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120, **kwargs
    )


def test_public_names_resolve():
    """Every name in ``__all__`` exists, and loading a catalog set through
    the package imports neither the CLI module nor argparse."""
    for name in kscertify.__all__:
        getattr(kscertify, name)
    namespace: dict = {}
    exec("from kscertify import *", namespace)
    assert set(kscertify.__all__) <= namespace.keys()
    proc = _run_python([
        "-c",
        "import sys, kscertify; kscertify.load_rayset('peres-33'); "
        "print(sorted({'kscertify.cli', 'argparse'} & sys.modules.keys()))",
    ], check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module", ["kscertify", "kscertify.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    path = tmp_path / "bad.ks"
    path.write_text(
        "ksset 1\nname t\ndim 3\nscalar numeric nan\nray 1 0 0\nray 0 1 0\nray 0 0 1\n",
        encoding="utf-8",
    )
    proc = _run_python(["-m", module, "verify", str(path)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "line 4: numeric tolerance" in proc.stderr
    # The package does not import its CLI module, so runpy finds it unloaded.
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("tol", ["0", "1e-09"])
def test_numeric_tolerance_zero_and_default_accepted(tol, tmp_path):
    path = tmp_path / "ok.ks"
    path.write_text(
        f"ksset 1\nname t\ndim 3\nscalar numeric {tol}\nray 1 0 0\nray 0 1 0\nray 0 0 1\n",
        encoding="utf-8",
    )
    status, out = run(["verify", str(path), "--mode", "original"])
    assert status == 1
    assert "bases 1" in out


def test_parse_ray_before_directives():
    with pytest.raises(ParseError, match="before 'dim'"):
        parse_rayset("ksset 1\nray 1 0 0\n")
    with pytest.raises(ParseError, match="before 'scalar'"):
        parse_rayset("ksset 1\ndim 3\nray 1 0 0\n")


def test_parse_missing_sections():
    with pytest.raises(ParseError, match="empty file"):
        parse_rayset("# nothing\n")
    with pytest.raises(ParseError, match="missing 'dim'"):
        parse_rayset("ksset 1\nname t\n")
    with pytest.raises(ParseError, match="no 'ray' lines"):
        parse_rayset("ksset 1\nname t\ndim 3\nscalar int\n")
    for text, line, message in [
        ("ksset 1\nname t\ndim 3\n", 3, "missing 'scalar' directive"),
        ("ksset 1\nname a\nname b\n", 3, "repeated 'name' directive"),
        ("ksset 1\ndim 3\n# dim 4\ndim 3\n", 4, "repeated 'dim' directive"),
        ("ksset 1\nscalar int\nscalar quad 2\n", 3, "repeated 'scalar' directive"),
        ("ksset 1\nname\n", 2, "'name' directive needs a value"),
        ("ksset 1\ndim 3\nscalar numeric abc\n", 3, "bad tolerance 'abc'"),
        ("ksset 1\ndim 3\nscalar numeric 1_0e-1_0\n", 3, "bad tolerance '1_0e-1_0'"),
        ("ksset 1\ndim 3\nscalar quad 0_2\n", 3, "invalid literal for int() with base 10: '0_2'"),
        ("ksset 1\ndim 3\nscalar float\n", 3, "'scalar' directive must be 'int', "),
    ]:
        with pytest.raises(ParseError) as info:
            parse_rayset(text)
        assert info.value.line_number == line
        assert str(info.value).startswith(f"line {line}: {message}")


def test_parse_unknown_directive():
    with pytest.raises(ParseError, match="unknown directive 'rays'"):
        parse_rayset("ksset 1\nrays 1 0 0\n")


def test_rayset_round_trip_exact():
    rayset = parse_rayset(MINIMAL)
    assert parse_rayset(emit_rayset(rayset)) == rayset


def test_rayset_round_trip_numeric():
    text = "ksset 1\nname n\ndim 3\nscalar numeric 1e-09\nray 0.25 0.25 1.5\nray 1 -1 0\nray 3 3 -1\n"
    rayset = parse_rayset(text)
    again = parse_rayset(emit_rayset(rayset))
    assert again == rayset
    assert emit_rayset(again) == emit_rayset(rayset)


def test_rayset_round_trip_numeric_default_tolerance():
    rays = [numeric_ray([1.0, 0.0, 0.0]), numeric_ray([0.0, 0.6, 0.8])]
    rayset = validate_rayset(rays, name="n", mode=ScalarMode("numeric"))
    assert parse_rayset(emit_rayset(rayset)) == rayset


def test_emitted_rays_are_canonical():
    text = "ksset 1\nname t\ndim 3\nscalar int\nray -2 0 -2\nray 0 3 0\nray 0 0 7\n"
    emitted = emit_rayset(parse_rayset(text))
    assert "ray 1 0 1" in emitted
    assert "ray 0 1 0" in emitted
    assert "ray 0 0 1" in emitted


# ---------------------------------------------- inequality serialization


def test_inequality_round_trip(peres33_instance):
    inequality = build_inequality(peres33_instance)
    text = emit_inequality(inequality)
    assert parse_inequality(text) == inequality
    assert text.endswith(f"quantum_value {inequality.quantum_value}\n")


def test_inequality_single_basis():
    instance = build_instance(parse_rayset(MINIMAL))
    text = emit_inequality(build_inequality(instance))
    lines = text.splitlines()
    assert lines.count("term 0 1") + lines.count("term 1 1") + lines.count("term 2 1") == 3
    assert sum(1 for l in lines if l.startswith("edge ")) == 3
    assert "classical_bound 1" in lines
    assert "quantum_value 1" in lines


def test_parse_inequality_errors():
    with pytest.raises(ParseError, match="missing 'classical_bound'"):
        parse_inequality("term 0 1\n")
    with pytest.raises(ParseError, match="cover 0..n-1"):
        parse_inequality("term 0 1\nterm 2 1\nclassical_bound 1\nquantum_value 1\n")
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_inequality("term 0 1\nedge 0 5 1\nclassical_bound 1\nquantum_value 1\n")
    with pytest.raises(ParseError, match="unrecognized line"):
        parse_inequality("bound 3\n")
    # Each of these is a line that emit_inequality never writes.
    terms = "term 0 1\nterm 1 1\n"
    bounds = "classical_bound 1\nquantum_value 1\n"
    for text, line, message in [
        (terms + "classical_bound 1\nclassical_bound 0\nquantum_value 1\n", 4,
         "repeated 'classical_bound' line"),
        (terms + bounds + "quantum_value 2\n", 5, "repeated 'quantum_value' line"),
        (terms + "edge 0 0 1\n" + bounds, 3, "edge (0, 0) is not an ordered vertex pair"),
        (terms + "edge 1 0 1\n" + bounds, 3, "edge (1, 0) is not an ordered vertex pair"),
        (terms + "edge 0 1 1\nedge 0 1 1\n" + bounds, 4, "repeated edge (0, 1)"),
        ("term 0 -1\n" + bounds, 1, "negative weight -1 for vertex 0"),
        ("term 0 1\nterm x 1\n" + bounds, 2, "invalid literal for int()"),
        ("# bounds only\n" + bounds, 1, "no 'term' lines"),
        (terms + "classical_bound 5\nquantum_value 1\n", 3,
         "classical bound cannot exceed the quantum value"),
        (terms + "quantum_value 1\n# x\nclassical_bound 2\n", 5,
         "classical bound cannot exceed the quantum value"),
        (terms + "edge 0 1 1\nedge 0 2 1\n" + bounds, 4, "edge (0, 2) references an unknown vertex"),
        (terms + "edge -1 1 1\n" + bounds, 3, "edge (-1, 1) references an unknown vertex"),
        (terms + "\nedge 0 1 0\n" + bounds, 4, "edge weight 0 on (0, 1) is below max(w_i, w_j)"),
        ("term 0 1\nterm 2 1\n" + bounds, 2,
         "term vertex 2 is outside 0..1; term vertex indices must cover 0..n-1"),
        ("term 1 1\nterm 0 1\nterm -1 1\n" + bounds, 3, "term vertex -1 is outside 0..2"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_inequality(text)
        assert info.value.line_number == line
        assert str(info.value).startswith(f"line {line}: {message}")


INEQUALITY_TEXT = "term 0 1\nterm 1 1\nedge 0 1 1\nclassical_bound 1\nquantum_value 2\n"


@pytest.mark.parametrize(
    "spell", [lambda t: "0_" + t, lambda t: t.translate(ARABIC_INDIC)],
    ids=["underscore", "arabic-indic"],
)
@pytest.mark.parametrize(
    "row, column",
    [(0, 1), (0, 2), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1)],
    ids=["term-vertex", "term-weight", "edge-i", "edge-j", "edge-weight",
         "classical_bound", "quantum_value"],
)
def test_inequality_integer_fields_take_only_sign_and_digits(row, column, spell):
    # int() reads '0_1' and '\u0661' as 1, but emit_inequality never writes them.
    lines = [line.split() for line in INEQUALITY_TEXT.splitlines()]
    token = spell(lines[row][column])
    lines[row][column] = token
    text = "\n".join(" ".join(tokens) for tokens in lines) + "\n"
    assert parse_inequality(INEQUALITY_TEXT).vertex_weights == (1, 1)
    with pytest.raises(ParseError) as info:
        parse_inequality(text)
    assert str(info.value) == f"line {row + 1}: invalid literal for int() with base 10: {token!r}"


# ------------------------------------------------------------ subcommands


@pytest.fixture()
def peres_file(tmp_path):
    path = tmp_path / "p33.ks"
    path.write_text(load_text("peres-33"), encoding="utf-8")
    return str(path)


def test_verify_original_prints_ks(peres_file):
    status, text = run(["verify", peres_file, "--mode", "original"])
    assert status == 0
    assert "KS" in text.splitlines()


def test_verify_extended_prints_checked_witness(peres_file):
    status, text = run(["verify", peres_file, "--mode", "extended"])
    assert status == 1
    lines = text.splitlines()
    assert "COLORABLE" in lines
    witness_line = next(l for l in lines if l.startswith("witness "))
    witness = tuple(int(tok) for tok in witness_line.split()[1:])
    instance = build_instance(load_rayset("peres-33"))
    assert verify_assignment(instance, witness, DefinitionMode.EXTENDED)
    assert not verify_assignment(instance, witness, DefinitionMode.ORIGINAL)


def test_verify_deterministic(peres_file):
    first = run(["verify", peres_file, "--mode", "extended"])
    second = run(["verify", peres_file, "--mode", "extended"])
    assert first == second


def test_verify_missing_file():
    status, _ = run(["verify", "/nonexistent/x.ks"])
    assert status == 2


def test_verify_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.ks"
    path.write_text("ksset 9\n", encoding="utf-8")
    status, _ = run(["verify", str(path)])
    assert status == 2


def test_inequality_stdout_round_trips(peres_file):
    status, text = run(["inequality", peres_file])
    assert status == 0
    inequality = parse_inequality(text)
    assert inequality.quantum_value == 16
    assert inequality.classical_bound == 15


def test_inequality_out_file(peres_file, tmp_path):
    out = tmp_path / "p.ineq"
    status, text = run(["inequality", peres_file, "--out", str(out)])
    assert status == 0
    assert "gap 1" in text
    assert "original_ks yes" in text
    assert parse_inequality(out.read_text()).classical_bound == 15


def test_inequality_requires_pruned_instance(tmp_path):
    path = tmp_path / "loose.ks"
    path.write_text(MINIMAL + "ray 1 1 1\n", encoding="utf-8")
    status, _ = run(["inequality", str(path)])
    assert status == 2


def test_evaluate_mixed(peres_file):
    status, text = run(["evaluate", peres_file, "--state", "mixed"])
    assert status == 0
    deviation = float(next(
        l for l in text.splitlines() if l.startswith("max_deviation")
    ).split()[1])
    assert deviation < 1e-12


def test_evaluate_random_seed_echo_and_flag_priority(peres_file, monkeypatch):
    monkeypatch.setenv("KS_CERTIFY_SEED", "99")
    status, text = run(
        ["evaluate", peres_file, "--state", "random", "--trials", "2", "--seed", "5"]
    )
    assert status == 0
    assert "seed 5" in text.splitlines()
    deviation = float(next(
        l for l in text.splitlines() if l.startswith("max_deviation")
    ).split()[1])
    assert deviation < 1e-9


def test_evaluate_seed_env_fallback(peres_file, monkeypatch):
    monkeypatch.setenv("KS_CERTIFY_SEED", "99")
    _, with_env = run(["evaluate", peres_file, "--state", "random", "--trials", "1"])
    assert "seed 99" in with_env.splitlines()
    monkeypatch.delenv("KS_CERTIFY_SEED")
    _, default = run(["evaluate", peres_file, "--state", "random", "--trials", "1"])
    assert "seed 0" in default.splitlines()


def test_flags_do_not_leak_between_commands(peres_file, monkeypatch):
    # The parser is built once per process; each command must still see
    # only its own flags.
    monkeypatch.delenv("KS_CERTIFY_SEED", raising=False)
    random_state = ["evaluate", peres_file, "--state", "random", "--trials", "1"]
    _, seeded = run(random_state + ["--seed", "5"])
    _, default = run(random_state)
    assert "seed 5" in seeded.splitlines()
    assert "seed 0" in default.splitlines()
    _, extended = run(["verify", peres_file, "--mode", "extended"])
    _, original = run(["verify", peres_file])
    assert "mode extended" in extended.splitlines()
    assert "mode original" in original.splitlines()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_evaluate_rejects_trials_below_one(peres_file, trials, capsys):
    # No state tried is no evidence: max_deviation 0.0 would read as a pass.
    assert run(["evaluate", peres_file, "--trials", trials]) == (2, "")
    assert capsys.readouterr().err == f"error: --trials {trials} is below 1\n"


@pytest.mark.parametrize(
    "flag, env, message",
    [
        (["--seed", "-1"], None, "--seed -1 is negative; a seed must be >= 0"),
        (["--seed", "-1"], "7", "--seed -1 is negative; a seed must be >= 0"),
        ([], "-2", "KS_CERTIFY_SEED -2 is negative; a seed must be >= 0"),
        ([], "abc", "bad KS_CERTIFY_SEED value 'abc'"),
    ],
)
def test_evaluate_bad_seed_prints_nothing(peres_file, monkeypatch, capsys, flag, env, message):
    if env is None:
        monkeypatch.delenv("KS_CERTIFY_SEED", raising=False)
    else:
        monkeypatch.setenv("KS_CERTIFY_SEED", env)
    assert run(["evaluate", peres_file, "--state", "random"] + flag) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_evaluate_same_seed_same_output(peres_file):
    first = run(["evaluate", peres_file, "--state", "random", "--trials", "3", "--seed", "11"])
    second = run(["evaluate", peres_file, "--state", "random", "--trials", "3", "--seed", "11"])
    assert first == second


def test_info_reports_rays_with_coordinates(peres_file):
    status, text = run(["info", peres_file])
    assert status == 0
    lines = text.splitlines()
    assert "rays 33" in lines
    assert "bases 16" in lines
    assert "based_rays 33" in lines
    assert sum(1 for l in lines if l.startswith("ray ")) == 33


def test_prune_drops_unbased_rays(tmp_path):
    path = tmp_path / "loose.ks"
    path.write_text(MINIMAL + "ray 1 1 1\n", encoding="utf-8")
    out = tmp_path / "pruned.ks"
    status, text = run(["prune", str(path), "--out", str(out)])
    assert status == 0
    assert "removed 1" in text
    pruned = parse_rayset(out.read_text())
    assert len(pruned.rays) == 3


def test_prune_stdout_is_parseable(tmp_path):
    path = tmp_path / "t.ks"
    path.write_text(MINIMAL, encoding="utf-8")
    status, text = run(["prune", str(path)])
    assert status == 0
    assert len(parse_rayset(text).rays) == 3


def test_catalog_list_contains_required_ids():
    status, text = run(["catalog", "list"])
    assert status == 0
    ids = [line.split()[0] for line in text.splitlines()]
    assert "peres-33" in ids
    assert "conway-kochen-31" in ids


def test_catalog_get_is_byte_exact():
    status, text = run(["catalog", "get", "conway-kochen-31"])
    assert status == 0
    assert text == load_text("conway-kochen-31")


def test_catalog_get_unknown_id():
    status, _ = run(["catalog", "get", "missing-set"])
    assert status == 2


def test_usage_error_exit_code():
    status, _ = run(["no-such-command"])
    assert status == 2


def test_random_file_fuzz_round_trip():
    """Seeded random integer ray files survive parse/emit/parse unchanged."""
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(3, 8)
        seen = set()
        rays = []
        while len(rays) < n:
            vec = tuple(rng.randint(-3, 3) for _ in range(3))
            if vec == (0, 0, 0):
                continue
            rays.append(vec)
            seen.add(vec)
        lines = ["ksset 1", "name fuzz", "dim 3", "scalar int"]
        lines += [f"ray {a} {b} {c}" for a, b, c in rays]
        try:
            rayset = parse_rayset("\n".join(lines) + "\n")
        except ValueError:
            continue  # random duplicates are fine to skip
        assert parse_rayset(emit_rayset(rayset)) == rayset


# ------------------------------------------------------- instance table


def _numeric_form(rayset):
    rays = [numeric_ray(ray.to_floats()) for ray in rayset.rays]
    return validate_rayset(rays, name=rayset.name, mode=ScalarMode.numeric(1e-9))


def _table_raysets():
    rng = random.Random(24)
    exact = [load_rayset(entry.id) for entry in catalog_entries()]
    exact += [
        make_integer_family(3, (1, 2)),
        make_integer_family(4, (1,)),
        make_quadratic_family(3, ((1, 0), (0, 1)), 2),
    ]
    exact += [transformed(rayset, rng) for rayset in exact]
    return exact + [_numeric_form(rayset) for rayset in exact]


def test_pruned_text_loads_as_the_pruned_instance():
    # What lets `prune` enter the text it writes with the instance it holds.
    for rayset in _table_raysets():
        pruned = prune_unbased(build_instance(rayset))
        assert build_instance(parse_rayset(emit_rayset(pruned.rayset))) == pruned, rayset.name


def _certify_steps(source, pruned, tmp_path):
    return [
        ["prune", source, "--out", pruned],
        ["verify", pruned, "--mode", "original"],
        ["verify", pruned, "--mode", "extended"],
        ["inequality", pruned, "--out", str(tmp_path / "ineq.txt")],
        ["evaluate", pruned, "--state", "random", "--trials", "2", "--seed", "5"],
        ["info", pruned],
    ]


def _q2_file(tmp_path, numeric=False):
    rayset = make_quadratic_family(3, ((1, 0), (0, 1)), 2)
    path = tmp_path / "q2.ks"
    path.write_text(emit_rayset(_numeric_form(rayset) if numeric else rayset), encoding="utf-8")
    return str(path)


def test_certify_sequence_parses_its_input_once(tmp_path, monkeypatch):
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_rayset(text)

    monkeypatch.setattr(cli, "parse_rayset", counted)
    source = _q2_file(tmp_path)
    for argv in _certify_steps(source, str(tmp_path / "pruned.ks"), tmp_path):
        assert run(argv)[0] in (0, 1)
    assert parsed == [Path(source).read_text(encoding="utf-8")]


def test_edited_file_is_loaded_again(peres_file, tmp_path):
    assert run(["verify", peres_file])[0] == 0
    Path(peres_file).write_text(MINIMAL, encoding="utf-8")
    status, text = run(["verify", peres_file])
    assert (status, "rays 3" in text) == (1, True)


def test_table_holds_the_four_newest_texts(tmp_path):
    texts = []
    for k in range(10):
        path = tmp_path / f"t{k}.ks"
        texts.append(MINIMAL.replace("name t", f"name t{k}"))
        path.write_text(texts[-1], encoding="utf-8")
        assert run(["info", str(path)])[0] == 0
        assert len(cli._instances) <= 4
    assert list(cli._instances) == texts[-4:]


def test_parse_error_is_not_remembered(tmp_path, capsys):
    path = tmp_path / "bad.ks"
    path.write_text("ksset 1\nname t\ndim 3\nscalar int\nray 1 0 x\n", encoding="utf-8")
    results = []
    for _ in range(2):
        results.append((run(["verify", str(path)]), capsys.readouterr().err))
    message = "error: line 5: bad component 'x'; expected 'a' or 'a:b'\n"
    assert results[0] == results[1] == ((2, ""), message)
    assert not cli._instances


@pytest.mark.parametrize("numeric", [False, True], ids=["exact", "numeric"])
def test_table_does_not_change_output(numeric, tmp_path):
    source = _q2_file(tmp_path, numeric)
    steps = _certify_steps(source, str(tmp_path / "pruned.ks"), tmp_path)
    with_table = [run(argv) for argv in steps]
    without_table = []
    for argv in steps:
        cli._instances.clear()
        without_table.append(run(argv))
    assert with_table == without_table
