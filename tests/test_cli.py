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
from kscertify.catalog import load_rayset, load_text
from kscertify.cli import (
    ParseError,
    emit_inequality,
    emit_rayset,
    parse_inequality,
    parse_rayset,
    run_command,
)
from kscertify.coloring import DefinitionMode, verify_assignment
from kscertify.inequality import build_inequality
from kscertify.algebra import exact_ray
from kscertify.rayset import DuplicateRayError, ScalarMode, build_instance, validate_rayset

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
    coords = rayset.rays[0].coords
    assert (coords[1].rat_part, coords[1].irr_part) == (0, 1)


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
        ("int", "0 -0 +0", "zero vector is not a ray"),
        ("int", "1:-1 0 0", "zero vector is not a ray"),
        ("quad 2", "0:0 0 -0:+0", "zero vector is not a ray"),
        ("quad 4", "1 0 0", "discriminant 4 is not a positive square-free integer"),
        ("quad 4", "1 0 x", "bad component 'x'; expected 'a' or 'a:b'"),
        ("quad 0", "0 0 0", "discriminant 0 is not a positive square-free integer"),
        ("int", "1 0", "expected 3 components, got 2"),
    ],
)
def test_malformed_ray_names_its_line(scalar, ray, message):
    text = f"ksset 1\nname t\ndim 3\nscalar {scalar}\nray {ray}\nray 0 1 0\n"
    with pytest.raises(ParseError) as info:
        parse_rayset(text)
    assert (info.value.line_number, str(info.value)) == (5, f"line 5: {message}")


def test_unicode_decimal_digits_are_digits():
    # str.isdecimal and the regex's \d accept the same digits.
    text = "ksset 1\nname t\ndim 3\nscalar quad 2\nray {} 0 0\nray 0 1 0\n"
    assert parse_rayset(text.format("+\u0663:-\u0661")) == parse_rayset(text.format("3:-1"))


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


@pytest.mark.parametrize("module", ["kscertify", "kscertify.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    path = tmp_path / "bad.ks"
    path.write_text(
        "ksset 1\nname t\ndim 3\nscalar numeric nan\nray 1 0 0\nray 0 1 0\nray 0 0 1\n",
        encoding="utf-8",
    )
    src = str(Path(kscertify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
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
