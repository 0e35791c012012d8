"""Self-tests of the benchmark's generator, oracles, checker, budget and tracer.

Run from the repository root: ``python3 -m pytest kscbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def family_structure(name: str) -> oracle.Structure:
    family = gen.FAMILIES[name]
    return oracle.Structure.of(gen.enumerate_family(family), family.disc, family.dim)


def test_projective_dedup_over_q_sqrt2():
    assert gen.projective_key(((0, 1), (0, 1), (0, 0)), 2) == gen.projective_key(
        ((1, 0), (1, 0), (0, 0)), 2
    )
    rays = gen.enumerate_family(gen.FAMILIES["q2_3{0,1,r2}"])
    assert ((1, 0), (1, 0), (0, 0)) in rays
    assert ((0, 1), (0, 1), (0, 0)) not in rays


def test_q2_family_prunes_to_peres_33():
    full = family_structure("q2_3{0,1,r2}")
    assert full.n == 49
    kept = full.covered()
    pruned = oracle.Structure.of(
        [gen.enumerate_family(gen.FAMILIES["q2_3{0,1,r2}"])[k] for k in kept], 2, 3
    )
    assert (pruned.n, len(pruned.bases)) == (33, 16)


def test_int3_family_counts():
    full = family_structure("int3{0,1,2}")
    assert (full.n, len(full.bases)) == (49, 26)


@pytest.mark.parametrize(
    "entry, original_ks, extended_ks, alpha, n_bases",
    [
        ("peres-33", True, False, 15, 16),
        ("conway-kochen-31", True, False, 16, 17),
        ("ceg-18", True, True, 8, 9),
    ],
)
def test_oracles_match_catalog(entry, original_ks, extended_ks, alpha, n_bases):
    text = (SRC / "kscertify" / "data" / f"{entry}.ks").read_text(encoding="utf-8")
    dim, disc, rays = oracle.parse_ks(text)
    structure = oracle.Structure.of(rays, disc, dim)
    assert len(structure.bases) == n_bases
    assert structure.colorable(original=True) is not original_ks
    assert structure.colorable(original=False) is not extended_ks
    assert structure.alpha() == alpha


def test_frozen_answers_of_small_families():
    frozen = json.loads(oracle.FROZEN.read_text(encoding="utf-8"))
    fresh = oracle.freeze(list(run.SMALL), alpha_limit=60.0)
    for name in run.SMALL:
        assert fresh[name] == frozen[name]


def test_plans_repeat_exactly_for_a_seed(tmp_path):
    made = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        folder = tmp_path / label
        folder.mkdir()
        requests, expected = run.build_plan("numeric", seed, folder)
        files = [Path(r["input"]).read_bytes() for r in requests]
        made[label] = (files, [e.answers for e in expected])
    assert made["a"] == made["b"]
    assert made["a"][0] != made["c"][0]


@pytest.fixture(scope="module")
def subset_request(tmp_path_factory):
    folder = tmp_path_factory.mktemp("plan")
    requests, expected = run.build_plan("numeric", 3, folder)
    return requests[0], expected[0], folder


def test_checker_accepts_right_and_rejects_wrong_answers(subset_request):
    import kscertify
    import kscertify.cli

    request, expected, folder = subset_request
    out = folder / "request"
    record = worker.run_request(kscertify, kscertify.cli.run_command, request, out, 60.0)
    assert check.check_record(record, request, expected, out) is None

    printed = out / "inequality.out"
    alpha = expected.answers["alpha"]
    printed.write_text(printed.read_text(encoding="utf-8").replace(
        f"classical_bound {alpha}", f"classical_bound {alpha + 1}"), encoding="utf-8")
    assert "classical_bound" in check.check_record(record, request, expected, out)


def test_budget_expiry_names_the_running_layer(tmp_path):
    import signal

    import kscertify
    import kscertify.cli

    requests, _ = run.build_plan("large", 1, tmp_path)
    previous = signal.signal(signal.SIGALRM, worker._expire)
    try:
        record = worker.run_request(kscertify, kscertify.cli.run_command, requests[0],
                                    tmp_path / "request", 0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert record["status"] == "budget"
    assert record["layer"] in worker.LAYERS


def test_missing_patch_point_is_reported_absent(monkeypatch):
    point = ("kscertify.cli", "no_such_function", "cli.none", False, None, None)
    monkeypatch.setattr(spans, "PATCH_POINTS", spans.PATCH_POINTS + (point,))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["kscertify.cli.no_such_function"]


def test_oracle_answers_a_set_without_bases():
    rays = [((1, 0), (1, 0), (0, 0)), ((1, 0), (0, 0), (1, 0)), ((0, 0), (1, 0), (1, 0))]
    answers, kept = oracle.answers(rays, 1, 3)
    assert (answers["bases"], answers["kept"], kept) == (0, 0, [])
