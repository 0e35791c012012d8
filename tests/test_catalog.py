"""Catalog entries: metadata, round trips, and re-derived verdicts."""

from __future__ import annotations

import itertools

import pytest

from kscertify.algebra import is_orthogonal, numeric_ray
from kscertify.catalog import catalog_entries, get_entry, load_rayset, load_text
from kscertify.coloring import DefinitionMode, check_colorable
from kscertify.formats import emit_rayset, parse_rayset
from kscertify.inequality import (
    build_inequality,
    compute_weights,
    operator_sum_check,
    weighted_independence_number,
)
from kscertify.rayset import build_instance, covered_vertices

from conftest import make_peres33
from oracles import brute_force_alpha

ALL_IDS = ["peres-33", "conway-kochen-31", "ceg-18"]


def test_catalog_lists_required_entries():
    ids = [entry.id for entry in catalog_entries()]
    assert "peres-33" in ids
    assert "conway-kochen-31" in ids


def test_get_entry_unknown_id():
    with pytest.raises(ValueError, match="unknown catalog id"):
        get_entry("no-such-set")


def test_entry_metadata_matches_file():
    for entry in catalog_entries():
        rayset = load_rayset(entry.id)
        assert rayset.name == entry.id
        assert rayset.dimension == entry.dimension
        assert len(rayset.rays) == entry.ray_count


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_bundled_file_is_canonical(entry_id):
    """emit(parse(file)) reproduces every bundled file byte for byte."""
    text = load_text(entry_id)
    assert emit_rayset(parse_rayset(text)) == text


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_expected_verdicts_reproduced(entry_id):
    """The recorded original/extended verdicts come out of the pipeline."""
    entry = get_entry(entry_id)
    instance = build_instance(load_rayset(entry_id))
    assert instance.n_bases == entry.basis_count
    original = check_colorable(instance, DefinitionMode.ORIGINAL)
    extended = check_colorable(instance, DefinitionMode.EXTENDED)
    assert (not original.colorable) == entry.original_ks
    assert (not extended.colorable) == entry.extended_ks


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_every_catalog_ray_is_based(entry_id):
    instance = build_instance(load_rayset(entry_id))
    assert covered_vertices(instance) == list(range(instance.graph.vertex_count))


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_gap_and_operator_sum(entry_id):
    instance = build_instance(load_rayset(entry_id))
    report = build_inequality(instance)
    assert report.gap >= 1
    assert report.is_original_ks
    assert operator_sum_check(instance, compute_weights(instance))


def test_conway_kochen_31_frozen_statistics():
    instance = build_instance(load_rayset("conway-kochen-31"))
    assert instance.graph.vertex_count == 31
    assert len(instance.graph.edges) == 71
    assert instance.n_bases == 17
    weights = compute_weights(instance)
    assert sum(weights) == 17 * 3
    assert weighted_independence_number(instance.graph, weights) == 16


def test_conway_kochen_31_components_are_small_integers():
    rayset = load_rayset("conway-kochen-31")
    values = {a for ray in rayset.rays for a, _ in ray.coords}
    assert values <= {-2, -1, 0, 1, 2}
    assert all(b == 0 for ray in rayset.rays for _, b in ray.coords)


def test_conway_kochen_31_is_critical():
    """Dropping any single ray makes the set colorable under ORIGINAL."""
    rayset = load_rayset("conway-kochen-31")
    instance = build_instance(rayset)
    assert not check_colorable(instance, DefinitionMode.ORIGINAL).colorable
    for drop in range(len(rayset.rays)):
        kept = [r for i, r in enumerate(rayset.rays) if i != drop]
        from kscertify.rayset import validate_rayset

        sub = build_instance(validate_rayset(kept, name="sub", mode=rayset.mode))
        assert check_colorable(sub, DefinitionMode.ORIGINAL).colorable


def test_ceg_18_frozen_statistics():
    instance = build_instance(load_rayset("ceg-18"))
    assert instance.graph.vertex_count == 18
    assert len(instance.graph.edges) == 63
    assert instance.n_bases == 9
    weights = compute_weights(instance)
    assert set(weights) == {2}
    assert brute_force_alpha(instance.graph, weights) == 8


def test_peres_33_file_matches_generated_set():
    """The bundled file equals the orbit construction used in these tests."""
    assert load_rayset("peres-33") == make_peres33()


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_exact_and_numeric_orthogonality_agree(entry_id):
    """Float orthogonality at the default tolerance matches the exact ring."""
    rayset = load_rayset(entry_id)
    numeric = [numeric_ray(r.to_floats()) for r in rayset.rays]
    for i, j in itertools.combinations(range(len(rayset.rays)), 2):
        assert is_orthogonal(rayset.rays[i], rayset.rays[j]) == is_orthogonal(
            numeric[i], numeric[j]
        )
