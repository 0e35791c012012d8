"""Bundled reference ray sets with certified verdicts.

Each entry records where its vector data comes from and the verdicts the
pipeline reproduces for it.  The expected verdicts are not taken on faith
from the literature: the test suite re-derives every one of them from the
bundled coordinates with the coloring search and the independence-number
solver.

Entries:

* ``peres-33`` — 33 rays in dimension 3 with components in
  {0, ±1, ±sqrt(2)}, closed under permutation and sign change; 16 complete
  bases.  An original KS set but not an extended one.  Vector data from
  A. Peres, J. Phys. A 24, L175 (1991).
* ``conway-kochen-31`` — 31 integer rays in dimension 3 with components in
  {0, ±1, ±2}; 17 complete bases.  An original KS set but not an extended
  one.  Reconstructed here as the unique (up to signed coordinate
  permutation) 31-ray critical subset of the 49 integer rays with
  components in {0, ±1, ±2}; the configuration is attributed to J. Conway
  and S. Kochen, described in A. Peres, Quantum Theory: Concepts and
  Methods (Kluwer, 1993), §7-3.
* ``ceg-18`` — 18 integer rays in dimension 4 forming 9 complete bases,
  each ray in exactly 2 of them.  A KS set under both definitions.  Vector
  data from A. Cabello, J. Estebaranz, G. García-Alcaine, Phys. Lett. A
  212, 183 (1996).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .formats import parse_rayset
from .rayset import RaySet

_DATA_PACKAGE = "kscertify.data"


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One bundled ray set: identity, provenance, and expected verdicts."""

    id: str
    title: str
    source: str
    dimension: int
    ray_count: int
    basis_count: int
    original_ks: bool
    extended_ks: bool
    filename: str


_ENTRIES = (
    CatalogEntry(
        id="peres-33",
        title="Peres 33-ray set",
        source=(
            "A. Peres, 'Two simple proofs of the Kochen-Specker theorem', "
            "J. Phys. A 24, L175 (1991)"
        ),
        dimension=3,
        ray_count=33,
        basis_count=16,
        original_ks=True,
        extended_ks=False,
        filename="peres-33.ks",
    ),
    CatalogEntry(
        id="conway-kochen-31",
        title="Conway-Kochen 31-ray set",
        source=(
            "Attributed to J. Conway and S. Kochen; described in A. Peres, "
            "Quantum Theory: Concepts and Methods (Kluwer, 1993), §7-3. "
            "Reconstructed as the unique critical 31-ray subset (up to "
            "signed coordinate permutation) of the 49 integer rays with "
            "components in {0, ±1, ±2}."
        ),
        dimension=3,
        ray_count=31,
        basis_count=17,
        original_ks=True,
        extended_ks=False,
        filename="conway-kochen-31.ks",
    ),
    CatalogEntry(
        id="ceg-18",
        title="Cabello-Estebaranz-García-Alcaine 18-ray set",
        source=(
            "A. Cabello, J. Estebaranz, G. García-Alcaine, 'Bell-Kochen-"
            "Specker theorem: A proof with 18 vectors', Phys. Lett. A 212, "
            "183 (1996)"
        ),
        dimension=4,
        ray_count=18,
        basis_count=9,
        original_ks=True,
        extended_ks=True,
        filename="ceg-18.ks",
    ),
)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    """All bundled entries in a fixed order."""
    return _ENTRIES


def get_entry(entry_id: str) -> CatalogEntry:
    """Look up one entry by id; raises ValueError for unknown ids."""
    for entry in _ENTRIES:
        if entry.id == entry_id:
            return entry
    known = ", ".join(entry.id for entry in _ENTRIES)
    raise ValueError(f"unknown catalog id {entry_id!r}; known ids: {known}")


def load_text(entry_id: str) -> str:
    """The bundled file text of one entry, byte-exact."""
    entry = get_entry(entry_id)
    return (
        resources.files(_DATA_PACKAGE).joinpath(entry.filename).read_text("utf-8")
    )


def load_rayset(entry_id: str) -> RaySet:
    """Parse one bundled entry into a RaySet."""
    return parse_rayset(load_text(entry_id))
