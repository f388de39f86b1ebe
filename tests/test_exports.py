"""The package's public names: every export resolves, once."""

import uob

REMOVED = [
    "Phase",
    "geometric_phase_sum",
    "quasi_circulant",
    "minimal_central_projections",
    "projection_expectation",
]


def test_every_exported_name_resolves_once():
    assert len(uob.__all__) == len(set(uob.__all__))
    missing = [name for name in uob.__all__ if not hasattr(uob, name)]
    assert missing == []


def test_removed_helpers_are_not_exported():
    assert [name for name in REMOVED if name in uob.__all__ or hasattr(uob, name)] == []
