"""The public names of the package: each resolves, once, and removed ones stay gone."""

import fockdec

REMOVED = {"betas_from_wedge", "quantum_integer", "symmetric_lift", "ZeroGramDeterminant"}


def test_every_exported_name_resolves():
    for name in fockdec.__all__:
        assert hasattr(fockdec, name), name


def test_no_duplicate_exports():
    assert len(fockdec.__all__) == len(set(fockdec.__all__))


def test_removed_names_not_exported():
    assert not REMOVED & set(fockdec.__all__)
    assert not any(hasattr(fockdec, name) for name in REMOVED)
