"""The public names of the package: each resolves, once, and removed ones stay gone."""

import importlib

import pytest

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


def test_dir_lists_every_exported_name():
    assert set(fockdec.__all__) <= set(dir(fockdec))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fockdec import *", namespace)
    assert set(fockdec.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        fockdec.no_such_name


def test_each_name_is_its_defining_module_object():
    for name in fockdec.__all__:
        value = getattr(fockdec, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value, name
