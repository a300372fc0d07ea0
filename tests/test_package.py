"""The lazy package namespace: every exported name resolves, on first
access, to the object its submodule defines."""

import importlib

import pytest

import fnteich


def test_every_name_is_the_object_its_submodule_defines():
    assert len(fnteich.__all__) == 65
    for name in fnteich.__all__:
        module = f"fnteich.{fnteich._SUBMODULE[name]}"
        value = getattr(fnteich, name)
        assert value is getattr(importlib.import_module(module), name)
        assert value.__module__ == module, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from fnteich import *", namespace)
    assert set(fnteich.__all__) <= set(namespace)
    assert set(fnteich.__all__) <= set(dir(fnteich))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fnteich.no_such_name
