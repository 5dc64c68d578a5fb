"""The package namespace: public names load their submodules on first use."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import shadowlab
import shadowlab.exact
import shadowlab.extremal
import shadowlab.families


def test_every_public_name_is_its_owners_object():
    for name in shadowlab.__all__:
        value = getattr(shadowlab, name)
        owner = value.__module__
        assert owner.startswith("shadowlab."), name
        assert value is getattr(importlib.import_module(owner), name), name


def test_dir_lists_every_public_name():
    assert set(shadowlab.__all__) <= set(dir(shadowlab))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from shadowlab import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(shadowlab.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        shadowlab.no_such_name  # noqa: B018
    assert not hasattr(shadowlab, "_no_such_private_name")


def test_moved_names_have_one_owner():
    assert shadowlab.families.BudgetError is shadowlab.exact.BudgetError
    assert shadowlab.extremal.kk_bound is shadowlab.exact.kk_bound
    assert shadowlab.BudgetError is shadowlab.exact.BudgetError
    assert shadowlab.kk_bound is shadowlab.exact.kk_bound


def test_submodules_load_on_first_use():
    # a bare import loads no submodule; a public name loads its owner only,
    # and a submodule named in a from-import is still imported
    code = (
        "import sys, shadowlab\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('shadowlab.'))\n"
        "print(loaded())\n"
        "shadowlab.decompose\n"
        "print(loaded())\n"
        "from shadowlab import extremal\n"
        "print(loaded())\n"
    )
    src = os.path.dirname(os.path.dirname(shadowlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.splitlines() == [
        "[]",
        "['shadowlab.exact']",
        "['shadowlab.exact', 'shadowlab.extremal', 'shadowlab.families']",
    ]
