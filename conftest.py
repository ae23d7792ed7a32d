"""Fixtures shared by both test roots, ``tests`` and ``perfbench``."""

import sys

import pytest


def _magschro_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "magschro" or name.startswith("magschro.")}


@pytest.fixture(autouse=True)
def _collected_magschro():
    """Put the ``magschro`` modules back as they were before each test.

    The benchmark's self-tests import ``magschro`` afresh, and a test module
    that ran after them would otherwise mix the classes it imported at
    collection with those that an import inside a test finds.
    """
    before = _magschro_modules()
    yield
    for name in _magschro_modules():
        del sys.modules[name]
    sys.modules.update(before)
