"""Every name a module exports through __all__ exists."""

import importlib

import pytest

_MODULES = ["risnoma", "risnoma.analytic", "risnoma.channel", "risnoma.fbl", "risnoma.montecarlo"]


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_channel_exports_the_link_table():
    channel = importlib.import_module("risnoma.channel")
    assert {"Link", "links"} <= set(channel.__all__)
    assert "effective_gain" not in channel.__all__
