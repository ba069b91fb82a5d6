"""Every name a module exports through __all__, or the benchmark traces, exists;
each submodule exports only its own names; and the README lists every config
key and every package export."""

import importlib
import json
import re
from pathlib import Path

import pytest

from risnoma import cli

_ROOT = Path(__file__).resolve().parent.parent

_MODULES = ["risnoma", "risnoma.analytic", "risnoma.channel", "risnoma.fbl", "risnoma.montecarlo"]


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_submodules_export_only_their_own_names():
    # the risnoma facade gathers names from its submodules; a submodule that
    # re-exported another's names would give one object two homes
    foreign = []
    for module in _MODULES:
        if module == "risnoma":
            continue
        mod = importlib.import_module(module)
        for name in mod.__all__:
            home = getattr(getattr(mod, name), "__module__", None) or ""
            if home.startswith("risnoma.") and home != module:
                foreign.append(f"{module}.{name} from {home}")
    assert foreign == []


def test_channel_exports_the_link_table():
    channel = importlib.import_module("risnoma.channel")
    assert {"Link", "links"} <= set(channel.__all__)
    assert "effective_gain" not in channel.__all__


def test_perfbench_traced_names_exist():
    # the benchmark wraps these module attributes by name; a rename that
    # misses one leaves its layer metrics reading 0 without any error
    layer_map = _ROOT / "perfbench" / "layer_map.json"
    metrics = json.loads(layer_map.read_text(encoding="utf-8"))["metrics"]
    missing = []
    for name in sorted({name for metric in metrics.values() for name in metric["from"]}):
        module, attr = name.split(".")
        if not hasattr(importlib.import_module(f"risnoma.{module}"), attr):
            missing.append(name)
    # the benchmark still wraps cli.run_trials, which cli no longer imports
    assert missing in ([], ["cli.run_trials"])


def test_readme_config_table_lists_every_key():
    # the first column of each row under "### Config keys" names its keys
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    listed = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert listed == cli._ALL_KEYS


def test_readme_library_names_every_export():
    # every name the package exports is named in the README's Library section
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library", 1)[1].split("\n## ", 1)[0]
    risnoma = importlib.import_module("risnoma")
    missing = [
        name for name in risnoma.__all__
        if name != "__version__" and not re.search(rf"\b{name}\b", section)
    ]
    assert missing == []
