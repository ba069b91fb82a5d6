"""Every name a module exports through __all__, or the benchmark traces, exists;
each submodule exports only its own names, and its docstring lists exactly
those (cli's, which has no __all__, the names it defines without a leading
underscore); every public entry point refuses a value of the wrong kind by
name; the README lists every config key and every package export, and every
risnoma name it cites resolves; each test module names the module it tests
and reaches the private names of no other; and the literal pool that src
lends Hypothesis's draws is pinned."""

import ast
import functools
import importlib
import importlib.util
import json
import math
import pkgutil
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma import REFERENCE, ScenarioKind, SystemConfig, cli
from risnoma.analytic import (
    avg_blers, avg_psi, diversity_order, effective_gain_cdf, gamma_fit, sinr_cdf, unmodeled,
)
from risnoma.channel import CC, CE, CodeSpec, SinrKind, links
from risnoma.montecarlo import CHUNK_TRIALS, BlerEstimate, psi_exact_vec, run_points, run_trials

_ROOT = Path(__file__).resolve().parent.parent

_MODULES = ["risnoma", "risnoma.analytic", "risnoma.channel", "risnoma.montecarlo"]


def _provided(doc: str) -> list[str]:
    # the public names on the entry lines of a docstring's "Provides:" block;
    # a deeper indent continues the entry above it
    lines = doc.split("Provides:\n", 1)[1].split("\n\n", 1)[0].splitlines()
    entries = [line.split(" -- ", 1)[0] for line in lines if re.match(r"    \S", line)]
    names = [name.strip() for entry in entries for name in entry.split(",")]
    return [name for name in names if not name.startswith("_")]


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_exists(module):
    # and each submodule's docstring lists exactly the names it exports
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    if module != "risnoma":
        assert _provided(mod.__doc__) == mod.__all__


def test_cli_docstring_lists_every_public_name():
    # cli has no __all__, so its docstring lists exactly the names it
    # defines without a leading underscore
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [
        target.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    ]
    assert sorted(_provided(cli.__doc__)) == sorted(name for name in defined if not name.startswith("_"))


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


_T = links(REFERENCE)[0]

# each public entry point's parameters: the name its refusal gives, a value
# it takes, and a call with another value in that place
_PARAMETERS = [
    *(
        (f.name, getattr(REFERENCE, f.name), lambda v, name=f.name: replace(REFERENCE, **{name: v}))
        for f in fields(SystemConfig)
    ),
    ("trial count", 256, lambda v: run_points([REFERENCE], v, 7)),
    ("seed", 7, lambda v: run_points([REFERENCE], 256, v)),
    ("trial count", 256, lambda v: run_trials(REFERENCE, v, 7)),
    ("seed", 7, lambda v: run_trials(REFERENCE, 256, v)),
    ("R", 8, lambda v: gamma_fit(v, 0.8, 1.0)),
    ("lambda_g", 0.8, lambda v: gamma_fit(8, v, 1.0)),
    ("lambda_r", 1.0, lambda v: gamma_fit(8, 0.8, v)),
    ("R", 8, lambda v: diversity_order(v, "cu")),
    ("scheme", "cu", lambda v: diversity_order(8, v)),
    ("link", _T, lambda v: effective_gain_cdf(1.0, v, 8)),
    ("R", 8, lambda v: effective_gain_cdf(1.0, _T, v)),
    ("lam_d", 1.0, lambda v: effective_gain_cdf(1.0, _T._replace(lam_d=v), 8)),
    ("lambda_g", 0.8, lambda v: effective_gain_cdf(1.0, _T._replace(lam_g=v), 8)),
    ("lambda_r", 1.0, lambda v: effective_gain_cdf(1.0, _T._replace(lam_r=v), 8)),
    ("eta", 1.0, lambda v: effective_gain_cdf(1.0, _T._replace(eta=v), 8)),
    ("gain", 1.0, lambda v: avg_psi(CC, REFERENCE, v)),
    ("cfg", REFERENCE, unmodeled),
    ("cfg", REFERENCE, avg_blers),
    ("cfg", REFERENCE, lambda v: avg_psi(CC, v, 1.0)),
    ("cfg", REFERENCE, lambda v: sinr_cdf(1.0, CC, v)),
    ("cfg", REFERENCE, lambda v: run_trials(v, 256, 7)),
    ("cfg", REFERENCE, lambda v: run_points([v], 256, 7)),
    ("kind", CC, lambda v: avg_psi(v, REFERENCE, 1.0)),
    ("kind", CC, lambda v: sinr_cdf(1.0, v, REFERENCE)),
    ("code", REFERENCE.code_e, lambda v: psi_exact_vec([1.0], v)),
]


def _wrong_values(valid) -> list:
    """NaN, both infinities, a bool and a wrong type for any parameter; a
    float, integral and not, for an integer one; its text for a number."""
    wrong = [math.nan, math.inf, -math.inf, True, None]
    if isinstance(valid, int):
        wrong += [float(valid), valid + 0.5]
    if not isinstance(valid, str):
        wrong.append(str(valid))
    return wrong


# values a parameter's range refuses, where that rule is new at the boundary:
# a SINR gain that is not positive
_OUT_OF_RANGE = {"gain": [0.0, -1.0]}

_BOUNDARY_CASES = [
    (name, bad, call)
    for name, valid, call in _PARAMETERS
    for bad in _wrong_values(valid) + _OUT_OF_RANGE.get(name, [])
]


@settings(max_examples=2 * len(_BOUNDARY_CASES), derandomize=True, deadline=None)
@given(st.sampled_from(_BOUNDARY_CASES))
def test_entry_points_refuse_wrong_values_by_name(case):
    # the sampled cases are few enough that every one is drawn; each is
    # refused with a ValueError that names the parameter, before any numpy
    # warning, rather than computed on, stored or failed on later
    name, bad, call = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            call(bad)
    assert re.search(rf"(^|\s){re.escape(name)}\s", str(refused.value)), (name, bad, refused.value)


# the four entry points that read an array of thresholds, by the name each
# refusal gives; gain_threshold for a SIC step and a plain one
_THRESHOLD_READERS = [
    pytest.param("SINR", lambda v: psi_exact_vec(v, REFERENCE.code_e), id="psi_exact_vec"),
    pytest.param("omega", lambda v: sinr_cdf(v, CE, REFERENCE), id="sinr_cdf"),
    pytest.param("t", lambda v: effective_gain_cdf(v, _T, 8), id="effective_gain_cdf"),
    pytest.param("w", lambda v: CE.gain_threshold(v, REFERENCE), id="ce.gain_threshold"),
    pytest.param("w", lambda v: CC.gain_threshold(v, REFERENCE), id="cc.gain_threshold"),
]
_NOT_THRESHOLDS = {
    "text": "1.5",
    "bool": True,
    "bool_array": np.array([True]),
    "complex_array": np.array([1 + 0j]),
    "none": None,
    "mixed_list": [1.0, "x"],
    "int_past_float": 10**400,
    "negative": -1.0,
    "nan": math.nan,
}


@pytest.mark.parametrize("name, call", _THRESHOLD_READERS)
@pytest.mark.parametrize("bad", _NOT_THRESHOLDS.values(), ids=_NOT_THRESHOLDS.keys())
def test_threshold_arrays_refuse_what_is_not_a_threshold_by_name(name, call, bad):
    # text, bools, complex numbers and objects are refused, not converted,
    # and so are negative and NaN entries, before any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            call(bad)
    assert re.search(rf"(^|\s){re.escape(name)}\s", str(refused.value)), (name, bad, refused.value)


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


def test_perfbench_work_counts_read_the_right_arguments(tmp_path, monkeypatch):
    # the benchmark counts work from argument positions: the trials from
    # args[2] of both samplers, the SINR elements from args[0] of psi and
    # the rows from args[1] of _write_csv.  fig4 at one chunk draws once per
    # scenario and evaluates 5 SINRs (4 steps and the MRC sum) per trial at
    # each of its 22 points
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    layers, spans = importlib.import_module("layers"), importlib.import_module("spans")
    tracer = spans.Tracer()
    layers.trace_compute(tracer)
    out = tmp_path / "fig4.csv"
    try:
        assert cli.cmd_fig("fig4", str(out), CHUNK_TRIALS, 1234) == 0
    finally:
        tracer.restore()
    work = {name: row["work"] for name, row in spans.summarize(tracer.spans).items()}
    assert work["channel.sample_aligned"] == CHUNK_TRIALS
    assert work["channel.sample_random_phase"] == CHUNK_TRIALS
    assert work["fbl.psi_exact_vec"] == 22 * 5 * CHUNK_TRIALS
    assert work["cli.write_csv"] == len(out.read_text(encoding="utf-8").splitlines()) - 1


def test_perfbench_preset_pins_hold(tmp_path, monkeypatch, capsys):
    # the benchmark fails a run whose fig preset changes its point or CSV row
    # count from the pins in its _PRESETS; a change that moves them needs a
    # benchmark change first.  Every point simulates in the one run_points
    # call, and none is dropped with a warning
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    workloads = importlib.import_module("workloads")
    simulated = []

    def counting(cfgs, n, seed):
        simulated.append(len(cfgs))
        return run_points(cfgs, n, seed)

    monkeypatch.setattr(cli, "run_points", counting)
    got = {}
    for preset in workloads._PRESETS:
        simulated.clear()
        out = tmp_path / f"{preset}.csv"
        assert cli.cmd_fig(preset, str(out), CHUNK_TRIALS, 1234) == 0
        assert "warning:" not in capsys.readouterr().err
        (points,) = simulated
        got[preset] = (points, len(out.read_text(encoding="utf-8").splitlines()) - 1)
    assert got == workloads._PRESETS


def _imports(path) -> dict[str, str]:
    # the dotted names of the modules and objects a source file imports, each
    # with the name it binds (an unaliased dotted import keeps its dots)
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name: alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"risnoma.{base}" if base else "risnoma"
            names |= {f"{base}.{alias.name}": alias.asname or alias.name for alias in node.names}
    return names


def test_each_evaluation_path_keeps_its_own_parts():
    # channel holds only the model both paths read; the samplers live beside
    # the chunk loop that relies on their draw order, and the gamma fit
    # beside the closed forms that rest on it.  Neither path imports from
    # the other, and no module takes a sampler from another
    analytic, channel, montecarlo = (
        importlib.import_module(f"risnoma.{name}") for name in ("analytic", "channel", "montecarlo")
    )
    homes = {
        "_sample_aligned_batch": montecarlo,
        "_sample_random_phase_batch": montecarlo,
        "gamma_fit": analytic,
    }
    assert {name: getattr(mod, name).__module__ for name, mod in homes.items()} == {
        name: mod.__name__ for name, mod in homes.items()
    }
    assert [name for name in homes if hasattr(channel, name)] == []
    assert not any(name.startswith("risnoma.montecarlo") for name in _imports(analytic.__file__))
    assert not any(name.startswith("risnoma.analytic") for name in _imports(montecarlo.__file__))
    modules = [importlib.import_module(name) for name in _MODULES]
    assert [name for mod in modules for name in _imports(mod.__file__) if "._sample_" in name] == []


def test_channel_is_the_leaf_that_holds_the_shared_model():
    # the code type and the input readers live with the rest of the model in
    # channel, which imports no other risnoma module and no scipy; psi lives
    # beside the Monte Carlo loop that batches it, and no fbl module is left
    channel = importlib.import_module("risnoma.channel")
    assert importlib.util.find_spec("risnoma.fbl") is None
    assert CodeSpec.__module__ == "risnoma.channel"
    assert psi_exact_vec.__module__ == "risnoma.montecarlo"
    assert [name for name in _imports(channel.__file__) if name.startswith(("risnoma", "scipy"))] == []


def test_each_test_module_names_the_module_it_tests():
    # tests/test_<m>.py tests risnoma.<m>; only the acceptance checks and
    # this suite span modules
    package = importlib.import_module("risnoma")
    known = {m.name for m in pkgutil.iter_modules(package.__path__)} | {"acceptance", "package"}
    stems = sorted(p.stem.removeprefix("test_") for p in (_ROOT / "tests").glob("test_*.py"))
    assert [stem for stem in stems if stem not in known] == []


def test_each_test_module_reaches_only_into_its_own_module():
    # tests/test_<m>.py imports private names from risnoma.<m> alone, and
    # reads none as an attribute of another risnoma module, so a test of
    # another module's internals lives beside that module's tests
    package = importlib.import_module("risnoma")
    modules = {f"risnoma.{m.name}" for m in pkgutil.iter_modules(package.__path__)}
    strays = []
    for path in sorted((_ROOT / "tests").glob("test_*.py")):
        stem = path.stem.removeprefix("test_")
        if stem in ("acceptance", "package"):
            continue
        own = f"risnoma.{stem}"
        imported = _imports(path)
        for name in sorted(imported):
            module, _, attr = name.rpartition(".")
            if module.startswith("risnoma") and module != own and attr.startswith("_"):
                strays.append(f"{path.name}: {name}")
        others = {bound: name for name, bound in imported.items() if name in modules - {own}}
        reaches = [
            node
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in others and node.attr.startswith("_")
        ]
        for node in sorted(reaches, key=lambda node: (node.lineno, node.col_offset)):
            strays.append(f"{path.name}:{node.lineno}: {others[node.value.id]}.{node.attr}")
    assert strays == []


def test_each_part_lives_with_the_path_that_uses_it():
    # the step table holds the four steps both paths run, with no doubled
    # flag: the MRC bound forms its 2*SINR in analytic.  The Monte Carlo
    # interval is a property of the estimate, not a cli helper
    assert [kind.value for kind in SinrKind] == ["cc", "ce", "e1", "e2"]
    assert isinstance(BlerEstimate.half_width, property)
    assert not hasattr(cli, "_half_width")


def _config_rows() -> list[list[str]]:
    # the cells of each row under "### Config keys"
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    return [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]


def test_readme_config_table_lists_every_key():
    # the first column of each row names its keys
    listed = {key for row in _config_rows() for key in re.findall(r"`(\w+)`", row[0])}
    assert listed == cli._ALL_KEYS


def test_readme_scenario_row_lists_every_scenario():
    # the default and meaning cells of the scenario row name exactly the
    # values the config key accepts
    (row,) = [row for row in _config_rows() if row[0].strip() == "`scenario`"]
    listed = {tag for cell in row[1:] for tag in re.findall(r"`(\w+)`", cell)}
    assert listed == {kind.value for kind in ScenarioKind}


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


def _resolves(dotted: str) -> bool:
    # the longest prefix that imports as a module, then one getattr per part
    # after it
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            mod = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        try:
            functools.reduce(getattr, parts[i:], mod)
        except AttributeError:
            return False
        return True
    return False


def test_readme_risnoma_names_resolve():
    # every backticked risnoma.<module>[.<attr>...] in the README, the dotted
    # head of a call included, names what the package has, so a move leaves
    # no stale path in the prose
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"`(risnoma(?:\.\w+)+)", readme)))
    assert names
    assert [name for name in names if not _resolves(name)] == []


def test_readme_library_snippet_runs(monkeypatch):
    # the Library section's code block runs as written, so a signature
    # change cannot leave it stale
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library", 1)[1].split("\n## ", 1)[0]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    names: dict = {}
    exec(compile(snippet, "README.md", "exec"), names)
    assert all(0.0 <= names[key] <= 1.0 for key in ("cu", "ceu_sc", "ceu_mrc"))
    assert names["mc"].n == 1_000_000 and names["mc_baseline"].n == 100_000


# Hypothesis mixes the literals of local modules into its derandomized draws,
# so a literal added to or taken from src can steer a property test onto or
# off a fault.  A change that moves this pool re-pins it and says so.  The
# strings are those test_cli's st.text(max_size=4) can draw
_SRC_INTEGERS = [100, 300, 1024, 1234, 4096, 100000]
_SRC_FLOATS = [
    -0.3, 0.0, 0.001, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.49, 0.5,
    0.8, 1.0, 2.0, 3.0, 4.0, 7.0, 10.0, 12.0, 15.0, 16.0, 40.0, 1e100,
]
_SRC_SHORT_STRINGS = [
    ", ", "...", "CC", "CE", "E1", "E2", "FAIL", "Link", "PASS", "R", "SINR", "SKIP",
    "axis", "beta", "bits", "cc", "ce", "cfg", "cfgs", "code", "cu", "e1", "e2", "eta",
    "eta_", "fig", "fig2", "fig3", "fig4", "fig5", "fig6", "gain", "int", "iuf", "kind",
    "link", "m", "mc", "n_c", "n_e", "run", "seed", "t", "u", "v", "w",
]


def test_hypothesis_literal_pool_of_src_is_pinned():
    try:
        from hypothesis.internal.constants_ast import Constants, _constants_from_source
    except ImportError:
        pytest.skip("this Hypothesis has no constants_ast._constants_from_source")
    pool = Constants()
    for path in sorted((_ROOT / "src" / "risnoma").glob("*.py")):
        pool = pool | _constants_from_source(path.read_text(encoding="utf-8"), limit=False)
    assert sorted(pool.integers) == _SRC_INTEGERS
    assert sorted(pool.floats) == _SRC_FLOATS
    assert sorted(text for text in pool.strings if len(text) <= 4) == _SRC_SHORT_STRINGS
