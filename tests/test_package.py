import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import torus_cables

from oracles import ORACLES, UNPAIRED

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_every_public_name():
    # __all__ is derived from the lazy export table; every name must resolve
    # to the object its table module defines, and once all are resolved the
    # package namespace holds exactly __all__ besides the layer modules.
    names = torus_cables.__all__
    assert len(names) == len(set(names))
    for module, exported in torus_cables._EXPORTS.items():
        layer = __import__(f"torus_cables.{module}", fromlist=["_"])
        for name in exported:
            assert getattr(torus_cables, name) is getattr(layer, name), name
    public = {
        name
        for name, value in vars(torus_cables).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
    assert set(names) <= set(dir(torus_cables))
    with pytest.raises(AttributeError):
        torus_cables.no_such_name


def test_every_public_callable_has_an_oracle_or_a_reason():
    # Each public callable is exactly one of: a closed form registered in
    # oracles.py with its oracles and families, an oracle registered there,
    # or a name UNPAIRED lists under its reason.
    oracles = {oracle for pairs in ORACLES.values() for oracle, _ in pairs}
    unpaired = [name for _, names in UNPAIRED for name in names]
    assert len(unpaired) == len(set(unpaired)) and set(unpaired) <= set(torus_cables.__all__)
    for name in torus_cables.__all__:
        obj = getattr(torus_cables, name)
        if callable(obj):
            paired = obj in ORACLES and all(families for _, families in ORACLES[obj])
            assert [paired, obj in oracles, name in unpaired].count(True) == 1, name


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_test_modules_share_code_only_through_oracles():
    # No test module imports another, and oracles.py imports none of them,
    # function-level imports included.
    paths = sorted((ROOT / "tests").glob("*.py"))
    test_modules = {path.stem for path in paths if path.stem.startswith("test_")}
    imports = [(path.name, name) for path in paths for name in _imported_modules(path)
               if name in test_modules]
    assert not imports, imports


def _loaded_layers(code: str) -> list:
    # A fresh interpreter, so that nothing this test process imported counts.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('torus_cables.'))))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _layers_after(*argv) -> set:
    code = f"import io\nfrom torus_cables import cli\ncli.run({list(argv)!r}, out=io.StringIO(), err=io.StringIO())"
    return {m.split(".", 1)[1] for m in _loaded_layers(code)}


def test_each_command_loads_only_its_layers():
    assert _layers_after("farey", "neighbors", "355/113") == {"farey", "cli"}
    assert _layers_after("farey", "neighbors", "355/113", "--json") == {"farey", "cli"}
    assert _layers_after("bypass", "front", "2/3", "1/0") == {"farey", "bypass", "cli"}
    assert _layers_after("tori", "width", "--pq", "2,5") == {"farey", "torus_knots", "cli"}
    for argv in (("farey", "cf", "4/3"), ("farey", "mediant", "2/3", "1/1"),
                 ("farey", "combine", "2/3", "1/1", "2", "1"), ("farey", "edge", "1/2", "2/3"),
                 ("farey", "intersect", "3/2", "2/3")):
        assert _layers_after(*argv) == {"farey", "cli"}, argv
    for argv in (("tori", "census", "--pq", "2,5", "--slope", "3/4"), ("tori", "profile", "--pq", "2,5", "--k", "3"),
                 ("tori", "locate", "--pq", "2,5", "--slope", "3/4"), ("tori", "interval", "--pq", "2,5", "--n", "2"),
                 ("tori", "indices", "--pq", "2,5", "--bound", "8", "--json")):
        assert _layers_after(*argv) == {"farey", "torus_knots", "cli"}, argv
    for argv in (("classify", "--pq", "2,5", "--rs", "7,5"),
                 ("mountain", "--pq", "2,5", "--rs", "7,5", "--tb-floor", "20", "--json")):
        assert _layers_after(*argv) == {"farey", "torus_knots", "legendrian", "cli"}, argv
    for argv in (("transverse", "--pq", "2,5", "--rs", "7,5"),
                 ("verify", "--suite", "qual4", "--pq", "2,5", "--k", "2", "--m", "3", "--n", "5")):
        assert _layers_after(*argv) == {"farey", "torus_knots", "legendrian", "transverse", "cli"}, argv
    # A usage error stops in argparse, before any handler runs.
    assert _layers_after("verify", "--suite", "bogus", "--k", "1", "--m", "1", "--n", "1") == {"farey", "cli"}


def test_star_import_binds_every_name():
    assert _loaded_layers("import torus_cables") == []
    # A layer module is an attribute of the package, loaded on access.
    assert _loaded_layers("import torus_cables\ntorus_cables.bypass.SIDES") == [
        "torus_cables.bypass", "torus_cables.farey"]
    code = ("ns = {}\nexec('from torus_cables import *', ns)\nimport torus_cables\n"
            "assert sorted(n for n in ns if n != '__builtins__') == sorted(torus_cables.__all__)\n"
            "assert len(torus_cables.__all__) == 53")
    assert len(_loaded_layers(code)) == 5


def test_commands_import_no_dataclasses_inspect_or_typing():
    # Cold start: the value types need none of these modules, and no command
    # reads a slope's Fraction value, so no command pays for importing them.
    # -S keeps site's own imports out of the count.
    argvs = [
        ["farey", "neighbors", "355/113"],
        ["bypass", "front", "3/7", "1/2"],
        ["tori", "census", "--pq", "3,4", "--slope", "5/2"],
        ["classify", "--pq", "2,5", "--rs", "7,5", "--json"],
        ["mountain", "--pq", "2,3", "--rs", "2,5", "--tb-floor", "4"],
        ["transverse", "--pq", "3,4", "--rs", "7,2", "--json"],
        ["verify", "--suite", "qual4", "--pq", "2,5", "--k", "2", "--m", "3", "--n", "5"],
        ["verify", "--suite", "qual1", "--k", "2", "--m", "1", "--n", "4"],
        ["verify", "--suite", "qual2", "--k", "2", "--m", "1", "--n", "4"],
    ]
    code = (f"import io, sys\nfrom torus_cables import cli\nfor argv in {argvs!r}:\n"
            "    assert cli.run(argv, out=io.StringIO(), err=io.StringIO()) == 0, argv\n"
            "print(sorted({'dataclasses', 'fractions', 'inspect', 'typing'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
