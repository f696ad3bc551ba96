"""Start-up loads only what is used: `import preorderspace` loads no
submodule, package names load on first access, and each CLI subcommand, run
in a fresh interpreter, loads exactly the modules it needs."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import preorderspace

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SQRT2_FIELD = json.dumps({"min_poly": [-2, 0, 1], "isolating": ["1", "2"]})
P = {"n": 2, "rows": [["1", "0"]]}
PQ = {"p": P, "q": {"n": 2, "rows": [["1", "0"], ["0", "1"]]}}

BASE = {"preorderspace", "preorderspace.cli", "preorderspace.errors",
        "preorderspace.realfield", "preorderspace.linalg", "preorderspace.preorder"}
LATTICE = BASE | {"preorderspace.lattice"}
TOPOLOGY = BASE | {"preorderspace.topology"}
EVERYTHING = LATTICE | TOPOLOGY | {"preorderspace.action", "preorderspace.valuation",
                                   "preorderspace.sampling", "preorderspace.checks"}

# subcommand -> (arguments, stdin JSON, the preorderspace modules it loads)
COMMANDS = {
    "canon": ([], P, BASE),
    "compare": ([], {"p": P, "u": [1, 0], "v": [0, 0]}, BASE),
    "meet": ([], PQ, LATTICE),
    "refines": ([], PQ, LATTICE),
    "distance": (["--m-max", "3"], PQ, TOPOLOGY),
    "witness": (["--field", SQRT2_FIELD, "--m", "3", "--same-type"],
                {"n": 2, "rows": [[["1", "0"], ["0", "1"]]]}, TOPOLOGY),
    "fragment": ([], {"n": 1, "candidates": [["1"], ["-1"]]}, TOPOLOGY),
    "act": ([], {"phi": {"matrix": [["0", "1"], ["1", "0"]]}, "p": P},
            BASE | {"preorderspace.action"}),
    "valuate": ([], {"p": P, "f": {"n": 2, "field": "Q", "terms": [{"e": [0, 1], "c": "1"}]}},
                LATTICE | {"preorderspace.valuation"}),
    "check": (["all", "--cases", "1"], {}, EVERYTHING),
}

# prints the exit code of cli.main on argv[1] with stdin argv[2], the loaded
# preorderspace modules, and whether dataclasses (which imports inspect) loaded
PROBE = """
import contextlib, io, json, sys
sys.stdin = io.StringIO(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    from preorderspace import cli
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "preorderspace"),
                  "dataclasses" in sys.modules]))
"""


def fresh(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_subcommand_loads_only_its_modules(command):
    args, payload, modules = COMMANDS[command]
    code, loaded, dataclasses = json.loads(fresh(PROBE, json.dumps([command] + args),
                                                 json.dumps(payload)))
    assert code == 0
    assert set(loaded) == modules
    assert not dataclasses


def test_help_loads_no_subcommand_module():
    code, loaded, dataclasses = json.loads(fresh(PROBE, json.dumps(["check", "--help"]), "{}"))
    assert code == 0
    assert set(loaded) == BASE
    assert not dataclasses


def test_importing_the_package_loads_no_submodule():
    out = fresh("import sys, preorderspace\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'preorderspace'))")
    assert out.strip() == "['preorderspace']"


def test_every_public_name_resolves():
    for name in preorderspace.__all__:
        value = getattr(preorderspace, name)
        module = sys.modules[f"preorderspace.{preorderspace._SUBMODULE[name]}"]
        assert value is getattr(module, name)
        assert vars(preorderspace)[name] is value  # bound after the first access


def test_dir_lists_the_public_names():
    assert dir(preorderspace) == sorted(preorderspace.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        preorderspace.nope
    assert not hasattr(preorderspace, "_nope")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from preorderspace import *", namespace)
    assert set(preorderspace.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(preorderspace, name) for name in preorderspace.__all__)
