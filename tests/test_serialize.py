"""The JSON wire format lives in one module."""
import ast
import os
import re

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "graphcorr")
#: names of document readers and writers (``toeplitz._from_dict``, which
#: takes a delta-basis dict, has no prefix and does not match)
FORMAT_NAME = re.compile(r"\w+_(from|to)_(dict|json)|load_\w+")
#: modules that may import ``json``: ``report`` writes the run artifacts
#: and ``cli`` prints
PRINTERS = {"report", "cli"}


def _imports_json(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.partition(".")[0] == "json" for a in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 \
        and node.module.partition(".")[0] == "json"


def test_only_serialize_reads_or_writes_json():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        module, ext = os.path.splitext(name)
        if ext != ".py" or module == "serialize":
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and FORMAT_NAME.fullmatch(node.name):
                found.append(f"{module}.{node.name}")
            elif module not in PRINTERS and _imports_json(node):
                found.append(f"{module} imports json")
    assert found == []
