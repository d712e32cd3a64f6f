"""The certificate module: its import fence, and the JSON of one proof trace
per rule kind, pinned byte for byte."""

import ast
import json
import sys
from pathlib import Path

import pytest

from meshcide import certify, coincidence, shading
from meshcide.certify import trace_to_json
from meshcide.coincidence import decide_coincidence
from meshcide.mesh import parse_mesh_pattern


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


class TestImportFence:
    # the modules certify may import; shading only for its probe, which
    # licenses an SSL step
    ALLOWED = {"perm", "mesh", "diagonals"}

    def test_imports_only_the_kernel_modules(self):
        for node in ast.walk(_tree(certify)):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:  # from . import x
                    assert [a.name for a in node.names] == ["shading"]
                else:
                    assert node.module in self.ALLOWED, node.module
            elif isinstance(node, ast.ImportFrom):
                assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name

    def test_shading_is_reached_for_its_probe_only(self):
        tree = _tree(certify)
        uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "shading"]
        probes = [
            n
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == "shading"
        ]
        assert uses and len(uses) == len(probes)
        assert {n.attr for n in probes} == {"shadeable_assignments"}

    @pytest.mark.parametrize("module", [shading, coincidence], ids=["shading", "coincidence"])
    def test_prover_defines_no_certificate_code(self, module):
        owned = {"TraceStep", "ProofTrace", "UnionFind", "verify_trace"}
        for node in ast.walk(_tree(module)):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in owned, node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    assert getattr(target, "id", None) not in owned
        for name in owned & set(vars(module)):
            assert getattr(module, name) is getattr(certify, name), name


# one decided pair per rule kind, with its trace as JSON lines, one a step
TRACE_JSON = {
    "SSL": (
        ("231:(1,0)(3,1)(3,2)", "231:(1,0)(1,1)(3,1)(3,2)"),
        [
            '{"rule": "SSL", "from": {"perm": [2, 3, 1], "mesh": [[1, 0], [3, 1], [3, 2]]}, '
            '"added": [[1, 1]], "assignments": [{"point": [1, 2], "shape": "single", '
            '"dir": "SE", "squares": [[1, 1]]}]}',
        ],
    ),
    "CLOSURE": (
        ("12:(0,0)(1,2)(2,0)", "12:(0,0)(1,1)(1,2)(2,0)"),
        [
            '{"rule": "SSL", "from": {"perm": [1, 2], "mesh": [[0, 0], [1, 2], [2, 0]]}, '
            '"added": [[1, 0]], "assignments": [{"point": [1, 1], "shape": "single", '
            '"dir": "SE", "squares": [[1, 0]]}]}',
            '{"rule": "SSL", "from": {"perm": [1, 2], "mesh": [[0, 0], [1, 2], [2, 0]]}, '
            '"added": [[2, 2]], "assignments": [{"point": [2, 2], "shape": "single", '
            '"dir": "NE", "squares": [[2, 2]]}]}',
            '{"rule": "SSL", "from": {"perm": [1, 2], "mesh": [[0, 0], [1, 2], [2, 0]]}, '
            '"added": [[1, 0], [2, 2]], "assignments": [{"point": [1, 1], "shape": "single", '
            '"dir": "SE", "squares": [[1, 0]]}, {"point": [2, 2], "shape": "single", '
            '"dir": "NE", "squares": [[2, 2]]}]}',
            '{"rule": "SSL", "from": {"perm": [1, 2], "mesh": [[0, 0], [1, 0], [1, 2], [2, 0]]}, '
            '"added": [[1, 1]], "assignments": [{"point": [2, 2], "shape": "single", '
            '"dir": "SW", "squares": [[1, 1]]}]}',
            '{"rule": "CLOSURE", "mesh": [[0, 0], [1, 1], [1, 2], [2, 0]], '
            '"between": [[[0, 0], [1, 2], [2, 0]], [[0, 0], [1, 0], [1, 1], [1, 2], [2, 0]]]}',
        ],
    ),
    "CLASSICAL": (
        ("231", "231:(2,0)(2,1)(2,2)(2,3)"),
        ['{"rule": "CLASSICAL", "pair": [[], [[2, 0], [2, 1], [2, 2], [2, 3]]]}'],
    ),
    "GAMMA": (
        ("12:(0,1)(0,2)(1,1)(1,2)(2,0)", "12:(0,2)(1,0)(1,1)(2,0)(2,1)"),
        [
            '{"rule": "GAMMA", "pair": [[[0, 1], [0, 2], [1, 1], [1, 2], [2, 0]], '
            '[[0, 2], [1, 0], [1, 1], [2, 0], [2, 1]]], "detail": ["id"]}',
        ],
    ),
}


@pytest.mark.parametrize("rule", list(TRACE_JSON))
def test_trace_json_is_pinned(rule):
    pair, lines = TRACE_JSON[rule]
    v = decide_coincidence(*map(parse_mesh_pattern, pair), 5)
    assert v.status == "PROVEN_COINCIDENT"
    assert [json.dumps(step) for step in trace_to_json(v.trace)] == lines
