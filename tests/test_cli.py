import json

import pytest

from meshcide.cli import main, render
from meshcide.coincidence import default_partition_depth
from meshcide.mesh import MeshPattern, mesh_pattern_from_json, parse_mesh_pattern


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestContains:
    def test_true_with_count(self, capsys):
        code, out, _ = run(capsys, "contains", "213:(0,3)(1,2)(1,3)(3,0)", "42135")
        assert code == 0
        assert out.splitlines() == ["true", "occurrences: 4"]

    def test_false_still_exit_zero(self, capsys):
        code, out, _ = run(capsys, "contains", "132", "42135")
        assert code == 0
        assert out.splitlines()[0] == "false"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "contains", "213:(0,3)(1,2)(1,3)(3,0)", "42135", "--json"
        )
        assert json.loads(out) == {"contains": True, "occurrences": 4}


class TestErrors:
    def test_bad_perm_exits_2(self, capsys):
        code, _, err = run(capsys, "contains", "213", "4215")
        assert code == 2
        assert "value" in err

    def test_bad_square_named(self, capsys):
        code, _, err = run(capsys, "enc", "231:(7,0)")
        assert code == 2
        assert "(7,0)" in err

    def test_bad_token_named(self, capsys):
        code, _, err = run(capsys, "enc", "231:(1,0)junk")
        assert code == 2
        assert "junk" in err


class TestEnc:
    def test_report_lines(self, capsys):
        code, out, _ = run(capsys, "enc", "231:(1,1)(2,0)(3,1)")
        assert code == 0
        assert out.strip() == "NE (2,0)-(3,1) len=2"

    def test_pointless_lines(self, capsys):
        _, out, _ = run(capsys, "enc", "231:(1,0)(3,2)")
        assert out.splitlines() == ["PT (1,0)", "PT (3,2)"]

    def test_json(self, capsys):
        _, out, _ = run(capsys, "enc", "231:(1,1)(2,0)(3,1)", "--json")
        assert json.loads(out) == {
            "enc": [{"orientation": "NE", "squares": [[2, 0], [3, 1]]}]
        }


class TestCoincident:
    def test_refuted_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "coincident", "231:(1,0)(3,1)(3,2)", "231:(1,0)(3,2)", "--max-n", "7"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "REFUTED"
        assert "42513" in lines[1]

    def test_proven_json_trace_verifies(self, capsys):
        _, out, _ = run(
            capsys,
            "coincident",
            "231:(1,0)(1,1)(3,1)(3,2)",
            "231:(1,0)(3,1)(3,2)",
            "--json",
        )
        obj = json.loads(out)
        assert obj["status"] == "PROVEN_COINCIDENT"
        assert obj["trace"]


class TestAvoiders:
    def test_count(self, capsys):
        _, out, _ = run(capsys, "avoiders", "132", "4")
        assert out.splitlines()[0] == "count: 14"

    def test_list(self, capsys):
        _, out, _ = run(capsys, "avoiders", "21", "4", "--list")
        assert out.splitlines() == ["count: 1", "1234"]


class TestShade:
    def test_lists_moves(self, capsys):
        _, out, _ = run(capsys, "shade", "12:(2,0)")
        assert "DSL point=(1,1) dir=S squares=(0,0)(1,0)" in out

    def test_closure_membership(self, capsys):
        _, out, _ = run(capsys, "shade", "12:(2,0)", "--closure")
        assert "12:(0,0)(1,1)(2,0)" in out


class TestWitness:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "12:(2,0)", "12")
        assert code == 0
        assert out.strip() == "231 (contains second)"

    def test_same_enc_is_an_error(self, capsys):
        code, _, err = run(capsys, "witness", "231:(1,0)", "231:(1,0)")
        assert code == 2


class TestRender:
    def test_ascii_single_point(self, capsys):
        _, out, _ = run(capsys, "render", "1")
        assert out.rstrip("\n") == "\n".join(
            ["+-+-+", "|.|.|", "+-o-+", "|.|.|", "+-+-+"]
        )

    def test_ascii_single_square(self, capsys):
        _, out, _ = run(capsys, "render", "231:(1,0)")
        assert out.count("#") == 1

    def test_json_round_trip(self, capsys):
        pi = parse_mesh_pattern("231:(1,0)(3,2)")
        assert mesh_pattern_from_json(json.loads(render(pi, "json"))) == pi

    def test_tikz_shape(self, capsys):
        _, out, _ = run(capsys, "render", "231:(1,0)", "--format", "tikz")
        assert out.startswith("\\begin{tikzpicture}")
        assert "\\fill[lightgray]" in out
        assert out.rstrip().endswith("\\end{tikzpicture}")

    def test_json_round_trip_many(self):
        import random

        rng = random.Random(37)
        for _ in range(40):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            assert mesh_pattern_from_json(json.loads(render(pi, "json"))) == pi


class TestClassify:
    def test_lines(self, capsys):
        _, out, _ = run(capsys, "classify", "231:(2,0)(2,1)(2,2)(2,3)")
        assert "vincular: true" in out
        assert "sparse: false" in out


class TestPartition:
    def test_small_partition_stdout(self, capsys):
        code, out, _ = run(capsys, "partition", "1", "--max-n", "4", "--threads", "1")
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert "summary" in lines[-1]
        assert lines[-1]["summary"]["classes"] == len(lines) - 1

    def test_default_depth(self, capsys):
        code, out, _ = run(capsys, "partition", "1", "--threads", "1")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["n_max"] == default_partition_depth(1)

    def test_cache_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "p1.jsonl"
        code, first, _ = run(
            capsys, "partition", "1", "--max-n", "4", "--out", str(out_file)
        )
        assert code == 0 and out_file.exists()
        code, second, _ = run(
            capsys, "partition", "1", "--max-n", "4", "--out", str(out_file)
        )
        assert code == 0
        assert first == second  # cached rerun is byte-identical


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        a = run(capsys, "enc", "231:(1,0)(3,2)", "--json")
        b = run(capsys, "enc", "231:(1,0)(3,2)", "--json")
        assert a == b
