import gc
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from meshcide import cli, coincidence
from meshcide.cli import main, render
from meshcide.coincidence import partition_meshes
from meshcide.mesh import MeshPattern, default_depth, mesh_pattern_from_json, parse_mesh_pattern
from test_shading import collections_inside, set_collector


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

    @pytest.mark.parametrize(
        "flags, expected",
        [((), "true\noccurrences: 4\n"), (("--json",), '{"contains": true, "occurrences": 4}\n')],
    )
    def test_counts_without_listing(self, capsys, monkeypatch, flags, expected):
        # the occurrences are counted as they stream, never collected in a list
        monkeypatch.setattr(cli, "mesh_occurrences", lambda *a: pytest.fail("listed"))
        code, out, _ = run(capsys, "contains", "213:(0,3)(1,2)(1,3)(3,0)", "42135", *flags)
        assert (code, out) == (0, expected)


class TestErrors:
    def test_bad_perm_exits_2(self, capsys):
        code, _, err = run(capsys, "contains", "213", "4215")
        assert code == 2
        assert "value" in err

    def test_non_ascii_host_exits_2(self, capsys):
        # the Arabic-Indic digits of 132 once parsed as the host 132
        code, out, err = run(capsys, "contains", "21", "\u0661\u0663\u0662")
        assert (code, out) == (2, "")
        assert "bad permutation" in err

    def test_bad_square_named(self, capsys):
        code, _, err = run(capsys, "enc", "231:(7,0)")
        assert code == 2
        assert "(7,0)" in err

    def test_bad_token_named(self, capsys):
        code, _, err = run(capsys, "enc", "231:(1,0)junk")
        assert code == 2
        assert "junk" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"mesh": []}', "perm"),
            ('{"perm": 12}', "perm"),
            ('{"perm": [1,2], "mesh": [1]}', "mesh"),
            ('{"perm": [1,2], "mesh": [[1]]}', "mesh"),
            # a misspelled "mesh" would otherwise read as the classical 21
            ('{"perm": [2, 1], "squares": [[0, 0]]}', "squares"),
        ],
    )
    def test_malformed_json_pattern_exits_2(self, capsys, text, key):
        code, out, err = run(capsys, "enc", text)
        assert code == 2
        assert out == ""
        assert f'"{key}"' in err


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
        assert "reason" not in obj

    # the two UNDECIDED pairs of test_coincidence.TestDecide
    STUBBORN = "123:(0,0)(0,1)(1,0)(2,0)(2,2)(3,0)(3,2)(3,3)"
    UNDECIDED = [
        ((STUBBORN, STUBBORN.replace("(2,2)", "(2,1)(2,2)"), "8"), ["disconnected", 2]),
        (
            ("24153:(0,0)(5,5)", "24153:(0,0)(1,2)(5,5)", "6"),
            ["budget", coincidence._DECIDE_CLOSURE_BUDGET],
        ),
    ]

    @pytest.mark.parametrize("pair, reason", UNDECIDED)
    def test_undecided_says_why(self, capsys, pair, reason):
        first, second, depth = pair
        _, out, _ = run(capsys, "coincident", first, second, "--max-n", depth)
        assert out.splitlines() == [
            "UNDECIDED",
            f"reason: {reason[0]} {reason[1]}",
            f"depth: {depth}",
        ]

    def test_undecided_json_carries_the_reason(self, capsys):
        (first, second, depth), reason = self.UNDECIDED[0]
        _, out, _ = run(capsys, "coincident", first, second, "--max-n", depth, "--json")
        assert json.loads(out) == {"status": "UNDECIDED", "depth": 8, "reason": reason}

    def test_decided_verdicts_carry_no_reason(self, capsys):
        _, out, _ = run(
            capsys, "coincident", "231:(1,0)(3,1)(3,2)", "231:(1,0)(3,2)", "--max-n", "7"
        )
        assert not any(line.startswith("reason") for line in out.splitlines())


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

    def test_negative_budget_exits_2(self, capsys):
        code, out, err = run(capsys, "shade", "12", "--closure", "--budget", "-3")
        assert code == 2 and out == ""
        assert "budget" in err

    @pytest.mark.parametrize("budget", ["-1", "3"])
    def test_budget_without_closure_exits_2(self, capsys, budget):
        code, out, err = run(capsys, "shade", "12", "--budget", budget)
        assert code == 2 and out == ""
        assert "--closure" in err


class TestClosureSteps:
    """Only decide reads a closure's steps; the partition and ``shade
    --closure`` read its meshes, so their closures build no steps."""

    @pytest.fixture
    def asked(self, monkeypatch):
        calls = []
        for module in (cli, coincidence):
            real = module.ssl_closure

            def spy(*args, real=real, module=module, **kwargs):
                calls.append((module.__name__, kwargs.get("steps", "default")))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "ssl_closure", spy)
        return calls

    def test_partition_builds_no_steps(self, asked):
        partition_meshes((1, 2), 4)
        assert asked == [("meshcide.coincidence", False)]

    def test_shade_closure_builds_no_steps(self, capsys, asked):
        _, out, _ = run(capsys, "shade", "12:(2,0)", "--closure")
        assert "12:(0,0)(1,1)(2,0)" in out
        assert asked == [("meshcide.cli", False)]

    def test_decide_keeps_its_steps(self, asked):
        first = parse_mesh_pattern("231:(1,0)(1,1)(3,1)(3,2)")
        second = parse_mesh_pattern("231:(1,0)(3,1)(3,2)")
        verdict = coincidence.decide_coincidence(first, second)
        assert verdict.status == "PROVEN_COINCIDENT" and verdict.trace.steps
        assert asked == [("meshcide.coincidence", "default")]


class TestWitness:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "12:(2,0)", "12")
        assert code == 0
        assert out.strip() == "231 (contains second)"

    def test_same_enc_is_an_error(self, capsys):
        code, _, err = run(capsys, "witness", "231:(1,0)", "231:(1,0)")
        assert code == 2


# sha256 of the ascii drawings of test_ascii_is_pinned
RENDER_DIGEST = "56645b63cda71a0b88d4e7dac80e778819e0fa00448eca992e32640537a97df2"


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

    def test_ascii_is_pinned(self):
        # sha256 of the ascii drawings of 50 seeded meshes per length 1-6,
        # each followed by a blank line
        import random

        digest = hashlib.sha256()
        for k in range(1, 7):
            rng = random.Random(f"render:{k}")
            for _ in range(50):
                p = tuple(rng.sample(range(1, k + 1), k))
                pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
                digest.update(render(pi, "ascii").encode() + b"\n\n")
        assert digest.hexdigest() == RENDER_DIGEST


class TestClassify:
    def test_lines(self, capsys):
        _, out, _ = run(capsys, "classify", "231:(2,0)(2,1)(2,2)(2,3)")
        assert "vincular: true" in out
        assert "sparse: false" in out


# sha256 of the whole report that ``partition`` prints for these arguments
REPORT_DIGESTS = {
    "12 --max-n 7": "a82adeb479576d862b5c4510bbc65a3323fd5badbd6da45831411624896d9c6c",
    "1 --max-n 6": "be01d9390969b80c710d61a1322588d9d074e23ec3c6b3060cccf665f8379f99",
    "123 --max-n 4": "35d4f37157d96e80716f65f91ed9493f55e77fc7903113d54bbe20f8c8a99f9e",
}


class TestPartition:
    def test_small_partition_stdout(self, capsys):
        code, out, _ = run(capsys, "partition", "1", "--max-n", "4", "--threads", "1")
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert "summary" in lines[-1]
        assert lines[-1]["summary"]["classes"] == len(lines) - 1

    def test_threads_flag_is_ignored(self, capsys, monkeypatch):
        argv = ("partition", "1", "--max-n", "4")
        _, plain, _ = run(capsys, *argv)
        _, flagged, _ = run(capsys, *argv, "--threads", "3")
        monkeypatch.setenv("MESHCIDE_THREADS", "3")
        _, env, _ = run(capsys, *argv)
        assert flagged == plain and env == plain
        with pytest.raises(SystemExit):
            run(capsys, "partition", "--help")
        assert "--threads" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("partition", "1234"), "MAX_SIGNATURE_LENGTH"),
            (("partition", "123", "--max-n", "9"), "SIGNATURE_BIT_BUDGET"),
        ],
    )
    def test_signature_limits_exit_2(self, capsys, monkeypatch, argv, limit):
        import meshcide.mesh as mesh

        def no_tables(*args):
            raise AssertionError("a host table was built")

        for name in ("_less_sets", "_occurrence_tables", "_cached_occurrence_tables"):
            monkeypatch.setattr(mesh, name, no_tables)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert limit in err

    @pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
    def test_report_bytes_are_pinned(self, capsys, argv):
        code, out, _ = run(capsys, "partition", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[argv]

    def test_default_depth(self, capsys):
        # the partition's default is decide's: 4 for length 1, 5 for length 2
        for perm, depth in (("1", 4), ("12", 5)):
            code, out, _ = run(capsys, "partition", perm, "--threads", "1")
            assert code == 0
            summary = json.loads(out.splitlines()[-1])["summary"]
            assert summary["n_max"] == default_depth(len(perm)) == depth

    @pytest.mark.parametrize(
        "argv",
        [
            ("partition", "12", "--max-n", "0"),
            ("partition", "1", "--max-n", "-2"),
            ("partition", "1", "--max-n", "10"),
            ("coincident", "12", "123", "--max-n", "0"),
            ("coincident", "12", "12:(0,0)", "--max-n", "0"),
        ],
    )
    def test_depth_outside_limits_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "fingerprint depth" in err and "MAX_DEPTH" in err

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

    def test_stdout_is_the_cache_file(self, capsys, tmp_path, monkeypatch):
        import meshcide.cli as cli

        class Writes(io.StringIO):
            """Stdout that keeps every chunk written to it."""

            def __init__(self):
                super().__init__()
                self.chunks = []

            def write(self, text):
                self.chunks.append(text)
                return super().write(text)

        def partition_stdout(argv):
            stdout = Writes()
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stdout)
                code = main(list(argv))
            # the report goes out one line per write, never joined
            assert all(chunk.count("\n") <= 1 for chunk in stdout.chunks)
            assert len(stdout.chunks) > 1
            return code, stdout.getvalue()

        out_file = tmp_path / "p12.jsonl"
        argv = ("partition", "12", "--max-n", "4", "--out", str(out_file))
        code, out = partition_stdout(argv)
        assert code == 0
        assert out.encode() == out_file.read_bytes()

        calls = []

        def counted_partition(*args, **kwargs):
            calls.append(args)
            return partition_meshes(*args, **kwargs)

        # a rerun over the file recomputes; it never reads the file back
        monkeypatch.setattr(cli, "partition_meshes", counted_partition)
        code, again = partition_stdout(argv)
        assert code == 0 and len(calls) == 1
        assert again == out
        assert again.encode() == out_file.read_bytes()

    def test_forged_proven_record_is_not_trusted(self, capsys, tmp_path):
        out_file = tmp_path / "p12.jsonl"
        argv = ("partition", "12", "--max-n", "4", "--out", str(out_file))
        code, fresh, _ = run(capsys, *argv)
        assert code == 0
        *records, summary = [json.loads(line) for line in fresh.splitlines()]
        # one CONJECTURED record passed off as PROVEN, the summary re-counted
        forged = next(r for r in records if r["status"] == "CONJECTURED")
        blocks = forged.pop("blocks")
        forged["status"] = "PROVEN"
        counts = summary["summary"]
        counts["proven"] += 1
        counts["conjectured"] -= 1
        counts["undecided_pairs"] -= (
            forged["size"] ** 2 - sum(len(block) ** 2 for block in blocks)
        ) // 2
        lines = [json.dumps(r) for r in records] + [json.dumps(summary)]
        out_file.write_text("\n".join(lines) + "\n")
        code, again, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert again == fresh  # freshly proved, not the forged record
        assert out_file.read_text() == fresh

    @pytest.mark.parametrize("separator", [b"\r\n", b"\x0c"])
    def test_cache_line_breaks_still_hit(self, capsys, tmp_path, separator):
        out_file = tmp_path / "p12.jsonl"
        code, fresh, _ = run(capsys, "partition", "12", "--max-n", "4", "--out", str(out_file))
        assert code == 0
        # str.splitlines breaks lines at both, so the file is still a cache
        out_file.write_bytes(out_file.read_bytes().replace(b"\n", separator))
        assert coincidence.load_partition_cache(out_file, (1, 2), 4) == fresh.splitlines()

    @pytest.mark.parametrize(
        "corrupt",
        [
            # a representative square off the 2x2 grid
            lambda record: record["representative"].update(mesh=[[5, 5]]),
            # a record that is a JSON array
            lambda record: [record],
        ],
    )
    def test_malformed_cache_is_recomputed(self, capsys, tmp_path, corrupt):
        out_file = tmp_path / "p1.jsonl"
        argv = ("partition", "1", "--max-n", "4", "--out", str(out_file))
        code, fresh, _ = run(capsys, *argv)
        lines = out_file.read_text().splitlines()
        record = json.loads(lines[0])
        lines[0] = json.dumps(corrupt(record) or record)
        out_file.write_text("\n".join(lines) + "\n")
        code, again, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert again == fresh
        assert out_file.read_text() == fresh  # the cache was rewritten

    def test_cache_that_is_not_utf8_is_recomputed(self, capsys, tmp_path):
        out_file = tmp_path / "p1.jsonl"
        argv = ("partition", "1", "--max-n", "4", "--out", str(out_file))
        code, fresh, _ = run(capsys, *argv)
        out_file.write_bytes(b"\xff" + out_file.read_bytes())
        code, again, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert again == fresh
        assert out_file.read_text() == fresh  # the cache was rewritten

    @pytest.fixture
    def no_partition(self, monkeypatch):
        """Fail the test if the command starts the partition."""
        import meshcide.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("the partition ran")

        monkeypatch.setattr(cli, "partition_meshes", fail)

    def test_out_path_that_is_a_directory_exits_2(self, capsys, tmp_path, no_partition):
        code, out, err = run(capsys, "partition", "1", "--max-n", "4", "--out", str(tmp_path))
        assert code == 2
        assert out == ""  # nothing was computed before the path failed
        assert err.startswith("error: ")
        assert tmp_path.is_dir()

    def test_out_path_in_a_missing_directory_exits_2(self, capsys, tmp_path, no_partition):
        out_file = tmp_path / "missing" / "p1.jsonl"
        code, out, err = run(capsys, "partition", "1", "--max-n", "4", "--out", str(out_file))
        assert code == 2
        assert out == ""  # nothing was computed before the path failed
        assert err.startswith("error: ")
        assert not out_file.exists()

    def test_empty_out_path_exits_2(self, capsys, tmp_path, monkeypatch, no_partition):
        # an empty path is refused like any other that names no regular file
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "partition", "1", "--max-n", "2", "--out", "")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_out_path_that_is_a_device_exits_2(self, capsys, no_partition):
        # a device swallows the report, so reading it back would print nothing
        code, out, err = run(capsys, "partition", "1", "--max-n", "2", "--out", os.devnull)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestPartitionCollector:
    """The partition command, report writing included, runs with the cyclic
    garbage collector paused, and leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was = gc.isenabled()
        yield
        set_collector(was)

    def test_no_collection_runs_inside(self, capsys, tmp_path):
        import meshcide.cli as cli

        argv = ("partition", "123", "--max-n", "3", "--out", str(tmp_path / "r123.jsonl"))
        assert run(capsys, *argv)[0] == 0  # warm-up: tables and caches
        gc.enable()
        assert collections_inside(cli._cmd_partition, lambda: run(capsys, *argv)) == []

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, code", [("partition 12 --max-n 3", 0), ("partition 1234", 2)])
    def test_collector_state_is_restored(self, capsys, enabled, argv, code):
        set_collector(enabled)
        assert run(capsys, *argv.split())[0] == code
        assert gc.isenabled() == enabled


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        a = run(capsys, "enc", "231:(1,0)(3,2)", "--json")
        b = run(capsys, "enc", "231:(1,0)(3,2)", "--json")
        assert a == b


def _readme_commands():
    """The lines of README's "Command line" block, each with the output its
    ``# -> ...`` comment promises, or None."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        comment = line.partition("#")[2].strip()
        yield line, comment[2:].strip() if comment.startswith("->") else None


class TestReadme:
    @pytest.mark.parametrize("line, promised", list(_readme_commands()))
    def test_command_line_block_runs(self, capsys, tmp_path, monkeypatch, line, promised):
        monkeypatch.chdir(tmp_path)  # partition --out writes here
        program, *argv = shlex.split(line, comments=True)
        assert program == "meshcide"
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        if promised is not None:
            assert promised in out.splitlines()
