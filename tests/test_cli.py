from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lqplan import cli
from lqplan.model import LearnerProfile, LearnerQuantum, LQCloud, LQDictionary


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "lqplan", *argv], capture_output=True, text=True)


@pytest.fixture
def d1_file(write_dict, d1):
    return str(write_dict(d1))


class TestValidate:
    def test_ok(self, capsys, d1_file):
        code, out, err = run_cli(capsys, "validate", d1_file)
        assert code == 0
        assert out == "OK: 3 quanta, 0 clouds\n"
        assert err == ""

    def test_duplicate_ids_listed(self, capsys, tmp_path):
        doc = {
            "subject": "s",
            "quanta": [
                {"id": "A", "title": "t", "prerequisites": [], "objectives": ["k1"]},
                {"id": "A", "title": "t", "prerequisites": [], "objectives": ["k2"]},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "duplicate-id" in out

    def test_strict_turns_overlap_into_error(self, capsys, tmp_path):
        doc = {
            "subject": "s",
            "quanta": [
                {"id": "A", "title": "t", "prerequisites": ["k1"], "objectives": ["k1"]}
            ],
        }
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert "warning: prereq-objective-overlap" in out
        code, out, _ = run_cli(capsys, "validate", str(path), "--strict")
        assert code == 2
        assert "error: prereq-objective-overlap" in out

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "invalid input" in err

    def test_duplicate_key_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "dup-key.json"
        path.write_text(
            '{"subject": "s", "quanta": [{"id": "A", "id": "B", "title": "t",'
            ' "prerequisites": [], "objectives": ["k1"]}]}'
        )
        for argv in (("validate", str(path)), ("plan", "--dict", str(path), "--target", "k1")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "lqplan: invalid input: duplicate key 'id'\n"

    def test_deep_nesting_is_invalid_input(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        result = run_module("validate", str(path))
        assert result.returncode == 2
        assert "invalid input" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no integer digit limit"
    )
    def test_oversized_integer_is_invalid_input(self, tmp_path, d1_file):
        path = tmp_path / "huge.json"
        text = Path(d1_file).read_text()
        assert '"cost": 5\n' in text
        path.write_text(text.replace('"cost": 5\n', '"cost": ' + "9" * 5000 + "\n"))
        result = run_module("validate", str(path))
        assert result.returncode == 2
        assert "invalid input" in result.stderr
        assert "Traceback" not in result.stderr
        assert "set_int_max_str_digits" not in result.stderr

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read input" in err


class TestPlan:
    def test_text_output_frozen(self, capsys, d1_file):
        code, out, err = run_cli(
            capsys, "plan", "--dict", d1_file, "--known", "k1", "--target", "k3"
        )
        assert code == 0
        assert err == ""
        assert out == (
            "plan for d1: quanta=1 stages=1\n"
            "  iteration 1: selected=C prereq_union=k1 residual=-\n"
            "  stage 1: C\n"
            "totals: duration_minutes=60 cost=9\n"
        )

    def test_json_output(self, capsys, d1_file):
        code, out, _ = run_cli(
            capsys,
            "plan", "--dict", d1_file, "--known", "k1", "--target", "k3",
            "--metric", "count", "--mode", "exact", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["plan"]["stages"] == [["C"]]
        assert doc["trace"]["solution"] == ["C"]
        assert doc["trace"]["cardinality"] == 1
        assert doc["trace"]["iterations"] == [
            {"index": 1, "selected": ["C"], "k": 1, "prereq_union": ["k1"], "residual": []}
        ]
        assert doc["digraph"] == {
            "nodes": ["C"],
            "edges": [],
            "zero_prereq": ["C"],
            "finish": ["C"],
        }
        assert doc["plan"]["total_duration_minutes"] == 60
        assert doc["plan"]["total_cost"] == 9
        assert doc["reuse_acquired_objectives"] is True

    def test_multi_stage_json(self, capsys, write_dict, d1_prime):
        code, out, _ = run_cli(
            capsys,
            "plan", "--dict", str(write_dict(d1_prime)),
            "--known", "k1", "--target", "k3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["plan"]["stages"] == [["A"], ["B"]]
        assert doc["trace"]["solution"] == ["B", "A"]
        assert [rec["residual"] for rec in doc["trace"]["iterations"]] == [["k2"], []]

    def test_dot_format(self, capsys, d1_file):
        code, out, _ = run_cli(
            capsys, "plan", "--dict", d1_file, "--known", "k1", "--target", "k3",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph prerequisites {")
        assert '"C"' in out

    def test_infeasible_exit_code(self, capsys, d1_file):
        code, out, err = run_cli(
            capsys, "plan", "--dict", d1_file, "--known", "", "--target", "k3"
        )
        assert code == 1
        assert out == ""
        assert "Infeasible at stage 0" in err
        assert "uncovered = k3" in err

    def test_cycle_exit_code(self, capsys, write_dict, cycle_trap):
        dictionary, profile = cycle_trap
        code, _, err = run_cli(
            capsys,
            "plan", "--dict", str(write_dict(dictionary)),
            "--known", "", "--target", ",".join(sorted(profile.target)),
        )
        assert code == 3
        assert "cycle" in err

    def test_cloud_scoping(self, capsys, write_dict, d1):
        scoped = LQDictionary(
            subject=d1.subject,
            quanta=d1.quanta,
            clouds=(LQCloud("core", frozenset({"A", "B"})),),
        )
        path = str(write_dict(scoped))
        code, out, _ = run_cli(
            capsys,
            "plan", "--dict", path, "--known", "k1", "--target", "k3",
            "--cloud", "core", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["plan"]["stages"] == [["A"], ["B"]]
        code, _, err = run_cli(
            capsys,
            "plan", "--dict", path, "--known", "k1", "--target", "k3",
            "--cloud", "nope",
        )
        assert code == 4
        assert "unknown cloud" in err

    def test_strict_residual_flag(self, capsys, write_dict):
        dictionary = LQDictionary(
            subject="strict",
            quanta=(
                LearnerQuantum("A", "a", frozenset(), {"t", "p"}),
                LearnerQuantum("B", "b", {"p"}, {"u"}),
                LearnerQuantum("C", "c", frozenset(), {"p"}),
            ),
        )
        path = str(write_dict(dictionary))
        code, out, _ = run_cli(
            capsys, "plan", "--dict", path, "--target", "t,u", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["trace"]["solution"] == ["A", "B"]
        code, out, _ = run_cli(
            capsys,
            "plan", "--dict", path, "--target", "t,u", "--format", "json",
            "--strict-residual",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trace"]["solution"] == ["A", "B", "C"]
        assert doc["reuse_acquired_objectives"] is False

    def test_exact_pool_cap(self, capsys, write_dict):
        dictionary = LQDictionary(
            subject="wide",
            quanta=tuple(
                LearnerQuantum(f"q{i:02d}", "t", frozenset(), frozenset({"t"}))
                for i in range(26)
            ),
        )
        path = str(write_dict(dictionary))
        code, _, err = run_cli(capsys, "plan", "--dict", path, "--target", "t")
        assert code == 4
        assert "greedy" in err
        code, out, _ = run_cli(
            capsys, "plan", "--dict", path, "--target", "t", "--mode", "greedy",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["plan"]["stages"] == [["q00"]]

    def test_usage_errors(self, capsys, d1_file):
        assert run_cli(capsys, "plan", "--dict", d1_file)[0] == 4
        assert run_cli(capsys, "plan", "--dict", d1_file, "--target", "k3", "--metric", "fast")[0] == 4
        assert run_cli(capsys, "nonsense")[0] == 4
        assert run_cli(capsys)[0] == 4

    @pytest.mark.parametrize("target", ["k1,k 2", "k1,k\u00a02"])  # ASCII space; no-break space
    def test_whitespace_token_rejected(self, capsys, d1_file, target):
        code, _, err = run_cli(capsys, "plan", "--dict", d1_file, "--target", target)
        assert code == 4
        assert "whitespace" in err

    def test_empty_target_rejected(self, capsys, d1_file):
        code, _, err = run_cli(capsys, "plan", "--dict", d1_file, "--target", "")
        assert code == 4
        assert "non-empty" in err

    def test_internal_error_exits_5(self, capsys, monkeypatch, d1_file):
        # a bug inside the planner must not pass for a usage error (4) or
        # for an infeasible query (1)
        def broken(*args, **kwargs):
            raise KeyError("k3")

        monkeypatch.setattr(cli, "backward_resolve", broken)
        code, out, err = run_cli(capsys, "plan", "--dict", d1_file, "--target", "k3")
        assert code == 5
        assert out == ""
        assert err == "lqplan: internal error: KeyError: 'k3'\n"


class TestCounsel:
    def test_text(self, capsys, d1_file):
        code, out, _ = run_cli(capsys, "counsel", "--dict", d1_file, "--known", "k1", "--lq", "B")
        assert code == 0
        assert out == "lq: B\nmissing: k2\nsatisfiable: yes\n"

    def test_json(self, capsys, d1_file):
        code, out, _ = run_cli(
            capsys, "counsel", "--dict", d1_file, "--known", "", "--lq", "A",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"lq": "A", "missing": ["k1"], "satisfiable": False}

    def test_unknown_lq(self, capsys, d1_file):
        code, _, err = run_cli(capsys, "counsel", "--dict", d1_file, "--lq", "ZZ")
        assert code == 4
        assert "unknown LQ" in err


class TestGraph:
    def test_dot_output(self, capsys, write_dict, d1_prime):
        code, out, _ = run_cli(
            capsys,
            "graph", "--dict", str(write_dict(d1_prime)),
            "--known", "k1", "--target", "k3",
        )
        assert code == 0
        assert '"A" -> "B";' in out
        assert "style=filled" in out
        assert "peripheries=2" in out

    def test_infeasible_propagates(self, capsys, write_dict, d1):
        code, _, err = run_cli(
            capsys, "graph", "--dict", str(write_dict(d1)), "--target", "k3"
        )
        assert code == 1
        assert "Infeasible" in err


class TestGen:
    def test_writes_loadable_pair(self, capsys, tmp_path):
        prefix = str(tmp_path / "fix")
        code, out, _ = run_cli(
            capsys, "gen", "--seed", "7", "--lqs", "5", "--kfs", "8",
            "--out", prefix,
        )
        assert code == 0
        assert out == f"{prefix}.dict.json\n{prefix}.profile.json\n"
        from lqplan.model import load_dictionary, parse_profile

        dictionary = load_dictionary((tmp_path / "fix.dict.json").read_bytes())
        profile = parse_profile((tmp_path / "fix.profile.json").read_bytes())
        assert len(dictionary.quanta) == 5
        assert profile.target

    def test_output_is_reproducible(self, capsys, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for prefix in (a / "x", b / "x"):
            run_cli(
                capsys, "gen", "--seed", "11", "--lqs", "6", "--kfs", "9",
                "--flavor", "adversarial", "--out", str(prefix),
            )
        assert (a / "x.dict.json").read_bytes() == (b / "x.dict.json").read_bytes()
        assert (a / "x.profile.json").read_bytes() == (b / "x.profile.json").read_bytes()

    def test_bad_spec(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--seed", "-1", "--lqs", "5", "--kfs", "8",
            "--out", str(tmp_path / "x"),
        )
        assert code == 4
        assert "seed" in err
        assert run_cli(
            capsys, "gen", "--seed", "1", "--lqs", "5", "--kfs", "8",
            "--flavor", "weird", "--out", str(tmp_path / "y"),
        )[0] == 4
        for lqs, kfs, needle in (("100001", "8", "lq_count"), ("5", "100001", "kf_count")):
            code, _, err = run_cli(
                capsys, "gen", "--seed", "1", "--lqs", lqs, "--kfs", kfs, "--out", str(tmp_path / "z"),
            )
            assert code == 4
            assert f"{needle} must be at most 100000" in err
        assert not list(tmp_path.iterdir())


def test_module_entry_point_matches_in_process(capsys, d1_file):
    code, out, _ = run_cli(
        capsys, "plan", "--dict", d1_file, "--known", "k1", "--target", "k3",
        "--format", "json",
    )
    assert code == 0
    result = subprocess.run(
        [sys.executable, "-m", "lqplan", "plan", "--dict", d1_file,
         "--known", "k1", "--target", "k3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == out
