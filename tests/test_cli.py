from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lqplan
from lqplan import cli, cover, sequence
from lqplan.cover import MAX_EXACT_CANDIDATES
from lqplan.model import LearnerProfile, LearnerQuantum, LQCloud, LQDictionary, serialize_dictionary


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

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no integer digit limit"
    )
    def test_totals_past_digit_limit_are_invalid_input(self, capsys, write_dict):
        # every cost parses, but two of the longest would total one digit
        # more than a plan can print
        longest = 10 ** sys.get_int_max_str_digits() - 1
        units = [LearnerQuantum("A", "t", (), {"a"}, cost=longest), LearnerQuantum("B", "t", (), {"b"})]
        fits = str(write_dict(LQDictionary("s", units), "fits.json"))
        past = str(write_dict(LQDictionary("s", [units[0], replace(units[1], cost=longest)]), "long.json"))
        for mode in ("greedy", "exact"):
            for fmt in ("text", "json"):
                query = ("plan", "--target", "a,b", "--mode", mode, "--format", fmt)
                code, out, err = run_cli(capsys, *query, "--dict", fits)
                assert (code, err) == (0, "")
                assert str(longest) in out
                code, out, err = run_cli(capsys, *query, "--dict", past)
                assert (code, out) == (2, "")
                assert err == "lqplan: invalid input: cost: the sum over all units has too many digits\n"
        for argv in (("graph", "--target", "a"), ("counsel", "--lq", "A")):
            assert run_cli(capsys, *argv, "--dict", past)[:2] == (2, "")
        assert run_cli(capsys, "validate", fits)[0] == 0
        code, out, _ = run_cli(capsys, "validate", past)
        assert (code, out) == (2, "error: long-total: cost: the sum over all units has too many digits\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read input" in err


# each error class lqplan exports, raised where `validate` parses its file:
# its exit code and the stderr line after "lqplan: "
EXIT_BY_ERROR = [
    (lqplan.CycleDetected(["A", "B"]), 3, "prerequisite cycle: A -> B -> A"),
    (lqplan.EmptyTarget("no target"), 4, "usage error: no target"),
    (lqplan.ExactTooLarge(26, 25), 4,
     "error: exact cover over 26 relevant candidates exceeds the cap of 25; retry in greedy mode"),
    (lqplan.Infeasible(2, {"k1"}), 1, "Infeasible at stage 2: uncovered = k1"),
    # backward_resolve turns NoCover into Infeasible, so no CLI path raises it
    (lqplan.NoCover({"k1"}), 5, "internal error: NoCover: no candidate covers: k1"),
    (lqplan.ParseError("bad"), 2, "invalid input: bad"),
    (lqplan.SchemaError("$.quanta", "missing required key"), 2, "invalid input: $.quanta: missing required key"),
    (lqplan.SpecInvalid("bad spec"), 4, "error: bad spec"),
    (lqplan.UnknownCloud("c"), 4, "error: unknown cloud: c"),
    (lqplan.UnknownLQ("Q"), 4, "error: unknown LQ id: Q"),
]


def test_the_exit_table_names_every_exported_error_class():
    exported = {value for value in vars(lqplan).values() if isinstance(value, type) and issubclass(value, Exception)}
    assert {type(error) for error, _, _ in EXIT_BY_ERROR} == exported - {lqplan.LQPlanError}
    # exit 1 means infeasible and nothing else
    assert [type(error) for error, code, _ in EXIT_BY_ERROR if code == 1] == [lqplan.Infeasible]


@pytest.mark.parametrize("error, expected, line", EXIT_BY_ERROR, ids=[type(row[0]).__name__ for row in EXIT_BY_ERROR])
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, d1_file, error, expected, line):
    def failing(source):
        raise error

    monkeypatch.setattr(cli, "parse_dictionary", failing)  # _cmd_validate looks it up per call
    assert run_cli(capsys, "validate", d1_file) == (expected, "", f"lqplan: {line}\n")


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

    def test_refusal_wording_names_the_component(self, capsys, write_dict):
        # perfbench's worker finds a refused plan by this pattern and
        # retries it in greedy mode, so the wording is part of the interface
        refused = re.compile(r"exact cover over (\d+) relevant candidates exceeds the cap of (\d+)")
        quanta = [LearnerQuantum(f"q{i:02d}", "t", frozenset(), frozenset({"t"})) for i in range(26)]
        quanta += [LearnerQuantum(f"r{i}", "u", frozenset(), frozenset({"u"})) for i in range(3)]
        path = str(write_dict(LQDictionary(subject="wide", quanta=tuple(quanta))))
        code, out, err = run_cli(capsys, "plan", "--dict", path, "--target", "t,u")
        assert (code, out) == (4, "")
        match = refused.search(err)
        assert match and match.groups() == ("26", str(MAX_EXACT_CANDIDATES))

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

    def test_lone_surrogate_token_rejected(self, capsys, d1_file):
        # a non-UTF-8 byte in an argument decodes to a lone surrogate
        code, _, err = run_cli(capsys, "plan", "--dict", d1_file, "--known", "k1,k\udcff", "--target", "k3")
        assert code == 4
        assert err == (
            "lqplan: usage error: knowledge factor 'k\\udcff' holds a lone surrogate,"
            " which is not a Unicode character\n"
        )

    @pytest.mark.parametrize("target", ["", ","])
    @pytest.mark.parametrize("subcommand", ["plan", "graph"])
    def test_empty_target_rejected(self, capsys, monkeypatch, d1_file, subcommand, target):
        # the library refuses an empty target and the CLI only reports it
        resolve, asked = cover.backward_resolve, []

        def spy(profile, *args):
            asked.append(profile.target)
            return resolve(profile, *args)

        monkeypatch.setattr(cover, "backward_resolve", spy)
        code, out, err = run_cli(capsys, subcommand, "--dict", d1_file, "--target", target)
        assert (code, out) == (4, "")
        assert err == "lqplan: usage error: planning query requires a non-empty target set\n"
        assert asked == [frozenset()]

    @pytest.mark.parametrize(
        "module, step",
        [(cover, "backward_resolve"), (sequence, "build_digraph"), (sequence, "topo_schedule")],
        ids=["backward_resolve", "build_digraph", "topo_schedule"],
    )
    def test_internal_error_exits_5(self, capsys, monkeypatch, d1_file, module, step):
        # a bug in any step of the planner must not pass for a usage error
        # (4) or for an infeasible query (1)
        def broken(*args, **kwargs):
            raise KeyError("k3")

        monkeypatch.setattr(module, step, broken)
        code, out, err = run_cli(capsys, "plan", "--dict", d1_file, "--known", "k1", "--target", "k3")
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

    def test_missing_output_directory_is_a_write_failure(self, capsys, tmp_path):
        prefix = tmp_path / "absent" / "x"
        code, out, err = run_cli(
            capsys, "gen", "--seed", "1", "--lqs", "5", "--kfs", "8", "--out", str(prefix),
        )
        assert (code, out) == (2, "")
        assert err.startswith("lqplan: cannot write output: [Errno 2] ")
        assert err.endswith(f"'{prefix}.dict.json'\n")


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["validate", "{dict}"], 0),
        (["plan", "--dict", "{dict}", "--target", "k3"], 1),
        (["validate", "{bad}"], 2),
        (["plan", "--dict", "{dict}", "--target", ""], 4),
        (["validate", "{broken}"], 5),
    ],
    ids=["ok", "infeasible", "invalid", "usage", "internal"],
)
def test_main_pauses_the_collector_and_restores_it(capsys, monkeypatch, tmp_path, d1_file, collecting, argv,
                                                   expected):
    # every handler reads its input first, so the read sees the collector as the whole command does
    seen = []
    read = cli._read

    def spying_read(path):
        seen.append(gc.isenabled())
        return read(path)

    def broken(*args, **kwargs):
        raise KeyError("k3")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    monkeypatch.setattr(cli, "_read", spying_read)
    if "{broken}" in argv:
        monkeypatch.setattr(cli, "validate_dictionary", broken)
    paths = {"{dict}": d1_file, "{bad}": str(bad), "{broken}": d1_file}
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        code, _, _ = run_cli(capsys, *(paths.get(arg, arg) for arg in argv))
        assert code == expected
        assert seen == [False]
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_a_write_failure(d1_file):
    err = io.StringIO()
    with contextlib.redirect_stdout(_BrokenPipe()), contextlib.redirect_stderr(err):
        code = cli.main(["plan", "--dict", d1_file, "--known", "k1", "--target", "k3", "--format", "json"])
    assert code == 2
    assert err.getvalue() == "lqplan: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "field, value, argv, where",
    [
        # each of these printed part of its output, then exited 5
        ("id", "C\udc00", ["plan", "--known", "k1", "--target", "k3"], "$.quanta[2].id"),
        ("title", "Direct \ud800route", ["plan", "--known", "k1", "--target", "k3", "--format", "dot"],
         "$.quanta[2].title"),
        ("duplicate id", "\udc00", ["validate"], "$.quanta[3].id"),
        # the byte 0xff of a --out prefix, which the OS takes but a UTF-8 stdout cannot print;
        # this wrote both files, then exited 5
        ("out", "x\udcff", ["gen", "--seed", "1", "--lqs", "5", "--kfs", "6", "--out"], None),
    ],
)
def test_lone_surrogate_is_invalid_input(d1, tmp_path, field, value, argv, where):
    if field == "out":
        argv = argv + [str(tmp_path / value)]
    else:
        quanta = list(d1.quanta)
        if field == "duplicate id":
            quanta += [replace(quanta[0], id=value), replace(quanta[1], id=value)]
        else:
            quanta[2] = replace(quanta[2], **{field: value})
        path = tmp_path / "lone.json"
        path.write_bytes(serialize_dictionary(LQDictionary("s", tuple(quanta))))
        assert b"\\ud" in path.read_bytes()
        argv = argv[:1] + ([str(path)] if argv[0] == "validate" else ["--dict", str(path)]) + argv[1:]
    # a strict UTF-8 stdout, as under any UTF-8 locale; StringIO accepts any str
    result = subprocess.run(
        [sys.executable, "-m", "lqplan", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    assert (result.returncode, result.stdout) == (2, "")
    if where is None:
        assert result.stderr.startswith("lqplan: cannot write output: ")
        assert result.stderr.endswith("surrogates not allowed\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [value + ".dict.json", value + ".profile.json"]
    else:
        assert result.stderr.startswith(f"lqplan: invalid input: {where}: ")
        assert result.stderr.endswith("holds a lone surrogate, which is not a Unicode character\n")


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


def test_shared_options_read_the_same_on_every_subcommand():
    """``--dict``, ``--known`` and ``--target`` carry the same help text,
    default and requiredness on every subcommand that takes them."""
    subs = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    for option, takers in (("--dict", {"plan", "counsel", "graph"}), ("--known", {"plan", "counsel", "graph"}),
                           ("--target", {"plan", "graph"})):
        actions = {name: sub._option_string_actions.get(option) for name, sub in subs.items()}
        assert {name for name, action in actions.items() if action} == takers
        declared = {(action.help, action.default, action.required) for action in actions.values() if action}
        assert len(declared) == 1, (option, declared)
        assert next(iter(declared))[0], option
