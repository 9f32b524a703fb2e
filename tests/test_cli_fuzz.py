"""Fuzzing the CLI in process.

Inputs are the fixture dictionaries, serialized and then mutated (wrong
types, negative or huge numbers, bad tokens, missing, extra or repeated
keys, truncated text), and argument lists drawn from the five
subcommands, their flags and known, foreign or whitespace KF tokens.
Whatever the input, a run must end in a documented exit code other than
5 ("internal error"), print no traceback, and repeat itself byte for byte.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cycle_trap, make_d1, make_d1_prime, make_xy_pair
from lqplan.model import LQCloud, LQDictionary, serialize_dictionary
from test_golden_cli import run_case

D1 = make_d1()
CORPUS = [
    json.loads(serialize_dictionary(d))
    for d in (
        D1,
        LQDictionary("d1-cloud", D1.quanta, (LQCloud("core", frozenset({"A", "B"})),)),
        make_d1_prime(),
        make_xy_pair(),
        make_cycle_trap()[0],
    )
]
ODD_VALUES = (None, True, -1, 0, 10**30, 1.5, "", "a b", "é", "k\udc00", "k1", [], ["k1", 7], {}, {"k": 1})
KF_TOKENS = ("k1", "k2", "k3", "k4", "a", "b", "t1", "t2", "zz", "k 1", " k2 ", "k3\t", " ", "")
LQ_IDS = ("A", "B", "C", "X", "Y", "Z", "ZZ", "a b", "")
odd_values = st.sampled_from(ODD_VALUES).map(copy.deepcopy)  # later mutations must not reach the pool


def rarely(draw) -> bool:
    """True one time in eight, so most runs get past the first check."""
    return draw(st.integers(min_value=0, max_value=7)) == 0


def slots(node, found):
    """Every (container, key) pair in a JSON tree, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        found.append((node, key))
        slots(child, found)
    return found


@st.composite
def mutated_files(draw) -> bytes:
    doc = json.loads(json.dumps(draw(st.sampled_from(CORPUS))))
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 0, 1, 2)))):
        found = slots(doc, [])
        if not found:
            break
        container, key = draw(st.sampled_from(found))
        action = draw(st.sampled_from(("replace", "delete", "extra")))
        if action == "replace":
            container[key] = draw(odd_values)
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container["extra"] = draw(odd_values)
        else:
            container.append(draw(odd_values))
    text = json.dumps(doc)
    if rarely(draw):
        text = text.replace('"id": ', '"id": "Q", "id": ', 1)
    data = text.encode("utf-8")
    if rarely(draw):
        data = data[: draw(st.integers(min_value=0, max_value=len(data)))]
    return data


def kf_list(draw, min_size: int = 0) -> str:
    tokens = KF_TOKENS if rarely(draw) else KF_TOKENS[:8]  # the fixtures' own KFs
    return ",".join(draw(st.lists(st.sampled_from(tokens), min_size=min_size, max_size=4)))


@st.composite
def argvs(draw, dict_path: str, out_prefix: str) -> list[str]:
    sub = draw(st.sampled_from(("validate", "plan", "counsel", "graph", "gen")))
    path = dict_path + ".missing" if rarely(draw) else dict_path
    options: list[list[str]]
    if sub == "validate":
        argv = [sub, path]
        options = [["--strict"], ["--bogus"]]
    elif sub == "gen":
        argv = [sub, "--out", out_prefix]
        for flag, values in (
            ("--seed", ("0", "7", "7", "-1", str(2**64), "x")),
            ("--lqs", ("1", "6", "6", "0", "100001")),
            ("--kfs", ("2", "9", "9", "1", "100001")),
        ):
            if not rarely(draw):
                argv += [flag, draw(st.sampled_from(values))]
        options = [["--flavor", f] for f in ("feasible", "infeasible", "adversarial", "odd")]
    else:
        argv = [sub, "--dict", path, "--known", kf_list(draw)]
        if sub == "counsel":
            argv += ["--lq", draw(st.sampled_from(LQ_IDS))]
            options = [["--format", f] for f in ("text", "json", "dot")]
        else:
            argv += ["--target", kf_list(draw, min_size=1)]
            options = [["--format", "dot"]]
        if sub == "plan":
            options += [["--cloud", c] for c in ("core", "nope")]
            options += [["--metric", m] for m in ("count", "duration", "cost", "weight")]
            options += [["--mode", m] for m in ("exact", "greedy", "fast")]
            options += [["--strict-residual"]] + [["--format", f] for f in ("text", "json")]
    for option in draw(st.lists(st.sampled_from(options), max_size=4)):
        argv += option
    return argv


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_runs_end_in_documented_exits(tmp_path_factory, data):
    workdir = tmp_path_factory.getbasetemp() / "cli-fuzz"
    workdir.mkdir(exist_ok=True)
    dict_path = workdir / "dict.json"
    dict_path.write_bytes(data.draw(mutated_files()))
    argv = data.draw(argvs(str(dict_path), str(workdir / "gen")))
    first = run_case(argv)
    code, _, err = first
    assert code in {0, 1, 2, 3, 4}, (argv, err)
    assert "Traceback" not in err
    assert run_case(argv) == first
