"""End-to-end CLI behavior: exit codes, JSON shape, trace stream, errors."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BRIDGE, COLLISION, FAMILY, FAMILY_SOLUTION
from corpus import random_kb
from nemus_icl.cli import main

GOLDEN = Path(__file__).parent / "golden"

# two positives, of which only the first is derivable: no hypothesis survives the merge
MERGE_FAULT = (
    "father(jake, alice).\n#target parent/2.\n"
    "#positive parent(jake, alice).\n#positive parent(zed, zoe).\n#max_body 2.\n"
)

# no task; a constant repeated within one fact, and a unary predicate
FACTS_ONLY = "q(a, b).\nloop(b, b).\nu(a).\n"

# non-ASCII predicate and constant names, which JSON output escapes
NON_ASCII = "père(a, zoë).\npère(zoë, c).\n#target parent/2.\n#positive parent(a, zoë).\n#negative parent(a, c).\n"


def run_cli(*argv, env_extra=None):
    import os

    env = dict(os.environ)
    env["NEMUS_ICL_COLOR"] = "0"
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nemus_icl", *argv],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture
def family_path(tmp_path):
    p = tmp_path / "family.kb"
    p.write_text(FAMILY)
    return str(p)


@pytest.fixture
def collision_path(tmp_path):
    p = tmp_path / "collision.kb"
    p.write_text(COLLISION)
    return str(p)


def test_learn_text_output(family_path):
    proc = run_cli("learn", family_path)
    assert proc.returncode == 0
    lines = {l.strip() for l in proc.stdout.splitlines()}
    assert FAMILY_SOLUTION <= lines
    assert "invented: parent/2" in lines
    assert any(l.startswith("stats: candidates=") for l in lines)


def test_readme_quick_start_transcript_matches_learn(tmp_path):
    """The README's family.kb block, learned, prints the README's transcript
    byte for byte."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    kb = readme.split("`family.kb`:\n\n```prolog\n", 1)[1].split("```", 1)[0]
    transcript = readme.split("```text\n$ nemus-icl learn family.kb\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "family.kb"
    path.write_text(kb)
    proc = run_cli("learn", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, transcript, "")


def test_learn_json_schema(family_path):
    proc = run_cli("learn", family_path, "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert list(doc) == ["hypotheses", "invented", "stats", "config"]
    assert len(doc["hypotheses"]) == 1
    clauses = doc["hypotheses"][0]["clauses"]
    assert {"head": "ancestor(X,Y)", "body": ["parent(X,Z0)", "ancestor(Z0,Y)"]} in clauses
    assert doc["invented"] == ["parent/2"]
    assert set(doc["stats"]) == {"candidates", "pruned", "dropped", "frontier_peak"}
    assert doc["config"]["max_body"] == 2
    assert doc["config"]["target"] == "ancestor/2"
    assert doc["config"]["seed"] is None


def test_text_and_json_agree(family_path):
    text = run_cli("learn", family_path).stdout
    doc = json.loads(run_cli("learn", family_path, "--json").stdout)
    text_clauses = {l.strip() for l in text.splitlines() if l.startswith("  ")}
    json_clauses = set()
    for h in doc["hypotheses"]:
        for c in h["clauses"]:
            body = ", ".join(c["body"])
            json_clauses.add(f"{c['head']} :- {body}." if body else c["head"] + ".")
    assert text_clauses == json_clauses


def test_flag_overrides_directive(family_path):
    doc = json.loads(run_cli("learn", family_path, "--json", "--max-body", "3").stdout)
    assert doc["config"]["max_body"] == 3
    doc2 = json.loads(run_cli("learn", family_path, "--json", "--tau", "0.35").stdout)
    assert doc2["config"]["tau"] == 0.35


def test_seed_flag_accepted(family_path):
    proc = run_cli("learn", family_path, "--seed", "7")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].endswith(" seed=7 trace=False")
    assert json.loads(run_cli("learn", family_path, "--seed", "7", "--json").stdout)["config"]["seed"] == 7


@pytest.mark.parametrize("spelling, problem", [
    ("\u0663", "expected an integer"),  # an Arabic-Indic digit three
    ("1_0", "expected an integer"),
    ("-4", "a number has no sign"),
])
def test_seed_flag_takes_the_directives_number_grammar(family_path, capsys, monkeypatch, spelling, problem):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --seed was read")

    monkeypatch.setattr("nemus_icl.cli.compile_kb", no_work)
    assert main(["learn", family_path, "--seed", spelling]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"nemus-icl: error: --seed {spelling}: {problem}\n"


def test_learn_no_hypothesis_exit_1(tmp_path):
    p = tmp_path / "none.kb"
    p.write_text("q(a, b).\n#target t/2.\n#positive t(c, d).\n")
    proc = run_cli("learn", str(p))
    assert proc.returncode == 1
    assert "no hypothesis" in proc.stdout


def test_trace_stream_is_jsonl(collision_path):
    proc = run_cli("learn", collision_path, "--trace")
    assert proc.returncode == 0
    records = [json.loads(l) for l in proc.stderr.splitlines() if l.strip()]
    assert records
    assert any(r["action"] == "prune" and r["imu"] == "inconsistent" for r in records)
    assert all({"phase", "frontier", "candidate", "imu", "action"} == set(r) for r in records)


def test_check_verified(family_path, tmp_path):
    hyp = tmp_path / "learned.clauses"
    hyp.write_text("\n".join(sorted(FAMILY_SOLUTION)) + "\n")
    proc = run_cli("check", family_path, "--hypothesis", str(hyp))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "Verified"


def test_check_fails(collision_path, tmp_path):
    hyp = tmp_path / "bad.clauses"
    hyp.write_text("p(X) :- p1(X,Y).\n")
    proc = run_cli("check", collision_path, "--hypothesis", str(hyp))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "Fails(p(b))"


def test_check_json(family_path, tmp_path):
    hyp = tmp_path / "learned.clauses"
    hyp.write_text("\n".join(sorted(FAMILY_SOLUTION)) + "\n")
    doc = json.loads(run_cli("check", family_path, "--hypothesis", str(hyp), "--json").stdout)
    assert doc["verdict"] == "Verified" and doc["failed"] is None


def test_check_requires_hypothesis(family_path):
    proc = run_cli("check", family_path)
    assert proc.returncode == 2


def test_check_hypothesis_syntax_error_is_located_in_the_hypothesis(family_path, tmp_path):
    hyp = tmp_path / "bad.clauses"
    hyp.write_text("parent(X,Y) :- father(X,Y).\nparent(X,Y :- mother(X,Y).\n")
    proc = run_cli("check", family_path, "--hypothesis", str(hyp))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"nemus-icl: error: {hyp}:2:12: expected ')', found ':-'\n"


def test_check_unrestricted_clause_is_rendered(tmp_path):
    kb = tmp_path / "t.kb"
    kb.write_text("p(a).\n#target q/1.\n#positive q(a).\n")
    hyp = tmp_path / "loose.clauses"
    hyp.write_text("q(X) :- p(Y).\n")
    proc = run_cli("check", str(kb), "--hypothesis", str(hyp))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"nemus-icl: error: {hyp}: clause is not range-restricted: q(X) :- p(Y).\n"


@pytest.mark.parametrize("clauses, named", [
    ("q(X) :- p(X).\nq(X) :- p(Y).\nq(X).\n", "q(X) :- p(Y)."),
    ("q(X) :- p(X).\nq(X).\nq(X) :- p(Y).\n", "q(X)."),
], ids=["rule-first", "unit-first"])
def test_check_names_the_first_unrestricted_clause_in_file_order(tmp_path, clauses, named):
    kb = tmp_path / "t.kb"
    kb.write_text("p(a).\n#target q/1.\n#positive q(a).\n")
    hyp = tmp_path / "loose.clauses"
    hyp.write_text(clauses)
    proc = run_cli("check", str(kb), "--hypothesis", str(hyp))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"nemus-icl: error: {hyp}: clause is not range-restricted: {named}\n"


@pytest.mark.parametrize("command", ["learn", "check", "enumerate", "dump-nemus"])
def test_input_that_is_not_utf8_exit_2(family_path, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"father(jake, alice).\n\xff\n")
    argv = [command, str(bad)]
    if command == "check":  # the hypothesis file is the one that cannot be read
        argv = [command, family_path, "--hypothesis", str(bad)]
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"nemus-icl: error: cannot read {bad}: ")
    assert proc.stderr.count("\n") == 1


def test_parse_error_exit_2_located(tmp_path):
    p = tmp_path / "bad.kb"
    p.write_text("father(jake alice).\n")
    proc = run_cli("learn", str(p))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"{p}:1:" in proc.stderr
    assert "error" in proc.stderr


@pytest.mark.parametrize("directives, where, msg", [
    pytest.param("#positive t(b, a).\n#negative t(a, b).\n", 4,
                 "negative example t(a,b) already appears as a fact", id="negative-fact"),
    pytest.param("#positive t(b, a).\n#negative t(b, a).\n", 4,
                 "example t(b,a) is both positive and negative", id="positive-and-negative"),
])
def test_contradictory_examples_exit_2_located(tmp_path, directives, where, msg):
    p = tmp_path / "t.kb"
    p.write_text("t(a, b).\n#target t/2.\n" + directives)
    proc = run_cli("learn", str(p))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"nemus-icl: error: {p}:{where}:0: {msg}\n"


def test_missing_file_exit_2(tmp_path):
    proc = run_cli("learn", str(tmp_path / "missing.kb"))
    assert proc.returncode == 2
    assert "missing.kb" in proc.stderr


def test_no_task_exit_2(tmp_path):
    p = tmp_path / "facts.kb"
    p.write_text("q(a, b).\n")
    proc = run_cli("learn", str(p))
    assert proc.returncode == 2
    assert "no learning task" in proc.stderr


def test_dump_nemus(family_path):
    proc = run_cli("dump-nemus", family_path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["constants"][0]["name"] == "jake"
    assert doc["predicates"]["positive"][0]["name"] == "father"


def test_dump_nemus_accepts_facts_only(tmp_path):
    p = tmp_path / "facts.kb"
    p.write_text("q(a, b).\n")
    assert run_cli("dump-nemus", str(p)).returncode == 0


def test_enumerate_stream_and_limit(family_path):
    # the two bias definitions occupy the cap, so allow three clauses total
    proc = run_cli("enumerate", family_path, "--max-clauses", "3", "--limit", "5", "--json")
    assert proc.returncode == 1  # nothing verified in the first five
    doc = json.loads(proc.stdout)
    assert len(doc["candidates"]) == 5
    assert all(row["verdict"] == "Fails" for row in doc["candidates"])
    assert doc["config"]["limit"] == 5


def test_enumerate_cap_consumed_by_prelude_is_empty(family_path):
    doc = json.loads(run_cli("enumerate", family_path, "--json").stdout)
    assert doc["candidates"] == []  # default cap of 2 is spent on the definitions


def test_enumerate_finds_family_solution(family_path):
    proc = run_cli("enumerate", family_path, "--max-clauses", "4", "--max-vars", "3")
    assert proc.returncode == 0
    assert any(l.startswith("Verified") for l in proc.stdout.splitlines())


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_closed_stdout_pipe_exits_141_quietly(family_path, json_flag):
    """A reader that closes stdout after the first row, as `| head -1` does,
    ends the run with 141 (128 + SIGPIPE) and nothing on stderr.  The stream
    is far longer than a pipe buffer, so the writer meets the closed pipe."""
    import os

    with subprocess.Popen(
        [sys.executable, "-m", "nemus_icl", "enumerate", family_path, "--max-clauses", "4", "--max-vars", "3",
         *json_flag],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, NEMUS_ICL_COLOR="0"),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert first and err == b""


def test_no_ansi_when_color_disabled(family_path):
    proc = run_cli("learn", family_path)
    assert "\x1b[" not in proc.stdout


def test_bridge_invention_via_cli(tmp_path):
    p = tmp_path / "bridge.kb"
    p.write_text(BRIDGE)
    doc = json.loads(run_cli("learn", str(p), "--json").stdout)
    assert doc["invented"] == ["inv_0/2"]
    heads = {c["head"] for h in doc["hypotheses"] for c in h["clauses"]}
    assert "inv_0(X,Y)" in heads


@pytest.mark.parametrize("flag, directive", [
    (["--max-body", "0"], "#max_body 0."),
    (["--max-body", "-3"], "#max_body -3."),
    (["--tau", "nan"], "#tau nan."),
    (["--tau", "7"], "#tau 7."),
])
def test_out_of_range_settings_exit_2_as_flag_and_directive(tmp_path, flag, directive):
    plain = tmp_path / "plain.kb"
    plain.write_text("q(a, b).\n#target t/2.\n#positive t(a, b).\n")
    proc = run_cli("learn", str(plain), *flag)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("nemus-icl: error: ")
    with_directive = tmp_path / "directive.kb"
    with_directive.write_text(plain.read_text() + directive + "\n")
    proc = run_cli("learn", str(with_directive))
    assert proc.returncode == 2
    assert proc.stderr.startswith("nemus-icl: error: ")


@pytest.mark.parametrize("name, spelling, accepted", [
    ("max_body", "1_0", False),
    ("max_body", "\u0663", False),  # an Arabic-Indic digit three
    ("max_body", "2.0", False),
    ("max_body", "007", True),
    ("tau", ".5", False),
    ("tau", "0.2_5", False),
    ("tau", "1e-3", False),
    ("tau", "1.", False),
    ("tau", "-0", False),  # in range, but the grammar has no sign
    ("tau", "1", True),
    ("tau", "0.250", True),
])
def test_numeric_flags_accept_what_the_directives_accept(tmp_path, capsys, name, spelling, accepted):
    plain = tmp_path / "plain.kb"
    plain.write_text("q(a, b).\n#target t/2.\n#positive t(a, b).\n")
    directive = tmp_path / "directive.kb"
    directive.write_text(plain.read_text() + f"#{name} {spelling}.\n")
    flag = f"--{name.replace('_', '-')}"
    flag_rc, flag_out, flag_err = main(["learn", str(plain), flag, spelling]), *capsys.readouterr()
    file_rc, file_out, file_err = main(["learn", str(directive)]), *capsys.readouterr()
    assert flag_out == file_out
    if accepted:
        assert (flag_rc, flag_err, file_rc, file_err) == (0, "", 0, "")
    else:
        assert (flag_rc, flag_out, file_rc) == (2, "", 2)
        assert flag_err.startswith(f"nemus-icl: error: {flag} {spelling}: ")
        assert file_err.startswith("nemus-icl: error: ")


@pytest.mark.parametrize("flag", ["--max-clauses", "--max-vars", "--limit"])
@pytest.mark.parametrize("spelling", ["1_0", "\u0663", "2.0", " 2", "-0"])
def test_enumerate_count_flags_take_ascii_digits_only(collision_path, capsys, flag, spelling):
    assert main(["enumerate", collision_path, "--max-vars", "3", "--limit", "5", flag, spelling]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"nemus-icl: error: {flag} {spelling}: ")


@pytest.mark.parametrize("kb_text, flags", [
    pytest.param(FAMILY, ["--max-clauses", "4", "--max-vars", "3", "--limit", "40"], id="family"),
    pytest.param(COLLISION, ["--max-clauses", "2", "--max-vars", "3", "--max-body", "2", "--limit", "40"],
                 id="collision"),
    pytest.param(FAMILY, [], id="no-candidates"),  # the bias prelude spends the cap
    pytest.param(NON_ASCII, ["--max-clauses", "1", "--max-vars", "2", "--limit", "20"], id="non-ascii"),
])
def test_enumerate_json_streams_the_buffered_layout(tmp_path, kb_text, flags):
    p = tmp_path / "kb.kb"
    p.write_text(kb_text, encoding="utf-8")
    streamed = run_cli("enumerate", str(p), "--json", *flags).stdout
    doc = json.loads(streamed)
    assert streamed == json.dumps(doc, indent=2) + "\n"
    assert bool(doc["candidates"]) == bool(flags)


@pytest.mark.parametrize("flag, value, name", [
    ("--limit", "0", "limit"),
    ("--limit", "-2", "limit"),
    ("--max-clauses", "0", "max_clauses"),
    ("--max-clauses", "-1", "max_clauses"),
    ("--max-vars", "0", "max_vars"),
    ("--max-vars", "-1", "max_vars"),
])
def test_enumerate_counts_below_one_exit_2(collision_path, flag, value, name):
    proc = run_cli("enumerate", collision_path, "--max-vars", "3", "--max-body", "2", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"nemus-icl: error: {flag} {value}: {name} must be >= 1\n"


@pytest.mark.parametrize("kb_text", [
    pytest.param(FAMILY, id="family"),
    pytest.param(COLLISION, id="collision"),
    pytest.param(BRIDGE, id="bridge"),  # invention: "invented" is not empty
    pytest.param("q(a, b).\n#target t/2.\n#positive t(c, d).\n", id="no-hypothesis"),
    pytest.param(MERGE_FAULT, id="merge-fault"),
    pytest.param(NON_ASCII, id="non-ascii"),
    *[pytest.param(random_kb(seed), id=f"corpus-{seed}") for seed in range(0, 500, 20)],
])
def test_learn_json_is_written_in_the_json_dumps_layout(tmp_path, capsys, kb_text):
    p = tmp_path / "kb.kb"
    p.write_text(kb_text, encoding="utf-8")
    rc = main(["learn", str(p), "--json"])
    written = capsys.readouterr().out
    doc = json.loads(written)
    assert written == json.dumps(doc, indent=2) + "\n"
    assert rc == (0 if doc["hypotheses"] else 1)


# the phase-2 witness walk, auto-invention under negatives, and a fact that
# repeats a constant, b1(c1, c1); no hypothesis verifies
TRACE_EXIT = {"corpus312": 1}


@pytest.mark.parametrize("name, kb_text", [
    ("family", FAMILY),
    ("collision", COLLISION),
    ("bridge", BRIDGE),
    ("corpus312", random_kb(312)),
    ("corpus424", random_kb(424)),  # an auto-invention that verifies
    ("corpus105", random_kb(105)),
])
def test_trace_stream_matches_golden(tmp_path, name, kb_text):
    p = tmp_path / f"{name}.kb"
    p.write_text(kb_text)
    proc = run_cli("learn", str(p), "--trace")
    assert proc.returncode == TRACE_EXIT.get(name, 0)
    assert proc.stderr == (GOLDEN / f"{name}.trace.jsonl").read_text()


@pytest.mark.parametrize("name", ["chain60", "grid6"])
def test_large_graph_learn_matches_golden(capsys, monkeypatch, name):
    """Graph KBs whose recursive verdicts come from the magic-set rewrite;
    the goldens were taken when verify built every whole least model."""
    monkeypatch.chdir(GOLDEN)  # the JSON echoes the KB path
    assert main(["learn", f"{name}.kb", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.learn.json").read_text()
    assert main(["learn", f"{name}.kb", "--trace"]) == 0
    assert capsys.readouterr().err == (GOLDEN / f"{name}.trace.jsonl").read_text()


@pytest.mark.parametrize("name, kb_text", [
    ("family", FAMILY),
    ("collision", COLLISION),  # negatives fill the negative predicate space
    ("bridge", BRIDGE),
    ("facts_only", FACTS_ONLY),
    ("corpus312", random_kb(312)),
])
def test_dump_nemus_matches_golden(tmp_path, name, kb_text):
    p = tmp_path / f"{name}.kb"
    p.write_text(kb_text)
    proc = run_cli("dump-nemus", str(p))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / f"{name}.nemus.json").read_text()


def test_subcommands_in_one_process_match_fresh_calls(family_path, tmp_path, capsys, monkeypatch):
    """The argparse tree is built once per process; every subcommand, and an
    argparse rejection between them, prints what a fresh process prints."""
    hyp = tmp_path / "learned.clauses"
    hyp.write_text("\n".join(sorted(FAMILY_SOLUTION)) + "\n")
    argvs = [
        ["learn", family_path],
        ["check", family_path, "--hypothesis", str(hyp)],
        ["enumerate", family_path, "--max-clauses", "3", "--limit", "5"],
        ["enumerate", family_path, "--max-vars"],  # argparse exits 2
        ["dump-nemus", family_path],
        ["learn", family_path, "--json"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    fresh = [run_cli(*argv, env_extra={"COLUMNS": "80"}) for argv in argvs]
    assert [proc.returncode for proc in fresh] == [0, 0, 1, 2, 0, 0]
    for _ in range(2):
        for argv, proc in zip(argvs, fresh):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            assert (rc, *capsys.readouterr()) == (proc.returncode, proc.stdout, proc.stderr)
