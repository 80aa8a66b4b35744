"""Command-line interface: exit codes, output bytes, and option handling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pmc import cli, codec, edt, laws
from pmc import kernel as K
from pmc.kernel import Alphabet, UNIT, obj, state

B = Alphabet("bool", ("t", "f"))
BO = obj(B)


def write_json(path, payload):
    path.write_text(codec.to_text(payload))
    return str(path)


def coin_kernel():
    return state(BO, {"t": Fraction(1, 2), "f": Fraction(1, 2)})


def coin_env(tmp_path):
    return write_json(
        tmp_path / "env.json",
        codec.env_to_json({"bool": B}, {"coin": coin_kernel()}),
    )


def observe_term(tmp_path):
    doc = {
        "op": "compose",
        "terms": [
            {"op": "gen", "name": "coin"},
            {"op": "copy", "obj": ["bool"]},
            {
                "op": "tensor",
                "terms": [
                    {"op": "id", "obj": ["bool"]},
                    {"op": "observe", "obj": ["bool"], "point": ["t"]},
                ],
            },
        ],
    }
    return write_json(tmp_path / "term.json", doc)


# -- eval --------------------------------------------------------------------


def test_eval_outputs_kernel_json(tmp_path, capsys):
    code = cli.main(["eval", observe_term(tmp_path), "--env", coin_env(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    k = codec.kernel_from_json(doc)
    assert k.prob((), "t") == Fraction(1, 2)
    assert k.mass(()) == Fraction(1, 2)


def test_eval_ill_typed_exits_1(tmp_path, capsys):
    term = write_json(
        tmp_path / "bad.json",
        {
            "op": "compose",
            "terms": [
                {"op": "copy", "obj": ["bool"]},
                {"op": "copy", "obj": ["bool"]},
            ],
        },
    )
    code = cli.main(["eval", term, "--env", coin_env(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: IllTyped:")


def test_eval_bad_kernel_exits_1(tmp_path, capsys):
    env = write_json(
        tmp_path / "env.json",
        {
            "kernels": {
                "bad": {
                    "dom": [],
                    "cod": [{"name": "b", "labels": ["t", "f"]}],
                    "rows": [{"in": [], "out": [{"val": ["t"], "p": "5/4"}]}],
                }
            }
        },
    )
    term = write_json(tmp_path / "t.json", {"op": "gen", "name": "bad"})
    assert cli.main(["eval", term, "--env", env]) == 1
    assert "RowMassExceedsOne" in capsys.readouterr().err


def bit_env(tmp_path):
    return write_json(
        tmp_path / "env.json", {"alphabets": [{"name": "bit", "labels": ["0", "1"]}]}
    )


def test_eval_flat_compose_of_3000_terms_exits_0(tmp_path, capsys):
    term = write_json(
        tmp_path / "flat.json",
        {"op": "compose", "terms": [{"op": "id", "obj": ["bit"]}] * 3000},
    )
    assert cli.main(["eval", term, "--env", bit_env(tmp_path)]) == 0
    bit = obj(Alphabet("bit", ("0", "1")))
    assert capsys.readouterr().out == codec.to_text(
        codec.kernel_to_json(K.identity(bit))
    )


def wide_id_eval(tmp_path) -> list[str]:
    """A `python -m pmc.cli eval` command for id over 16 binary factors:
    65,536 rows, about 40 MB of text."""
    term = write_json(tmp_path / "id16.json", {"op": "id", "obj": ["bit"] * 16})
    return [sys.executable, "-m", "pmc.cli", "eval", term, "--env", bit_env(tmp_path)]


def src_env() -> dict:
    src = str(Path(__file__).parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# Runs its arguments as a child and prints that child's peak RSS in KiB.
# Pytest's own RUSAGE_CHILDREN keeps the largest child of the whole session.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KiB on Linux")
def test_eval_streams_large_output_in_bounded_memory(tmp_path):
    # Holding the whole text as one string peaked at about 128 MB.
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *wide_id_eval(tmp_path)],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert int(done.stdout) / 1024 < 90


def test_eval_exits_0_when_the_reader_closes_the_pipe(tmp_path):
    proc = subprocess.Popen(
        wide_id_eval(tmp_path),
        env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize(
    "script",
    [
        ["solve_corpus.py", "--format", "json"],
        ["solve_corpus.py"],
        ["newcomb_noise_sweep.py", "--steps", "200"],
    ],
)
def test_scripts_exit_0_when_the_reader_closes_the_pipe(script):
    # The pipe is closed before the script has written anything, as in
    # `python scripts/solve_corpus.py --format json | true`.
    path = Path(__file__).parent.parent / "scripts" / script[0]
    proc = subprocess.Popen(
        [sys.executable, str(path), *script[1:]],
        env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize(
    "script",
    [
        ["solve_corpus.py", "nope"],
        ["newcomb_noise_sweep.py", "--steps", "0"],
        ["newcomb_noise_sweep.py", "--steps", "x"],
    ],
)
def test_scripts_exit_1_on_usage_errors(script):
    # argparse's own status, 2, would read as InferenceUndefined.
    path = Path(__file__).parent.parent / "scripts" / script[0]
    proc = subprocess.run(
        [sys.executable, str(path), *script[1:]],
        env=src_env(), capture_output=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"usage:")


def test_eval_deep_compose_exits_1_without_traceback(tmp_path, capsys):
    # Each compose holds the next as its only term: 3000 levels of nesting.
    leaf = '{"op": "id", "obj": ["bit"]}'
    term = tmp_path / "deep.json"
    term.write_text('{"op": "compose", "terms": [' * 3000 + leaf + "]}" * 3000)
    assert cli.main(["eval", str(term), "--env", bit_env(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TermTooDeep:")
    assert "Traceback" not in err


@pytest.mark.parametrize("env", [{"alphabets": 5}, [1]])
def test_eval_malformed_env_exits_1(tmp_path, capsys, env):
    term = write_json(tmp_path / "t.json", {"op": "id", "obj": []})
    path = write_json(tmp_path / "env.json", env)
    assert cli.main(["eval", term, "--env", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError: env")
    assert "Traceback" not in err


def test_eval_missing_file_exits_1(tmp_path, capsys):
    code = cli.main(["eval", str(tmp_path / "absent.json")])
    assert code == 1
    assert "SchemaError" in capsys.readouterr().err


@pytest.mark.parametrize("at", ["diagram", "env", "normalise"])
def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys, at):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    term = write_json(tmp_path / "t.json", {"op": "id", "obj": []})
    argv = {
        "diagram": ["eval", str(bad)],
        "env": ["eval", term, "--env", str(bad)],
        "normalise": ["normalise", str(bad)],
    }[at]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: SchemaError: cannot read {bad}: ")
    assert "Traceback" not in err


# -- normalise / invert / update --------------------------------------------


def test_normalise_command(tmp_path, capsys):
    k = state(BO, {"t": Fraction(1, 4), "f": Fraction(1, 4)})
    path = write_json(tmp_path / "k.json", codec.kernel_to_json(k))
    assert cli.main(["normalise", path]) == 0
    out = codec.kernel_from_json(json.loads(capsys.readouterr().out))
    assert out.prob((), "t") == Fraction(1, 2)
    assert out.mass(()) == 1


def test_normalise_rejects_negative_entry_hidden_by_repeat(tmp_path, capsys):
    k = state(BO, {"f": Fraction(1, 2)})
    doc = json.loads(codec.to_text(codec.kernel_to_json(k)))
    doc["rows"][0]["out"] += [
        {"val": ["t"], "p": "-1/2"},
        {"val": ["t"], "p": "1/2"},
    ]
    assert cli.main(["normalise", write_json(tmp_path / "k.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NegativeProbability:")


@pytest.mark.parametrize("label", ["x", "zz"])
def test_normalise_names_a_deep_schema_fault(tmp_path, capsys, label):
    # Schema faults of the whole file come before labels row by row, so
    # an unknown label "zz" in row 0 does not hide row 1's missing "p".
    # The workflow's CLI step runs the same two files.
    doc = {
        "dom": [{"name": "b", "labels": ["t", "f"]}],
        "cod": [{"name": "c", "labels": ["x", "y", "z"]}],
        "rows": [
            {"in": ["t"], "out": [{"val": [label], "p": "1"}]},
            {
                "in": ["f"],
                "out": [
                    {"val": ["x"], "p": "1/4"},
                    {"val": ["y"], "p": "1/4"},
                    {"val": ["z"]},
                ],
            },
        ],
    }
    path = write_json(tmp_path / "k.json", doc)
    assert cli.main(["normalise", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: SchemaError: {path}.rows[1].out[2]: missing key 'p'\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts ints of any length",
)
def test_normalise_rejects_int_past_the_digit_limit(tmp_path, capsys):
    # json.loads raises a plain ValueError for an int of over 4300 digits.
    text = codec.to_text(codec.kernel_to_json(coin_kernel()))
    path = tmp_path / "k.json"
    path.write_text(text.replace('"1/2"', "1" * 5000, 1))
    assert cli.main(["normalise", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: SchemaError: {path} is not valid JSON: ")


def invert_files(tmp_path):
    x = Alphabet("x", ("x1", "x2"))
    y = Alphabet("y", ("y1", "y2"))
    prior = state(obj(x), {"x1": Fraction(1, 2), "x2": Fraction(1, 2)})
    channel = K.make_kernel(
        obj(x),
        obj(y),
        {
            "x1": {"y1": Fraction(2, 3), "y2": Fraction(1, 3)},
            "x2": {"y1": Fraction(1, 3), "y2": Fraction(2, 3)},
        },
    )
    return (
        write_json(tmp_path / "prior.json", codec.kernel_to_json(prior)),
        write_json(tmp_path / "channel.json", codec.kernel_to_json(channel)),
    )


def test_invert_command(tmp_path, capsys):
    prior, channel = invert_files(tmp_path)
    assert cli.main(["invert", "--channel", channel, "--prior", prior]) == 0
    inv = codec.kernel_from_json(json.loads(capsys.readouterr().out))
    assert inv.prob(("y1",), "x1") == Fraction(2, 3)
    assert inv.prob(("y2",), "x1") == Fraction(1, 3)


def test_update_pearl(tmp_path, capsys):
    prior, channel = invert_files(tmp_path)
    # Hard evidence "output was y1" as an effect: y -> success probability.
    evidence = write_json(
        tmp_path / "ev.json",
        codec.kernel_to_json(
            K.make_kernel(
                obj(Alphabet("y", ("y1", "y2"))), UNIT, {"y1": {(): 1}}
            )
        ),
    )
    code = cli.main(
        [
            "update",
            "--rule",
            "pearl",
            "--prior",
            prior,
            "--channel",
            channel,
            "--evidence",
            evidence,
        ]
    )
    assert code == 0
    posterior = codec.kernel_from_json(json.loads(capsys.readouterr().out))
    assert posterior.prob((), "x1") == Fraction(2, 3)
    assert posterior.prob((), "x2") == Fraction(1, 3)


def test_update_jeffrey(tmp_path, capsys):
    prior, channel = invert_files(tmp_path)
    target = write_json(
        tmp_path / "target.json",
        codec.kernel_to_json(state(obj(Alphabet("y", ("y1", "y2"))), {"y1": 1})),
    )
    code = cli.main(
        [
            "update",
            "--rule",
            "jeffrey",
            "--prior",
            prior,
            "--channel",
            channel,
            "--evidence",
            target,
        ]
    )
    assert code == 0
    posterior = codec.kernel_from_json(json.loads(capsys.readouterr().out))
    assert posterior.prob((), "x1") == Fraction(2, 3)


def test_update_impossible_evidence_exits_2(tmp_path, capsys):
    x = Alphabet("x", ("x1",))
    y = Alphabet("y", ("y1", "y2"))
    prior = write_json(
        tmp_path / "p.json", codec.kernel_to_json(state(obj(x), {"x1": 1}))
    )
    channel = write_json(
        tmp_path / "c.json",
        codec.kernel_to_json(K.make_kernel(obj(x), obj(y), {"x1": {"y1": 1}})),
    )
    evidence = write_json(
        tmp_path / "e.json",
        codec.kernel_to_json(
            K.make_kernel(obj(y), UNIT, {"y2": {(): 1}})
        ),
    )
    code = cli.main(
        [
            "update",
            "--rule",
            "pearl",
            "--prior",
            prior,
            "--channel",
            channel,
            "--evidence",
            evidence,
        ]
    )
    assert code == 2
    assert "ImpossibleEvidence" in capsys.readouterr().err


def test_update_missing_required_flag_exits_1(tmp_path, capsys):
    prior, channel = invert_files(tmp_path)
    code = cli.main(["update", "--rule", "jeffrey", "--prior", prior, "--channel", channel])
    assert code == 1
    assert "--evidence" in capsys.readouterr().err


# -- solve / corpus ----------------------------------------------------------


def test_solve_tsv_bytes(tmp_path, capsys):
    path = write_json(tmp_path / "newcomb.json", codec.problem_to_json(edt.newcomb()))
    assert cli.main(["solve", path]) == 0
    assert capsys.readouterr().out == (
        "one-box\t1/2\t1000\n"
        "two-box\t1/2\t1\n"
        "prescribed:\tone-box\n"
    )


def test_solve_json_format_stable(tmp_path, capsys):
    path = write_json(tmp_path / "newcomb.json", codec.problem_to_json(edt.newcomb()))
    outs = []
    for _ in range(2):
        assert cli.main(["solve", path, "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["prescribed"] == ["one-box"]
    assert doc["chosen"] == "one-box"
    assert doc["table"][0] == {
        "action": "one-box",
        "mass": "1/2",
        "expected_utility": "1000",
    }


def test_corpus_emits_and_solves(tmp_path, capsys):
    for name in edt.CORPUS:
        assert cli.main(["corpus", name]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == name
        path = write_json(tmp_path / f"{name}.json", doc)
        assert cli.main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"prescribed:\t{edt.solve(edt.CORPUS[name]()).chosen}\n")


def test_corpus_unknown_name(capsys):
    assert cli.main(["corpus", "nopesville"]) == 1
    err = capsys.readouterr().err
    assert "SchemaError" in err
    assert "newcomb" in err  # lists the known names


def test_corpus_printed_table_variant(tmp_path, capsys):
    assert cli.main(["corpus", "death-in-damascus", "--printed-table"]) == 0
    doc = json.loads(capsys.readouterr().out)
    path = write_json(tmp_path / "dd.json", doc)
    assert cli.main(["solve", path]) == 0
    assert capsys.readouterr().out.endswith("prescribed:\tflee\n")


def test_corpus_printed_table_misuse(capsys):
    assert cli.main(["corpus", "newcomb", "--printed-table"]) == 1
    assert "SchemaError" in capsys.readouterr().err


# -- laws --------------------------------------------------------------------


def test_laws_single_law(capsys):
    assert cli.main(["laws", "--law", "comonoid", "--cases", "5"]) == 0
    assert capsys.readouterr().out == "comonoid: pass (5/5)\n"


def test_laws_unknown_law(capsys):
    assert cli.main(["laws", "--law", "flux-capacitance"]) == 1
    assert "UnknownLaw" in capsys.readouterr().err


@pytest.mark.parametrize("law", [["--law", "category"], []])
def test_laws_negative_cases_exits_1(capsys, law):
    assert cli.main(["laws", *law, "--cases", "-3", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: BadParameter: instances -3 is negative\n"


def test_laws_seed_sources(capsys, monkeypatch):
    monkeypatch.setenv("PMC_SEED", "not-a-number")
    assert cli.main(["laws", "--law", "comonoid", "--cases", "2"]) == 1
    assert "SchemaError" in capsys.readouterr().err

    monkeypatch.setenv("PMC_SEED", "11")
    assert cli.main(["laws", "--law", "comonoid", "--cases", "2"]) == 0
    capsys.readouterr()

    # explicit flag wins over the environment variable
    monkeypatch.setenv("PMC_SEED", "not-a-number")
    assert cli.main(["laws", "--law", "comonoid", "--cases", "2", "--seed", "3"]) == 0
    capsys.readouterr()


def test_laws_all_json(capsys):
    assert cli.main(["laws", "--cases", "2", "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [d["law"] for d in docs] == list(laws.REGISTRY)
    assert all(d["failures"] == 0 for d in docs)


def test_laws_failure_exit_code(capsys, monkeypatch):
    def broken(_rng):
        return {"equation": "x = y", "note": "forced failure"}

    monkeypatch.setitem(laws.REGISTRY, "comonoid", broken)
    assert cli.main(["laws", "--law", "comonoid", "--cases", "3"]) == 1
    out = capsys.readouterr().out
    assert "comonoid: FAIL (3/3 failing)" in out
    assert '"case": 0' in out


# -- argument handling -------------------------------------------------------


def test_no_command_exits_1(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()
