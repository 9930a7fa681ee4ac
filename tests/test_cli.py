import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoknots.cli import main
from pseudoknots.diagram import resolve

P1_TEXT = "P(1,6,2,7) P(7,14,8,1) P(13,3,14,2) P(3,9,4,8) P(9,13,10,12) P(11,4,12,5) P(5,10,6,11)\n"
PAPER_FORMAT_SET = (
    "{{0_1,72},{-3_1,10},{3_1,10},{4_1,20},{-5_1,1},{5_1,1},{-5_2,2},{5_2,2},"
    "{-6_1,2},{6_1,2},{-6_2,2},{6_2,2},{-7_7,1},{7_7,1}}"
)


@pytest.fixture()
def p1_file(tmp_path):
    path = tmp_path / "p1.pd"
    path.write_text(P1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_i_kink(tmp_path, capsys):
    f = tmp_path / "kink.gauss"
    f.write_text("Ph1,Pt1\n")
    code, out, _ = run(capsys, "i", str(f))
    assert code == 0 and out.strip() == "empty"


def test_scramble_to_no_crossings_pipes_into_i(tmp_path, capsys):
    # one step of this scramble removes the only crossing; the crossingless
    # diagram is written as `unknot`, which `i` reads back
    f = tmp_path / "kink.gauss"
    f.write_text("Ph1,Pt1\n")
    code, out, _ = run(capsys, "scramble", str(f), "--seed", "4", "--steps", "1")
    assert code == 0 and out == "unknot\n"
    scrambled = tmp_path / "scrambled.gauss"
    scrambled.write_text(out)
    code, out, _ = run(capsys, "i", str(scrambled))
    assert code == 0 and out.strip() == "empty"


def test_i_trefoil_shadow(tmp_path, capsys):
    f = tmp_path / "t.gauss"
    f.write_text("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3\n")
    code, out, _ = run(capsys, "i", str(f))
    assert code == 0
    assert out.count("decoration 0") == 3


def test_i_distinguishes_counterexample(tmp_path, capsys, p1_p2):
    hexes = []
    for i, d in enumerate(p1_p2):
        f = tmp_path / f"p{i}.pd"
        f.write_text(d.to_text())
        code, out, _ = run(capsys, "--format", "json", "i", str(f))
        assert code == 0
        hexes.append(json.loads(out)["canonical"])
    assert hexes[0] != hexes[1]


def test_json_output_of_pd_and_gauss_diagrams(tmp_path, capsys):
    # --format json prints each diagram's to_json_dict
    pd, site, gauss = (tmp_path / name for name in ("k.pd", "site.json", "g.gauss"))
    pd.write_text("P(1,2,2,3) X-(3,4,4,1)\n")
    site.write_text('{"crossing": 0, "tangle": []}\n')
    gauss.write_text("Ph1,O2-,Pt1,U2-\n")
    code, out, _ = run(capsys, "--format", "json", "flype", str(pd), "--site", str(site))
    assert code == 0 and json.loads(out) == {"vertices": [
        {"id": 0, "kind": "precrossing", "edges": [1, 2, 2, 3]},
        {"id": 1, "kind": "classical", "sign": -1, "edges": [3, 4, 4, 1]},
    ]}
    code, out, _ = run(capsys, "--format", "json", "scramble", str(gauss), "--seed=0", "--steps=0")
    assert code == 0 and json.loads(out) == {"tokens": [
        {"id": 1, "role": "head"},
        {"id": 2, "role": "over-origin", "sign": -1},
        {"id": 1, "role": "tail"},
        {"id": 2, "role": "under-target", "sign": -1},
    ]}


def test_wereset_paper_format(p1_file, capsys):
    code, out, _ = run(capsys, "--format", "paper", "wereset", p1_file)
    assert code == 0
    assert out.strip() == PAPER_FORMAT_SET


def test_wereset_repeat_identical_output(p1_file, capsys):
    # the parser and the bundled table are built once per process
    for fmt in ("text", "json", "paper"):
        _, out1, _ = run(capsys, "--format", fmt, "wereset", p1_file)
        _, out2, _ = run(capsys, "--format", fmt, "wereset", p1_file)
        assert out1 == out2


def test_wereset_rejects_gauss(tmp_path, capsys):
    f = tmp_path / "g.gauss"
    f.write_text("Ph1,Pt1\n")
    code, _, err = run(capsys, "wereset", str(f))
    assert code == 2 and "PD" in err


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.pd"
    f.write_text("X+(1,2,3)\n")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2 and "error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "i", "/nonexistent/file.pd")
    assert code == 2


def test_non_utf8_input_exit_2(tmp_path, capsys, monkeypatch):
    f = tmp_path / "bin.pd"
    f.write_bytes(b"\xff\xfe")
    for command in ("i", "wereset", "check", "jones"):
        code, _, err = run(capsys, command, str(f))
        assert code == 2 and "utf-8" in err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    code, _, err = run(capsys, "check", "-")
    assert code == 2 and "utf-8" in err


def test_resolve_and_jones(tmp_path, capsys):
    f = tmp_path / "t.pd"
    f.write_text("P(1,5,2,4) P(3,1,4,6) P(5,3,6,2)\n")
    code, out, _ = run(capsys, "resolve", str(f), "--choices=---")
    assert code == 0
    resolved = tmp_path / "resolved.pd"
    resolved.write_text(out)
    code, out, _ = run(capsys, "jones", str(resolved))
    assert code == 0 and out.strip() == "-t^-4 + t^-3 + t^-1"


def test_resolve_choice_count_error(tmp_path, capsys):
    f = tmp_path / "t.pd"
    f.write_text("P(1,5,2,4) P(3,1,4,6) P(5,3,6,2)\n")
    code, _, err = run(capsys, "resolve", str(f), "--choices=+")
    assert code == 2 and "3 choices" in err


def test_family_flype_round_trip(tmp_path, capsys, p1_p2):
    code, out, _ = run(capsys, "family", "--m", "2", "--n", "2", "--out", str(tmp_path))
    assert code == 0
    pre, post, manifest = out.split()
    assert Path(pre).read_text().strip() == p1_p2[0].to_text()
    code, out, _ = run(capsys, "flype", pre, "--site", manifest)
    assert code == 0
    assert out.strip() == Path(post).read_text().strip()


@pytest.mark.parametrize(
    "site",
    [
        {"crossing": "4", "tangle": "56"},
        {"crossing": 4, "tangle": "56"},
        {"crossing": 4.9, "tangle": [5, 6]},
        {"crossing": True, "tangle": [5, 6]},
        {"crossing": 4, "tangle": [5, True]},
        {"crossing": 4, "tangle": [5.0, 6]},
        {"crossing": 4},
        [4, [5, 6]],
    ],
)
def test_flype_bad_site_file_exit_2(tmp_path, capsys, site):
    # only JSON integers name a crossing or a tangle vertex; family(2, 2)'s
    # site is crossing 4 with tangle [5, 6]
    code, out, _ = run(capsys, "family", "--m", "2", "--n", "2", "--out", str(tmp_path))
    assert code == 0
    pre = out.split()[0]
    site_file = tmp_path / "site.json"
    site_file.write_text(json.dumps(site))
    code, out, err = run(capsys, "flype", pre, "--site", str(site_file))
    assert code == 2 and out == ""
    assert err.startswith("error: bad site file")


def test_family_unwritable_out_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "family", "--m", "2", "--n", "2", "--out", str(blocker / "x"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ")


def test_family_parity_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "family", "--m", "3", "--n", "2", "--out", str(tmp_path))
    assert code == 2 and "even" in err


def test_scramble_deterministic(tmp_path, capsys):
    f = tmp_path / "t.gauss"
    f.write_text("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3\n")
    _, out1, _ = run(capsys, "scramble", str(f), "--seed", "9", "--steps", "12")
    _, out2, _ = run(capsys, "scramble", str(f), "--seed", "9", "--steps", "12")
    assert out1 == out2


def test_scramble_negative_steps_exit_2(tmp_path, capsys):
    f = tmp_path / "t.gauss"
    f.write_text("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3\n")
    code, out, err = run(capsys, "scramble", str(f), "--seed", "1", "--steps", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--steps" in err


def test_render_deterministic(tmp_path, p1_file, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run(capsys, "render", p1_file, "--out", str(out1))[0] == 0
    assert run(capsys, "render", p1_file, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_render_unwritable_exit_2(p1_file, capsys):
    code, _, err = run(capsys, "render", p1_file, "--out", "/nonexistent/dir/x.svg")
    assert code == 2


def test_check_json(tmp_path, capsys):
    f = tmp_path / "k.pd"
    f.write_text("P(1,2,2,3) P(3,4,4,1)\n")
    code, out, _ = run(capsys, "--format", "json", "check", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "pd",
        "crossings": 2,
        "precrossings": 2,
        "classical": 0,
        "evenness": True,
    }


def test_input_format_override(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("Ph1,Pt1\n")
    code, out, _ = run(capsys, "--input-format", "gauss", "i", str(f))
    assert code == 0


def test_unicode_minus_pd_auto_detected(tmp_path, capsys, p1_p2):
    # an all-negative resolution starts with X-; the same file written with
    # U+2212 minus signs must read the same whether detected or forced
    ascii_text = resolve(p1_p2[0], {i: -1 for i in p1_p2[0].precrossing_ids()}).to_text()
    assert ascii_text.startswith("X-(")
    f = tmp_path / "minus.pd"
    f.write_text(ascii_text.replace("X-", "X\u2212") + "\n")
    ascii_file = tmp_path / "ascii.pd"
    ascii_file.write_text(ascii_text + "\n")
    for command in ("check", "jones"):
        detected = run(capsys, command, str(f))
        forced = run(capsys, "--input-format", "pd", command, str(f))
        assert detected[0] == 0 and detected == forced
        assert detected == run(capsys, command, str(ascii_file))


def test_json_outputs_valid(p1_file, capsys):
    code, out, _ = run(capsys, "--format", "json", "wereset", p1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 128
    assert sum(e["count"] for e in payload["entries"]) == 128


def test_table_env_override(p1_file, tmp_path, capsys, monkeypatch):
    from pseudoknots.tables import load_table

    custom = tmp_path / "table.txt"
    custom.write_text(load_table().to_text())
    monkeypatch.setenv("PSEUDOKNOTS_TABLE", str(custom))
    code, out, _ = run(capsys, "--format", "paper", "wereset", p1_file)
    assert code == 0 and out.strip() == PAPER_FORMAT_SET


@pytest.mark.parametrize("via", ["option", "env"])
def test_table_file_is_read_on_every_call(p1_file, tmp_path, capsys, monkeypatch, via):
    from pseudoknots.tables import load_table

    custom = tmp_path / "table.txt"
    full = load_table().to_text()
    custom.write_text(full)
    argv = ["--format", "paper", "wereset", p1_file]
    if via == "option":
        argv += ["--table", str(custom)]
    else:
        monkeypatch.setenv("PSEUDOKNOTS_TABLE", str(custom))
    assert run(capsys, *argv)[:2] == (0, PAPER_FORMAT_SET + "\n")
    # without 7_7 and its mirror, their two resolutions become unknown buckets
    custom.write_text("".join(ln for ln in full.splitlines(True) if "7_7" not in ln))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "7_7" not in out and out.count("unknown[") == 2
    custom.write_text(full)
    assert run(capsys, *argv)[:2] == (0, PAPER_FORMAT_SET + "\n")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"junk\n", "line 1: expected 4 fields"),
        (b"3_1 three 0 -1:1\n", "line 1: invalid literal"),
        (b"0_1 0 yes 0:1\n", "line 1: amphichiral flag"),
        (b"3_1 3 0 -1:1,x\n", "line 1: malformed term"),
        (b"3_1 3 0 -9:-1,-5:1,-3:1\n", "mirror entry missing"),
        (b"\xff\xfe", "utf-8"),
    ],
)
def test_malformed_table_exit_2(p1_file, tmp_path, capsys, content, message):
    custom = tmp_path / "table.txt"
    custom.write_bytes(content)
    code, _, err = run(capsys, "wereset", p1_file, "--table", str(custom))
    assert code == 2 and message in err


FUZZ_COMMANDS = [
    ["i"],
    ["wereset"],
    ["check"],
    ["jones"],
    ["resolve", "--choices", "+"],
    ["scramble", "--seed", "1", "--steps", "3"],
    pytest.param(["scramble", "--seed", "1", "--steps", "-1"], id="scramble-negative-steps"),
    ["render", "--out", None],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", FUZZ_COMMANDS, ids=lambda c: c[0])
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=40), prefixed=st.booleans())
def test_random_bytes_exit_0_or_2(fuzz_dir, command, data, prefixed):
    # Any input must give a result or a clean user error, never a traceback.
    path = fuzz_dir / "input"
    path.write_bytes((b"P(1,1,2,2) " if prefixed else b"") + data)
    options = [str(fuzz_dir / "out.svg") if arg is None else arg for arg in command[1:]]
    try:
        code = main([command[0], str(path), *options])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)
