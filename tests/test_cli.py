import json

import pytest

from pseudoknots.cli import main

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


def test_wereset_paper_format(p1_file, capsys):
    code, out, _ = run(capsys, "--format", "paper", "wereset", p1_file)
    assert code == 0
    assert out.strip() == PAPER_FORMAT_SET


def test_wereset_repeat_identical_output(p1_file, capsys):
    _, out1, _ = run(capsys, "wereset", p1_file)
    _, out2, _ = run(capsys, "wereset", p1_file)
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
    assert open(pre).read().strip() == p1_p2[0].to_text()
    code, out, _ = run(capsys, "flype", pre, "--site", manifest)
    assert code == 0
    assert out.strip() == open(post).read().strip()


def test_family_parity_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "family", "--m", "3", "--n", "2", "--out", str(tmp_path))
    assert code == 2 and "even" in err


def test_scramble_deterministic(tmp_path, capsys):
    f = tmp_path / "t.gauss"
    f.write_text("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3\n")
    _, out1, _ = run(capsys, "scramble", str(f), "--seed", "9", "--steps", "12")
    _, out2, _ = run(capsys, "scramble", str(f), "--seed", "9", "--steps", "12")
    assert out1 == out2


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
