import hashlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoknots.cli import main
from pseudoknots.diagram import resolve
from pseudoknots.flype import family, random_flype_configuration
from pseudoknots.tables import standard_diagrams

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


# sha256 of the stdout of `--format FMT wereset` on each family(m, n)
# shadow; the pre and post shadows of a pair print the same were-set.  Each
# format has its own output path; the text output of (4,4) and (4,6) lists
# 19 and 46 unknown buckets.
WERESET_STDOUT_DIGESTS = {
    (2, 2, "json"): "456e14157c3f0cfe8f342d8fc91c074fc29b5d4404f2909378e6fc677c1a0c61",
    (2, 2, "paper"): "d9b123383a4039884299e174611d7204454141729cd83179a4f5dea00b2b59a2",
    (2, 2, "text"): "33b76f7b24c340e3cb5cc68435b7a9310d786513f5c9536a2195c919e61178ee",
    (2, 4, "json"): "d8d2308d5a599fc1e36bdfaa52623d105a29f350e4bdefc4a769a51710332cb7",
    (2, 4, "paper"): "c602c2badb3f12304e9c9e322580e3d1e8df90052ef027a87f7be24067ea9680",
    (2, 4, "text"): "8bb8ef61c6fdf88616ebf0c862b21205deb581fd5060fb941f118d73afb7f1b1",
    (4, 2, "json"): "d8d2308d5a599fc1e36bdfaa52623d105a29f350e4bdefc4a769a51710332cb7",
    (4, 2, "paper"): "c602c2badb3f12304e9c9e322580e3d1e8df90052ef027a87f7be24067ea9680",
    (4, 2, "text"): "8bb8ef61c6fdf88616ebf0c862b21205deb581fd5060fb941f118d73afb7f1b1",
    (4, 4, "json"): "c29226ddadb8ba2a95a3cfff272dcdbf7c63c92043041bcc2cc27ca98424f1da",
    (4, 4, "paper"): "09ea5ca5ac0dcc34f672bf4a2d62306271e2ef84ff78093175df0bc7909341be",
    (4, 4, "text"): "0800d9cdf2cd8a075b1daa73b7d49898970fedd9f1ebb401e178f15031b2291a",
    (4, 6, "json"): "ed528d03779fe070b966c02456ec59d228d8e1cd6918e51089bc2c7048b0b060",
    (4, 6, "paper"): "9b546e6918f8b5fb49c541040e2023d193f5e252203bb12cbcd5d4c0ebfe23e7",
    (4, 6, "text"): "675194db18f3b5b261473f7df33ea514c7f619051bbbab2da8ec16a117ac82c4",
}

def mixed_diagrams():
    """Shadows resolved by a fixed choice, with a fixed subset of their terms
    turned back into precrossings: diagrams with classical crossings and
    precrossings, which no mirror symmetry folds.  The family(4,4) one keeps
    7 of 11 precrossings and lists 5 unknown buckets."""
    cases = (
        ("family_4_4", family(4, 4)[0], lambda i: i % 3),
        ("random_1", random_flype_configuration(1, 5, 2)[0], lambda i: i % 2),
        ("random_2", random_flype_configuration(2, 5, 2)[0], lambda i: i % 3),
    )
    for name, shadow, back in cases:
        resolved = resolve(shadow, {pid: 1 if pid % 3 else -1 for pid in shadow.precrossing_ids()})
        terms = resolved.to_text().split()
        yield name, " ".join("P" + t[2:] if back(i) else t for i, t in enumerate(terms))


# sha256 of the stdout of `--format FMT wereset` on each `mixed_diagrams()` entry.
MIXED_WERESET_STDOUT_DIGESTS = {
    ("family_4_4", "json"): "c9a1d75f76f5a2b1d3b4c5b20f3a65e5c8f8cc29b28aad73076a167f52510029",
    ("family_4_4", "paper"): "91879728b0a56c982f7bdc35c0b6fe9b41eac161d7e88661073b1d5880522c8b",
    ("family_4_4", "text"): "3455bee84712b0e313e696d982c21c57f3dd61aeb1fe8deadb5a3715be9ec908",
    ("random_1", "json"): "9fd02653c5a0f37339a80e409ef983482c419dbbbde31823374631f5338179d5",
    ("random_1", "paper"): "19bee2811a7a38a66266ef3a429e4721bd48dd392573cc341949aab16fd6b975",
    ("random_1", "text"): "fac5faa859f15a57dc62d98893754ece772f6096bbd4ef39a30e576a208f90a0",
    ("random_2", "json"): "5e2930f413e6e82babcc8d5c26fa19956dc1f53b4467176cadaf1b49f63fdd5f",
    ("random_2", "paper"): "ae1041e97ab94b5d5a68e2ccddba06830ab69ce70fc3f01349b67b80e30fd149",
    ("random_2", "text"): "15e8b7de0c19aa942e214419e5af9f5bdd183c89ece6b50be7440a7faa09c4c5",
}


def test_mixed_wereset_stdout_pinned(tmp_path, capsys):
    for name, text in mixed_diagrams():
        path = tmp_path / f"{name}.pd"
        path.write_text(text + "\n")
        for fmt in ("json", "paper", "text"):
            digest = sha256_of_stdout(capsys, "--format", fmt, "wereset", str(path))
            assert digest == MIXED_WERESET_STDOUT_DIGESTS[name, fmt], (name, fmt)


# sha256 of the concatenated stdout of `--format FMT jones` on every
# `standard_diagrams()` entry after the unknot, in order, and the stdout on
# the unknot's PD text, `unknot`.
JONES_STDOUT_DIGESTS = {
    "text": "b84392ca0a81eb91141b2cd359b960c0f59ed4af319a6713a69028817101174c",
    "json": "e4555f0ac733db62a1a168ef02417cd5050fdb53379ef0b522b2f0ced61b431b",
}
UNKNOT_JONES_STDOUT = {"text": "1\n", "json": '{"jones": "0:1"}\n'}


def sha256_of_stdout(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("m, n", sorted({(m, n) for m, n, _ in WERESET_STDOUT_DIGESTS}))
def test_wereset_stdout_pinned(m, n, tmp_path, capsys):
    for side, shadow in zip(("pre", "post"), family(m, n)):
        path = tmp_path / f"{side}.pd"
        path.write_text(shadow.to_text())
        for fmt in ("json", "paper", "text"):
            digest = sha256_of_stdout(capsys, "--format", fmt, "wereset", str(path))
            assert digest == WERESET_STDOUT_DIGESTS[m, n, fmt], (side, fmt)


@pytest.mark.parametrize("fmt", sorted(JONES_STDOUT_DIGESTS))
def test_jones_stdout_pinned(fmt, tmp_path, capsys):
    entries = standard_diagrams()
    assert entries[0][0] == "0_1"
    lines = []
    for name, d in entries:
        path = tmp_path / f"{name}.pd"
        path.write_text(d.to_text())
        code, out, err = run(capsys, "--format", fmt, "jones", str(path))
        assert code == 0, err
        lines.append(out)
    assert lines[0] == UNKNOT_JONES_STDOUT[fmt]
    assert hashlib.sha256("".join(lines[1:]).encode()).hexdigest() == JONES_STDOUT_DIGESTS[fmt]


def test_wereset_rejects_gauss(tmp_path, capsys):
    f = tmp_path / "g.gauss"
    f.write_text("Ph1,Pt1\n")
    code, _, err = run(capsys, "wereset", str(f))
    assert code == 2 and "PD" in err


@pytest.mark.parametrize(
    "argv, message, unknot_out",
    [
        (["wereset"], "wereset needs a PD input", "precrossings 0 total 1\n0_1 1 1\n"),
        (["resolve", "--choices="], "resolve needs a PD input", "unknot\n"),
        (["jones"], "jones needs a PD input", "1\n"),
        # the crossingless diagram has no flype site, so flype's own error
        (["flype", "--site", "site.json"], "flype needs a PD input", None),
    ],
    ids=["wereset", "resolve", "jones", "flype"],
)
def test_pd_commands_read_unknot_and_refuse_gauss(
    argv, message, unknot_out, tmp_path, capsys, monkeypatch
):
    # `unknot` is auto-detected as the empty Gauss code, which these
    # commands read as the crossingless PD diagram; other Gauss code is
    # refused with the command's own message
    monkeypatch.chdir(tmp_path)
    Path("site.json").write_text('{"crossing": 0, "tangle": []}')
    Path("u.txt").write_text("unknot\n")
    Path("g.txt").write_text("Ph1,Pt1\n")
    command, *rest = argv
    code, out, err = run(capsys, command, "g.txt", *rest)
    assert (code, err) == (2, f"error: {message}\n")
    code, out, err = run(capsys, command, "u.txt", *rest)
    if unknot_out is None:
        assert code == 2 and "no vertex with id 0" in err
    else:
        assert (code, out) == (0, unknot_out), err


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


BUNDLED_TABLE = resources.files("pseudoknots.data").joinpath("knot_table.txt").read_bytes()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"junk\n", "line 1: expected 4 fields"),
        (b"3_1 three 0 -1:1\n", "line 1: invalid literal"),
        (b"0_1 0 yes 0:1\n", "line 1: amphichiral flag"),
        (b"3_1 3 0 -1:1,x\n", "line 1: malformed term"),
        (b"3_1_2 3 0 -4:-1,-3:1,-1:1\n", "line 1: malformed knot name '3_1_2'"),
        (b"0_1 0 1 0:1\n3_1 1_0 0 -4:-1\n", "line 2: invalid literal for a crossing number"),
        (b"0_1 0 1 0_0:1\n", "line 1: malformed term '0_0:1'"),
        (b"3_1 3 0 -9:-1,-5:1,-3:1\n", "mirror entry missing"),
        pytest.param(BUNDLED_TABLE.replace(b"\n6_3 6 ", b"\n4_1 4 "), "4_1: repeated name",
                     id="repeated-name"),
        pytest.param(BUNDLED_TABLE.replace(b"\n3_1 3 ", b"\n3_1 4 "),
                     "line 2: crossing number 4 does not match 3_1", id="crossing-number-mismatch"),
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
