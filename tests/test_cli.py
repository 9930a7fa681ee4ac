import codecs
import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudoknots
from pseudoknots import tables
from pseudoknots.cli import main
from pseudoknots.diagram import resolve
from pseudoknots.flype import family, random_flype_configuration
from pseudoknots.moves import scramble
from pseudoknots.tables import standard_diagrams
from test_moves import PINNED_SCRAMBLES, _pinned_bases

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
    assert run(capsys, "jones", str(scrambled)) == (0, "1\n", "")


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


# sha256 of the concatenated outputs of each invariant command on one group
# of inputs, in order: a family(m, n) group is its pre and post PD files,
# and "scrambles" the 18 `PINNED_SCRAMBLES` outputs written as Gauss files.
# "render --chords" is the SVG file the command writes, the others stdout.
I_OUTPUT_DIGESTS = {
    ("family(2,2)", "text i"): "4c990234546e3c2caf9623acc96abde095f64056f7d110d150df874734861dd8",
    ("family(2,2)", "json i"): "4ebd82e55a89ae75e989f1011e677f467b47a3e73962481487b038dc96730310",
    ("family(2,2)", "json check"): "b4d7f73b1553341b8f45e7ae1d01b95a662f6e1174038cfa426bd310d8f06a15",
    ("family(2,2)", "render --chords"): "63b4e48af76ecbb36e6d6221bf68a1b05dfcf179c4e431b23c479df3dccca835",
    ("family(2,4)", "text i"): "73c919103f5f20f6b789e17a8fd40776b0ee5215f53edfe37572be0b25e68dd8",
    ("family(2,4)", "json i"): "a96d1c84b051ca16e5ddca1d56f898b595adb7865d1c863818aac269d012aa46",
    ("family(2,4)", "json check"): "c712e555cf7ea26dc0e0d8d5c8295a9d860358b2d9c6e2e2f05f5d30d4e2dee9",
    ("family(2,4)", "render --chords"): "ac618848613de5e8ca49c44c0a31189e0f39c0df9b371967277e1f15de41d20c",
    ("family(4,2)", "text i"): "b94376227151f7d7c19080fdd59058f9748dcaee1d3fed25d42ae341b4756d31",
    ("family(4,2)", "json i"): "9a67d71546edc3a7c258a49ed2353b758ef9f4f8eda47cc9499c7d0925b9d772",
    ("family(4,2)", "json check"): "c712e555cf7ea26dc0e0d8d5c8295a9d860358b2d9c6e2e2f05f5d30d4e2dee9",
    ("family(4,2)", "render --chords"): "f2097d265556db3313e1cc9c6ad3fd5df49da91088fd2c4104d0ca9dc0a0f061",
    ("family(4,4)", "text i"): "5fabd0b02f155fb06e7068bcf12df869652451e28c3109321a0ad426c7efaf51",
    ("family(4,4)", "json i"): "657caab2159ff1e7ff29bfbc35c88d5836b15189c86ce62ef5b17912bee47e6e",
    ("family(4,4)", "json check"): "72c96940f354cdc78e4a73e2cd01b7ac2145153bff997779e58aac722a9ef5a5",
    ("family(4,4)", "render --chords"): "09fd19036bef0224fcedee78de923555ff963da863fe8c37625f8229d0417094",
    ("scrambles", "text i"): "64c7962645509f9bc70a379b42aea8659b48710c209e93d6e88788ff2449f2db",
    ("scrambles", "json i"): "96b57601b29ee4dde9b6b31c4ed89a9229fe22fda6f813f0278c30b31bf5c5ae",
    ("scrambles", "json check"): "6ea52e80e2c9dbf4f81fb7161c80dc3d92d70d9428b3a5e235f7e7c20f74c0a0",
    ("scrambles", "render --chords"): "5371cc9b6967f4e72a57422299a61415901a2f8ab0f82cd6ae5122f2f4902e24",
}
I_COMMANDS = {
    "text i": ("--format", "text", "i"),
    "json i": ("--format", "json", "i"),
    "json check": ("--format", "json", "check"),
}


def i_pin_inputs(group):
    """The texts of the input files of one `I_OUTPUT_DIGESTS` group."""
    if group == "scrambles":
        bases = _pinned_bases()
        return [scramble(bases[label], seed, 200).to_text() for label, seed, _ in PINNED_SCRAMBLES]
    m, n = (int(k) for k in group.removeprefix("family(").removesuffix(")").split(","))
    return [shadow.to_text() for shadow in family(m, n)]


@pytest.mark.parametrize("group", sorted({group for group, _ in I_OUTPUT_DIGESTS}))
def test_i_check_and_chord_svg_pinned(group, tmp_path, capsys):
    outputs = {kind: [] for kind in (*I_COMMANDS, "render --chords")}
    for k, text in enumerate(i_pin_inputs(group)):
        path, svg = tmp_path / f"{k}.txt", tmp_path / f"{k}.svg"
        path.write_text(text + "\n")
        for kind, argv in I_COMMANDS.items():
            code, out, err = run(capsys, *argv, str(path))
            assert code == 0, err
            outputs[kind].append(out)
        code, _, err = run(capsys, "render", str(path), "--chords", "--out", str(svg))
        assert code == 0, err
        outputs["render --chords"].append(svg.read_text(encoding="utf-8"))
    for kind, parts in outputs.items():
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        assert digest == I_OUTPUT_DIGESTS[group, kind], kind


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
    # these commands read `unknot` as PD code, the crossingless diagram;
    # Gauss code is refused with the command's own message
    monkeypatch.chdir(tmp_path)
    Path("site.json").write_text('{"crossing": 0, "tangle": []}')
    Path("u.txt").write_text("unknot\n")
    Path("g.txt").write_text("Ph1,Pt1\n")
    command, *rest = argv
    code, out, err = run(capsys, command, "g.txt", *rest)
    assert (code, err) == (2, f"error: {message}\n")
    code, out, err = run(capsys, command, "u.txt", *rest)
    if unknot_out is None:
        assert (code, err) == (2, "error: no vertex with id 0\n")
    else:
        assert (code, out) == (0, unknot_out), err
        stdin = io.TextIOWrapper(io.BytesIO(b"unknot\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(capsys, command, "-", *rest) == (0, unknot_out, "")


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.pd"
    f.write_text("X+(1,2,3)\n")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2 and "error" in err


def test_bad_choice_character_exit_2(p1_file, capsys):
    assert run(capsys, "resolve", p1_file, "--choices=++x") == (
        2, "", "error: bad choice character 'x' (use + and -)\n")


def test_choices_that_no_argv_bytes_decode_to_are_read_as_they_are(p1_file, capsys):
    # a lone high surrogate has no bytes under any file-system encoding, so
    # only a caller of `main` can pass it; it is read as it is and refused
    # as a character
    assert run(capsys, "resolve", p1_file, "--choices=+\ud800") == (
        2, "", "error: bad choice character '\\ud800' (use + and -)\n")


def test_a_failed_assertion_exits_1(p1_file, capsys, monkeypatch):
    # an AssertionError is a broken invariant of the library, not bad input
    def broken(d, table):
        raise AssertionError("the were-set lost a resolution")

    monkeypatch.setattr("pseudoknots.cli.wereset", broken)
    assert run(capsys, "wereset", p1_file) == (
        1, "", "internal invariant violation: the were-set lost a resolution\n")


@pytest.mark.parametrize(
    "argv, text, site, message",
    [
        (["check"], "X+(1,2,3)\n", None, "syntax error at position 0: 'X+(1,2,3)\\n'"),
        (["i"], "O1+,Z2\n", None, "syntax error in token 2: 'Z2'"),
        (["flype", "--site", "site.json"], "unknot\n", {"crossing": 0, "tangle": [1]},
         "no vertex with id 0"),
        # two sites the bundled pre file does not have
        (["flype", "--site", "site.json"], P1_TEXT, {"crossing": 0, "tangle": [2]},
         "flype crossing touches the tangle through 1 edges (need 2)"),
        (["flype", "--site", "site.json"], P1_TEXT, {"crossing": 2, "tangle": [0, 3]},
         "the two tangle edges are opposite at the flype crossing"),
    ],
    ids=["pd-syntax", "gauss-syntax", "flype-site", "flype-site-one-edge",
         "flype-site-opposite"],
)
def test_library_errors_print_their_message_once(argv, text, site, message,
                                                 tmp_path, capsys, monkeypatch):
    # a library error is printed by main as one line, its message after
    # "error: ", with nothing on stdout
    monkeypatch.chdir(tmp_path)
    Path("input").write_text(text)
    if site is not None:
        Path("site.json").write_text(json.dumps(site))
    command, *rest = argv
    assert run(capsys, command, "input", *rest) == (2, "", f"error: {message}\n")


# PD labels and Gauss ids are ASCII digits, and a number with more digits
# than int() converts (4,300 by default) is refused like any other bad input.
LONG = "1" * 5000


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("wereset", f"P({LONG},1,2,2) P(3,3,4,4)\n",
         "term at position 0: edge label too long (5000 digits)"),
        ("i", f"P(1,1,2,2) P(3,3,4,{LONG})\n",
         "term at position 11: edge label too long (5000 digits)"),
        ("i", f"O1+,U{LONG}+\n", "token 2: crossing id too long (5000 digits)"),
        ("wereset", f"O{LONG}+,U1+\n", "token 1: crossing id too long (5000 digits)"),
        ("wereset", "P(١,١,٢,٢)\n",
         "syntax error at position 0: 'P(١,١,٢,٢)\\n'"),
        ("i", "O١+,U١+\n", "syntax error in token 1: 'O١+'"),
    ],
    ids=["pd-long-wereset", "pd-long-i", "gauss-long-i", "gauss-long-wereset",
         "pd-arabic-indic", "gauss-arabic-indic"],
)
def test_numbers_are_ascii_and_convertible(command, text, message, tmp_path, capsys):
    f = tmp_path / "input"
    f.write_text(text)
    assert run(capsys, command, str(f)) == (2, "", f"error: {message}\n")


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


# Under the C locale, with UTF-8 mode and locale coercion off, Python's
# default file and stdin encoding is ASCII.  The SVG labels a -1 arrow
# with U+2212, and the PD grammar reads X− (U+2212).
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
_UTF8_LOCALE = {"LC_ALL": "C.UTF-8", "PYTHONCOERCECLOCALE": "0"}


@pytest.mark.parametrize("argv, text", [
    (["render", "input", "--out", "out.svg"], "O1-,U1-\n"),
    (["jones", "input"], "X−(1,4,2,5) X−(3,6,4,1) X−(5,2,6,3)\n"),
    (["jones", "-"], "X−(1,4,2,5) X−(3,6,4,1) X−(5,2,6,3)\n"),
    (["resolve", "input", "--choices=−"], "P(1,1,2,2)\n"),
    (["jones", "input"], "\ufeffX−(1,4,2,5) X−(3,6,4,1) X−(5,2,6,3)\n"),
], ids=["render", "jones", "jones-stdin", "resolve-choices", "jones-byte-order-mark"])
def test_files_are_utf8_whatever_the_locale(argv, text, tmp_path):
    # the console script in a fresh process: exit code, stdout, stderr and
    # the SVG written are those of a UTF-8 locale
    src = os.path.dirname(os.path.dirname(pseudoknots.__file__))
    code = "import sys; from pseudoknots.cli import main; sys.exit(main())"
    results = []
    for utf8, env in (("0", _ASCII_LOCALE), ("1", _UTF8_LOCALE)):
        cwd = tmp_path / f"utf8-{utf8}"
        cwd.mkdir()
        (cwd / "input").write_text(text, encoding="utf-8")
        run = subprocess.run([sys.executable, "-X", f"utf8={utf8}", "-c", code, *argv],
                             input=text.encode(), capture_output=True, cwd=cwd,
                             env={**os.environ, "PYTHONPATH": src, **env})
        svg = cwd / "out.svg"
        results.append((run.returncode, run.stdout, run.stderr,
                        svg.read_bytes() if svg.exists() else None))
    assert results[0] == results[1]
    assert results[1][0] == 0 and not results[1][2]


def test_choices_passed_to_main_under_an_ascii_locale(tmp_path):
    # a − handed to `main` as text, not read from argv, has no bytes in
    # the ASCII locale encoding and is read as it is
    src = os.path.dirname(os.path.dirname(pseudoknots.__file__))
    (tmp_path / "input").write_text("P(1,1,2,2)\n")
    code = ("import sys; from pseudoknots.cli import main; "
            "sys.exit(main(['resolve', 'input', '--choices=\\u2212']))")
    run = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code], capture_output=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": src, **_ASCII_LOCALE})
    assert (run.returncode, run.stdout, run.stderr) == (0, b"X-(2,1,1,2)\n", b"")


def test_resolve_and_jones(tmp_path, capsys):
    f = tmp_path / "t.pd"
    f.write_text("P(1,5,2,4) P(3,1,4,6) P(5,3,6,2)\n")
    code, out, _ = run(capsys, "resolve", str(f), "--choices=---")
    assert code == 0
    resolved = tmp_path / "resolved.pd"
    resolved.write_text(out)
    code, out, _ = run(capsys, "jones", str(resolved))
    assert code == 0 and out.strip() == "-t^-4 + t^-3 + t^-1"


def test_jones_refuses_a_precrossing(tmp_path, capsys):
    f = tmp_path / "kink.pd"
    f.write_text("P(1,1,2,2)\n")
    code, out, err = run(capsys, "jones", str(f))
    assert (code, out, err) == (2, "", "error: jones needs a resolved (all-classical) diagram\n")


def test_resolve_choice_count_error(tmp_path, capsys):
    f = tmp_path / "t.pd"
    f.write_text("P(1,5,2,4) P(3,1,4,6) P(5,3,6,2)\n")
    code, _, err = run(capsys, "resolve", str(f), "--choices=+")
    assert code == 2 and "3 choices" in err


def test_family_flype_round_trip(tmp_path, capsys, p1_p2):
    # `flype` at the site `family` writes prints the post file byte for byte
    for m, n in ((2, 2), (2, 4), (4, 2), (4, 4)):
        code, out, _ = run(capsys, "family", "--m", str(m), "--n", str(n), "--out", str(tmp_path))
        assert code == 0
        pre, post, manifest = out.split()
        code, out, _ = run(capsys, "flype", pre, "--site", manifest)
        assert code == 0 and out.encode() == Path(post).read_bytes(), (m, n)
    assert (tmp_path / "family_2_2_pre.pd").read_text().strip() == p1_p2[0].to_text()
    # the bundled pair is `family 2 2` written once: both files byte for
    # byte, and the manifest's crossing and tangle (it holds m and n too)
    data = resources.files("pseudoknots.data")
    for side in ("pre", "post"):
        written = (tmp_path / f"family_2_2_{side}.pd").read_bytes()
        assert written == data.joinpath(f"counterexample_{side}.pd").read_bytes(), side
    manifest = json.loads((tmp_path / "family_2_2_site.json").read_text())
    assert {k: manifest[k] for k in ("crossing", "tangle")} == json.loads(BUNDLED_SITE)
    # and the bundled pre file flyped at the bundled site is the post file
    code, out, _ = run(capsys, "flype", str(data.joinpath("counterexample_pre.pd")),
                       "--site", str(data.joinpath("counterexample_site.json")))
    assert code == 0 and out.encode() == data.joinpath("counterexample_post.pd").read_bytes()


SITE_SHAPE = (
    'expected {"crossing": c, "tangle": [...]}, with c and the distinct tangle ids JSON integers'
)


BAD_SITES = [
    ({"crossing": "4", "tangle": "56"}, SITE_SHAPE),
    ({"crossing": 4, "tangle": "56"}, SITE_SHAPE),
    ({"crossing": 4.9, "tangle": [5, 6]}, SITE_SHAPE),
    ({"crossing": True, "tangle": [5, 6]}, SITE_SHAPE),
    ({"crossing": 4, "tangle": [5, True]}, SITE_SHAPE),
    ({"crossing": 4, "tangle": [5.0, 6]}, SITE_SHAPE),
    ({"crossing": 4}, SITE_SHAPE),
    ([4, [5, 6]], SITE_SHAPE),
    ({}, SITE_SHAPE),
    ("x", SITE_SHAPE),
    (None, SITE_SHAPE),
    ({"crossing": 4, "tangle": [5, 5]}, f"tangle id 5 is repeated; {SITE_SHAPE}"),
    ({"crossing": 4, "tangle": [6, 5, 6]}, f"tangle id 6 is repeated; {SITE_SHAPE}"),
    ({"crossing": 4, "tangle": [4, 5]}, "flype crossing cannot be part of the tangle"),
]


@pytest.mark.parametrize(
    "site, message", BAD_SITES, ids=[f"site{k}" for k in range(len(BAD_SITES))]
)
def test_flype_bad_site_file_exit_2(tmp_path, capsys, site, message):
    # only a JSON object of JSON integers names a site, and one message
    # names that shape whatever else the file holds; family(2, 2)'s site is
    # crossing 4 with tangle [5, 6]
    code, out, _ = run(capsys, "family", "--m", "2", "--n", "2", "--out", str(tmp_path))
    assert code == 0
    pre = out.split()[0]
    site_file = tmp_path / "site.json"
    site_file.write_text(json.dumps(site))
    code, out, err = run(capsys, "flype", pre, "--site", str(site_file))
    assert (code, out, err) == (2, "", f"error: bad site file: {message}\n")


def test_flype_deeply_nested_site_file_exit_2(tmp_path, capsys):
    # deeper than json's decoder recurses: refused like any other shape
    code, out, _ = run(capsys, "family", "--m", "2", "--n", "2", "--out", str(tmp_path))
    pre = out.split()[0]
    site_file = tmp_path / "site.json"
    site_file.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "flype", pre, "--site", str(site_file))
    assert (code, out, err) == (2, "", f"error: bad site file: {SITE_SHAPE}\n")


def test_family_unwritable_out_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "family", "--m", "2", "--n", "2", "--out", str(blocker / "x"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ")


def test_family_parity_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "family", "--m", "3", "--n", "2", "--out", str(tmp_path))
    assert code == 2 and "even" in err


def test_family_too_large_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tables, "twist_shadow", lambda code: pytest.fail("built a diagram"))
    code, out, err = run(capsys, "family", "--m", "100000000", "--n", "2", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert "100000005 crossings (limit 10000)" in err
    assert list(tmp_path.iterdir()) == []


def test_scramble_deterministic(tmp_path, capsys):
    f = tmp_path / "t.gauss"
    f.write_text("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3\n")
    _, out1, _ = run(capsys, "scramble", str(f), "--seed", "9", "--steps", "12")
    _, out2, _ = run(capsys, "scramble", str(f), "--seed", "9", "--steps", "12")
    assert out1 == out2


def test_scramble_negative_seed_prints_the_positive_seed_output(tmp_path, capsys):
    # random.Random seeds from the absolute value of an int
    run(capsys, "family", "--m", "2", "--n", "2", "--out", str(tmp_path))
    pre = str(tmp_path / "family_2_2_pre.pd")
    code, negative, _ = run(capsys, "scramble", pre, "--seed", "-7", "--steps", "200")
    _, positive, _ = run(capsys, "scramble", pre, "--seed", "7", "--steps", "200")
    _, other, _ = run(capsys, "scramble", pre, "--seed", "8", "--steps", "200")
    assert code == 0 and negative == positive != other


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


def test_no_input_format_option(tmp_path, capsys):
    # the first token names the input's format; no option forces one
    f = tmp_path / "k.pd"
    f.write_text("P(1,2,2,3) P(3,4,4,1)\n")
    with pytest.raises(SystemExit) as exc:
        main(["--input-format", "pd", "check", str(f)])
    # argparse takes `pd` for the command
    assert exc.value.code == 2 and "invalid choice: 'pd'" in capsys.readouterr().err


def test_unicode_minus_pd_auto_detected(tmp_path, capsys, p1_p2):
    # an all-negative resolution starts with X-; the same file written with
    # U+2212 minus signs must read as the ASCII one does
    ascii_text = resolve(p1_p2[0], {i: -1 for i in p1_p2[0].precrossing_ids()}).to_text()
    assert ascii_text.startswith("X-(")
    f = tmp_path / "minus.pd"
    f.write_text(ascii_text.replace("X-", "X\u2212") + "\n")
    ascii_file = tmp_path / "ascii.pd"
    ascii_file.write_text(ascii_text + "\n")
    for command in ("check", "jones"):
        detected = run(capsys, command, str(f))
        assert detected[0] == 0
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
        # more digits than int() converts
        pytest.param(b"3_1 " + b"9" * 5000 + b" 0 -4:-1,-3:1,-1:1\n", "line 1:",
                     id="crossing-number-5000-digits"),
        # refused before any coefficient is allocated
        (b"0_1 0 1 -1000:1,1000:1\n", "line 1: exponent span 2000 is over the limit 1000"),
        (b"3_1 3 0 -9:-1,-5:1,-3:1\n", "mirror entry missing"),
        pytest.param(BUNDLED_TABLE.replace(b"\n6_3 6 ", b"\n4_1 4 "), "4_1: repeated name",
                     id="repeated-name"),
        pytest.param(BUNDLED_TABLE.replace(b"\n3_1 3 ", b"\n3_1 4 "),
                     "line 2: crossing number 4 does not match 3_1", id="crossing-number-mismatch"),
        (b"\xff\xfe", "utf-8"),
        # an amphichiral entry has no chirality to name
        pytest.param(b"-" + BUNDLED_TABLE, "line 1: amphichiral entry -0_1 has a sign",
                     id="minus-amphichiral"),
        pytest.param(b"+" + BUNDLED_TABLE, "line 1: amphichiral entry +0_1 has a sign",
                     id="plus-amphichiral"),
        # a repeated exponent would be summed into one term
        (b"3_1 3 0 -4:-1,-3:1,-1:1,-1:0\n", "line 1: malformed term '-1:0': repeated exponent"),
        (b"3_1 3 0 -4:-1,-3:0,-1:1\n", "line 1: malformed term '-3:0': zero coefficient"),
    ],
)
def test_malformed_table_exit_2(p1_file, tmp_path, capsys, content, message):
    custom = tmp_path / "table.txt"
    custom.write_bytes(content)
    code, _, err = run(capsys, "wereset", p1_file, "--table", str(custom))
    assert code == 2 and message in err


BUNDLED_SITE = resources.files("pseudoknots.data").joinpath("counterexample_site.json").read_bytes()


@pytest.mark.parametrize("argv, name, content", [
    (["check", "input"], "input", b"P(1,1,2,2)\n"),
    (["check", "-"], "-", b"P(1,1,2,2)\n"),
    (["--format", "paper", "wereset", "p1.pd", "--table", "input"], "input", BUNDLED_TABLE),
    (["flype", "p1.pd", "--site", "input"], "input", BUNDLED_SITE),
], ids=["diagram", "stdin", "table", "site"])
def test_an_input_may_start_with_a_byte_order_mark(argv, name, content, tmp_path, capsys,
                                                   monkeypatch):
    # a UTF-8 input saved with a byte-order mark reads as the same input
    # without one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p1.pd").write_text(P1_TEXT)
    results = []
    for bom in (b"", codecs.BOM_UTF8):
        if name == "-":
            stdin = io.TextIOWrapper(io.BytesIO(bom + content), encoding="utf-8")
            monkeypatch.setattr(sys, "stdin", stdin)
        else:
            (tmp_path / name).write_bytes(bom + content)
        results.append(run(capsys, *argv))
    assert results[0][0] == 0 and results[1] == results[0]


def test_a_byte_order_mark_alone_is_no_diagram(tmp_path, capsys, monkeypatch):
    f = tmp_path / "bom.pd"
    f.write_bytes(codecs.BOM_UTF8)
    message = "error: cannot auto-detect input format (expected PD or Gauss tokens)\n"
    assert run(capsys, "check", str(f)) == (2, "", message)
    stdin = io.TextIOWrapper(io.BytesIO(codecs.BOM_UTF8), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run(capsys, "check", "-") == (2, "", message)


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
