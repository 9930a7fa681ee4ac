"""Command-line interface.

Subcommands: i, wereset, resolve, jones, flype, family, scramble, render,
check.  Inputs are files (or `-` for stdin) holding PD or extended Gauss
codes; the format is auto-detected from the first token and can be forced
with --input-format.  Exit codes: 0 success, 1 internal invariant
violation, 2 user/input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bracket import DiagramTooLargeError, KnotTable, KnotTableError, jones
from .chords import evenness_check
from .diagram import PDError, PseudoPD, parse_pd, resolve, unknot
from .flype import FlypeError, FlypeSite, family, family_site, shadow_flype_pd
from .gauss import EMPTY_CODE, GaussError, PseudoGaussDiagram, parse_gauss, pd_to_gauss
from .invariant import compute_i, prechord_diagram
from .moves import scramble
from .render import render_chords_svg, render_gauss_svg
from .tables import load_table
from .wereset import wereset

TABLE_ENV = "PSEUDOKNOTS_TABLE"


class UserError(Exception):
    """Bad input or arguments: exit code 2."""


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UserError(f"cannot read {path}: {exc}") from exc


def _detect_format(text: str) -> str:
    head = text.lstrip()
    if head.startswith(("X+", "X-", "X−", "P(")):
        return "pd"
    if head.startswith(("O", "U", "Ph", "Pt", EMPTY_CODE)):
        return "gauss"
    raise UserError("cannot auto-detect input format (expected PD or Gauss tokens)")


def _load_diagram(path: str, forced: str | None):
    text = _read_input(path)
    fmt = forced or _detect_format(text)
    try:
        if fmt == "pd":
            return parse_pd(text)
        if fmt == "gauss":
            return parse_gauss(text)
    except (PDError, GaussError) as exc:
        raise UserError(str(exc)) from exc
    raise UserError(f"unknown input format {fmt!r}")


def _load_pd(args, message: str) -> PseudoPD:
    """The input as a PD diagram; `message` is the error for any other input.

    The word `unknot` is auto-detected as Gauss code, so the empty Gauss
    diagram is read as the crossingless PD diagram."""
    d = _load_diagram(args.input, args.input_format)
    if isinstance(d, PseudoGaussDiagram) and not d.tokens:
        return unknot()
    if not isinstance(d, PseudoPD):
        raise UserError(message)
    return d


def _as_gauss(diagram) -> PseudoGaussDiagram:
    if isinstance(diagram, PseudoPD):
        return pd_to_gauss(diagram)
    return diagram


def _load_knot_table(args) -> KnotTable:
    path = getattr(args, "table", None) or os.environ.get(TABLE_ENV)
    if path:
        try:
            with open(path) as fh:
                return KnotTable.from_text(fh.read())
        except (OSError, UnicodeDecodeError, KnotTableError) as exc:
            raise UserError(f"cannot read table {path}: {exc}") from exc
    return load_table()


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_i(args) -> int:
    g = _as_gauss(_load_diagram(args.input, args.input_format))
    value = compute_i(g)
    payload = value.to_json_dict()
    if value.is_empty():
        lines = ["empty"]
    else:
        lines = [f"canonical {payload['canonical']}"]
        lines += [f"chord {a} {b} decoration {dec}" for a, b, dec in value.chords]
    _emit(args, payload, lines)
    return 0


def cmd_wereset(args) -> int:
    d = _load_pd(args, "were-set computation needs a classical PD input")
    table = _load_knot_table(args)
    ws = wereset(d, table)
    if args.format == "json":
        print(json.dumps(ws.to_json_dict(), sort_keys=True))
    elif args.format == "paper":
        print(ws.paper_style())
    else:
        print(ws.text())
    return 0


def _parse_choices(text: str, d: PseudoPD) -> dict[int, int]:
    cleaned = text.replace(",", "").replace(" ", "")
    signs = []
    for ch in cleaned:
        if ch == "+":
            signs.append(1)
        elif ch == "-" or ch == "−":
            signs.append(-1)
        else:
            raise UserError(f"bad choice character {ch!r} (use + and -)")
    pre = d.precrossing_ids()
    if len(signs) != len(pre):
        raise UserError(f"need {len(pre)} choices, got {len(signs)}")
    return dict(zip(sorted(pre), signs))


def cmd_resolve(args) -> int:
    d = _load_pd(args, "resolve needs a PD input")
    try:
        out = resolve(d, _parse_choices(args.choices, d))
    except PDError as exc:
        raise UserError(str(exc)) from exc
    _emit(args, out.to_json_dict(), [out.to_text()])
    return 0


def cmd_jones(args) -> int:
    d = _load_pd(args, "jones needs a PD input")
    if not d.is_resolved():
        raise UserError("jones needs a resolved (all-classical) diagram")
    v = jones(d)
    _emit(args, {"jones": v.to_pairs_string()}, [v.pretty()])
    return 0


def cmd_flype(args) -> int:
    d = _load_pd(args, "flype operates on PD inputs")
    try:
        with open(args.site) as fh:
            site_data = json.load(fh)
        crossing, tangle = site_data["crossing"], site_data["tangle"]
        if not isinstance(tangle, list) or any(type(x) is not int for x in [crossing, *tangle]):
            raise ValueError("crossing must be a JSON integer and tangle a list of them")
        site = FlypeSite(crossing, frozenset(tangle))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise UserError(f"bad site file: {exc}") from exc
    try:
        out = shadow_flype_pd(d, site)
    except FlypeError as exc:
        raise UserError(str(exc)) from exc
    _emit(args, out.to_json_dict(), [out.to_text()])
    return 0


def cmd_family(args) -> int:
    try:
        a, b = family(args.m, args.n)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    site = family_site(args.m, args.n)
    path_a = os.path.join(args.out, f"family_{args.m}_{args.n}_pre.pd")
    path_b = os.path.join(args.out, f"family_{args.m}_{args.n}_post.pd")
    manifest = os.path.join(args.out, f"family_{args.m}_{args.n}_site.json")
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(path_a, "w") as fh:
            fh.write(a.to_text() + "\n")
        with open(path_b, "w") as fh:
            fh.write(b.to_text() + "\n")
        with open(manifest, "w") as fh:
            json.dump(
                {"crossing": site.crossing, "tangle": sorted(site.tangle), "m": args.m, "n": args.n},
                fh,
                sort_keys=True,
            )
            fh.write("\n")
    except OSError as exc:
        raise UserError(f"cannot write {args.out}: {exc}") from exc
    print(path_a)
    print(path_b)
    print(manifest)
    return 0


def cmd_scramble(args) -> int:
    if args.steps < 0:
        raise UserError("--steps must be >= 0")
    g = _as_gauss(_load_diagram(args.input, args.input_format))
    out = scramble(g, seed=args.seed, steps=args.steps)
    _emit(args, out.to_json_dict(), [out.to_text()])
    return 0


def cmd_render(args) -> int:
    d = _load_diagram(args.input, args.input_format)
    if args.chords:
        value = compute_i(_as_gauss(d))
        svg = render_chords_svg(value)
    else:
        svg = render_gauss_svg(_as_gauss(d))
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise UserError(f"cannot write {args.out}: {exc}") from exc
    print(args.out)
    return 0


def cmd_check(args) -> int:
    d = _load_diagram(args.input, args.input_format)
    g = _as_gauss(d)
    even = evenness_check(prechord_diagram(g))
    payload = {
        "kind": "pd" if isinstance(d, PseudoPD) else "gauss",
        "crossings": len(g.ids()),
        "precrossings": len(g.precrossing_ids()),
        "classical": len(g.classical_ids()),
        "evenness": even,
    }
    lines = [f"{k} {v}" for k, v in sorted(payload.items())]
    _emit(args, payload, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="pseudoknots",
        description="Pseudoknot invariants: were-sets, Gauss-diagram invariants, flypes.",
    )
    parser.add_argument("--format", choices=("text", "json", "paper"), default="text")
    parser.add_argument(
        "--input-format", choices=("pd", "gauss"), default=None,
        help="force input format instead of auto-detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("i", help="Gauss-diagram invariant of a pseudoknot")
    p.add_argument("input")
    p.set_defaults(func=cmd_i)

    p = sub.add_parser("wereset", help="signed weighted resolution set")
    p.add_argument("input")
    p.add_argument("--table", default=None, help=f"knot table path (or ${TABLE_ENV})")
    p.set_defaults(func=cmd_wereset)

    p = sub.add_parser("resolve", help="resolve precrossings")
    p.add_argument("input")
    p.add_argument("--choices", required=True, help="one +/- per precrossing id, ascending")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("jones", help="Jones polynomial of a resolved diagram")
    p.add_argument("input")
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("flype", help="shadow flype at a site")
    p.add_argument("input")
    p.add_argument("--site", required=True, help='JSON file {"crossing": c, "tangle": [...]}')
    p.set_defaults(func=cmd_flype)

    p = sub.add_parser("family", help="counterexample family pair")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("scramble", help="apply random R/PR moves")
    p.add_argument("input")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_scramble)

    p = sub.add_parser("render", help="render to SVG")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--chords", action="store_true",
                   help="render the invariant's chord diagram instead of the Gauss diagram")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("check", help="validate input and report structure")
    p.add_argument("input")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UserError, PDError, GaussError, DiagramTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
