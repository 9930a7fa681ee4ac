"""Command-line interface.

Subcommands: i, wereset, resolve, jones, flype, family, scramble, render,
check.  Inputs are files (or `-` for stdin) holding PD or extended Gauss
codes; the first token names the format.  Every file and stdin are read,
and files written, as UTF-8 whatever the locale, and so is `--choices`.
Exit codes: 0 success, 1 internal invariant violation, 2 user/input
error.  `main` is the one place an input error becomes exit 2: a
`UserError` or a library error (PD, Gauss, flype, or a diagram too
large) prints as `error: <its message>` on stderr.

The module imports only the were-set path, which `resolve` and `jones`
also use.  Every other command imports the layers it needs (Gauss codes,
the invariant, flypes, moves, rendering) when it runs, so `pseudoknots
wereset` does not load them; the Gauss and flype errors are defined in
`diagram` for that reason.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bracket import DiagramTooLargeError, KnotTable, KnotTableError, jones
from .diagram import (
    EMPTY_CODE,
    FlypeError,
    GaussError,
    PDError,
    PseudoPD,
    parse_pd,
    resolve,
)
from .tables import load_table
from .wereset import wereset

TABLE_ENV = "PSEUDOKNOTS_TABLE"
# dropped from the start of every input: decoding with `utf-8-sig` instead
# would import one more codec module into every were-set call
_BOM = "\ufeff"
_SITE_SHAPE = (
    'expected {"crossing": c, "tangle": [...]}, with c and the distinct tangle ids '
    "JSON integers"
)


class UserError(Exception):
    """Bad input or arguments: exit code 2."""


def _load_diagram(path: str, pd: bool = False):
    """The diagram in the file at `path` (`-` for stdin), read as UTF-8:
    PD code if its first token is a PD term, or if it is `unknot` and `pd`
    is set, else Gauss code if it is a Gauss token or `unknot`."""
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UserError(f"cannot read {path}: {exc}") from exc
    text = text.removeprefix(_BOM)
    head = text.lstrip()
    if head.startswith(("X+", "X-", "X−", "P(")) or (pd and text.strip() == EMPTY_CODE):
        return parse_pd(text)
    if head.startswith(("O", "U", "Ph", "Pt", EMPTY_CODE)):
        from .gauss import parse_gauss

        return parse_gauss(text)
    raise UserError("cannot auto-detect input format (expected PD or Gauss tokens)")


def _load_pd(args) -> PseudoPD:
    """The input as a PD diagram, the word `unknot` read as PD code; any
    other input is refused with "<command> needs a PD input"."""
    d = _load_diagram(args.input, pd=True)
    if not isinstance(d, PseudoPD):
        raise UserError(f"{args.command} needs a PD input")
    return d


def _as_gauss(diagram):
    """The input as a Gauss diagram."""
    if isinstance(diagram, PseudoPD):
        from .gauss import pd_to_gauss

        return pd_to_gauss(diagram)
    return diagram


def _load_knot_table(args) -> KnotTable:
    path = args.table or os.environ.get(TABLE_ENV)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                return KnotTable.from_text(fh.read().removeprefix(_BOM))
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
    from .invariant import compute_i

    g = _as_gauss(_load_diagram(args.input))
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
    d = _load_pd(args)
    table = _load_knot_table(args)
    ws = wereset(d, table)
    if args.format == "json":
        print(ws.to_json())
    elif args.format == "paper":
        print(ws.paper_style())
    else:
        print(ws.text())
    return 0


def _parse_choices(text: str, d: PseudoPD) -> dict[int, int]:
    # Python decodes argv with the locale's encoding; read its bytes as UTF-8
    # instead, so a − means the same under every locale.  A string that no
    # argv bytes decode to (one passed to `main` directly) is read as it is.
    try:
        text = os.fsencode(text).decode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        pass
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
    d = _load_pd(args)
    out = resolve(d, _parse_choices(args.choices, d))
    _emit(args, out.to_json_dict(), [out.to_text()])
    return 0


def cmd_jones(args) -> int:
    v = jones(_load_pd(args))
    _emit(args, {"jones": v.to_pairs_string()}, [v.pretty()])
    return 0


def cmd_flype(args) -> int:
    from .flype import FlypeSite, shadow_flype_pd

    d = _load_pd(args)
    try:
        with open(args.site, encoding="utf-8") as fh:
            site_data = json.loads(fh.read().removeprefix(_BOM))
        if not isinstance(site_data, dict):
            site_data = {}
        crossing, tangle = site_data.get("crossing"), site_data.get("tangle")
        if not isinstance(tangle, list) or any(type(x) is not int for x in [crossing, *tangle]):
            raise ValueError(_SITE_SHAPE)
        if len(set(tangle)) < len(tangle):
            repeated = next(x for x in tangle if tangle.count(x) > 1)
            raise ValueError(f"tangle id {repeated} is repeated; {_SITE_SHAPE}")
        site = FlypeSite(crossing, frozenset(tangle))
    except RecursionError:  # JSON nested deeper than the decoder recurses
        raise UserError(f"bad site file: {_SITE_SHAPE}") from None
    except (OSError, ValueError) as exc:
        raise UserError(f"bad site file: {exc}") from exc
    out = shadow_flype_pd(d, site)
    _emit(args, out.to_json_dict(), [out.to_text()])
    return 0


def cmd_family(args) -> int:
    from .flype import family, family_site

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
        with open(path_a, "w", encoding="utf-8") as fh:
            fh.write(a.to_text() + "\n")
        with open(path_b, "w", encoding="utf-8") as fh:
            fh.write(b.to_text() + "\n")
        with open(manifest, "w", encoding="utf-8") as fh:
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
    from .moves import scramble

    if args.steps < 0:
        raise UserError("--steps must be >= 0")
    g = _as_gauss(_load_diagram(args.input))
    out = scramble(g, seed=args.seed, steps=args.steps)
    _emit(args, out.to_json_dict(), [out.to_text()])
    return 0


def cmd_render(args) -> int:
    from .invariant import compute_i
    from .render import render_chords_svg, render_gauss_svg

    d = _load_diagram(args.input)
    if args.chords:
        value = compute_i(_as_gauss(d))
        svg = render_chords_svg(value)
    else:
        svg = render_gauss_svg(_as_gauss(d))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise UserError(f"cannot write {args.out}: {exc}") from exc
    print(args.out)
    return 0


def cmd_check(args) -> int:
    from .chords import evenness_check
    from .invariant import prechord_diagram

    d = _load_diagram(args.input)
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
    p.add_argument("--seed", type=int, required=True,
                   help="random seed; a negative seed gives the scramble of its absolute value")
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
    except (UserError, PDError, GaussError, FlypeError, DiagramTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
