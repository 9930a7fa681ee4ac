"""The three benchmark workloads.

Each workload turns the run seed into a fixed list of inputs (`prepare`,
before anything is timed) and then runs that list once per `run_round`
call.  Every op is timed on its own and checked against frozen
references; a check that fails counts the op as failed instead of
stopping the run.

The benchmark calls the library only through module attributes looked up
at call time (`self.pk.flype.shadow_flype_pd(...)`), so the timing
wrappers installed by `tracing.py` see the benchmark's calls as well as
the library's internal ones.  Only default code paths are exercised: one
worker, no `simplify`, fixpoint deletion.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import signal
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

# The bundled pair's were-set: 14 entries over 2^7 = 128 resolutions.
FAMILY_2_2_WERESET = {
    "0_1": 72,
    "-3_1": 10, "3_1": 10,
    "4_1": 20,
    "-5_1": 1, "5_1": 1,
    "-5_2": 2, "5_2": 2,
    "-6_1": 2, "6_1": 2,
    "-6_2": 2, "6_2": 2,
    "-7_7": 1, "7_7": 1,
}

MODULES = ("cli", "diagram", "gauss", "laurent", "bracket", "wereset",
           "tables", "flype", "invariant", "chords", "moves")


def library_modules() -> SimpleNamespace:
    """The pseudoknots submodules as module objects.

    `import pseudoknots.wereset as W` would bind the function, because the
    package `__init__` rebinds the submodule names to functions;
    `import_module` returns the entry of `sys.modules` instead.
    """
    return SimpleNamespace(**{m: importlib.import_module(f"pseudoknots.{m}") for m in MODULES})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SpeedProbe:
    """Machine speed, sampled with a fixed interpreter-bound loop.

    On a shared virtual machine the speed of interpreter code swings by up
    to 1.8x within a second, and slow spells can last a whole run.  The
    loop is timed when an op begins and ends and, inside `sampling()`,
    every INTERVAL_S during the op from a SIGALRM handler.  The op's time,
    less the time spent sampling inside it, is multiplied by REFERENCE_S
    over the mean loop time, so it reads as at the machine speed where the
    loop takes REFERENCE_S.  The loop builds no containers, so the
    program's heap cannot change its time.
    """

    REFERENCE_S = 4.2e-5
    INTERVAL_S = 0.005

    def __init__(self):
        self.table = {i: (i * 31) % 17 for i in range(256)}
        self.samples: list[float] = []
        self.inside: list[tuple[float, float]] = []  # (start, end) of timer samples
        self._start = 0.0

    def _loop_seconds(self) -> float:
        table, acc = self.table, 0
        start = time.perf_counter()
        for i in range(400):
            acc = (acc + table[i & 255] * i) % 1000003
        return time.perf_counter() - start

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._loop_seconds())
        self.inside.append((start, time.perf_counter()))

    @contextmanager
    def sampling(self):
        """Also sample every INTERVAL_S while inside (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def begin(self) -> None:
        self.samples = [self._loop_seconds()]
        self.inside = []
        self._start = time.perf_counter()

    def end(self) -> tuple[float, float]:
        """(seconds since `begin` less the sampling inside, speed factor)."""
        stop = time.perf_counter()
        spent = sum(b - a for a, b in self.inside if a >= self._start and b <= stop)
        self.samples.append(self._loop_seconds())
        return stop - self._start - spent, self.REFERENCE_S * len(self.samples) / sum(self.samples)


class Tally:
    """Speed-scaled op durations by label, and the correctness gate's counts."""

    MAX_REPORTED = 5

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.op_seconds: defaultdict[str, list[float]] = defaultdict(list)
        # timed work that is not an op, such as the census's per-shadow work
        self.other_seconds: defaultdict[str, list[float]] = defaultdict(list)
        self.scaled_total = 0.0  # every scaled duration returned by `end`
        self.speed = 1.0  # scale factor of the last `begin`/`end` interval
        self.attempted = 0
        self.failed = 0
        self.resolutions = 0  # sum of 2^k over were-set calls
        self.wereset_seconds = 0.0  # scaled time spent in those calls
        self.pairs = 0  # census: flype pairs with equal were-set, different i
        self.messages: list[str] = []
        self.tracer = None

    def begin(self, label: str) -> None:
        """Start timing an op, or other timed work."""
        if self.tracer is not None:
            self.tracer.begin_op(label)
        self.probe.begin()

    def end(self) -> float:
        """Seconds since `begin`, scaled to the reference machine speed."""
        seconds, self.speed = self.probe.end()
        if self.tracer is not None:
            self.tracer.end_op(self.speed)
        self.scaled_total += seconds * self.speed
        return seconds * self.speed

    def record(self, label: str, seconds: float, problem: str | None) -> None:
        self.attempted += 1
        self.op_seconds[label].append(seconds)
        if problem is not None:
            self.fail(problem, label)

    def fail(self, problem: str, label: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < self.MAX_REPORTED:
            self.messages.append(f"{label}: {problem}")


def _error_text(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def rational_codes(crossings: int) -> list[tuple[int, ...]]:
    """Every composition of `crossings`: the rational twist codes of that size."""
    if crossings == 0:
        return [()]
    return [(first,) + rest
            for first in range(1, crossings + 1)
            for rest in rational_codes(crossings - first)]


def census_shadows(pk, crossings: int) -> list[tuple[tuple[int, ...], object]]:
    """(code, shadow) for every rational code whose closure is a knot."""
    out = []
    for code in rational_codes(crossings):
        try:
            out.append((code, pk.tables.twist_shadow(code)))
        except pk.diagram.PDError:  # two-component closure: a link
            continue
    return out


def code_key(code: tuple[int, ...]) -> str:
    return ".".join(map(str, code))


def site_key(code: tuple[int, ...], site) -> str:
    return f"{code_key(code)}:{site.crossing}:{'.'.join(map(str, sorted(site.tangle)))}"


# ---------------------------------------------------------------------------
# wereset-large
# ---------------------------------------------------------------------------


class WeresetLarge:
    """`pseudoknots --format json wereset FILE`, run in-process on n = 11.

    The 4^n bracket work is about 90% of each call, so this is where a
    faster bracket engine shows.  Inputs: the fixed family(m, n) pairs with
    n = 11, plus flype pairs of seeded random configurations.  The
    configuration seeds come from a pool whose stdout hashes are frozen, so
    every op is checked byte for byte.
    """

    name = "wereset-large"
    FAMILY_PAIRS = ((2, 6), (4, 4), (6, 2))  # m + n + 3 = 11 precrossings
    CONFIG_POOL = 64  # configuration seeds 0..63 have frozen hashes
    CONFIG_TANGLE = 5
    CONFIG_KINKS = 5  # 5 + 1 + 5 = 11 precrossings
    SEEDED_PAIRS = 3

    def __init__(self, pk, seed: int, workdir: Path, reference: dict):
        self.pk = pk
        self.seed = seed
        self.workdir = workdir
        self.expected = reference["wereset_large"]["stdout_sha256"]
        self.items: list[dict] = []

    @classmethod
    def pairs(cls, pk, config_seeds) -> list[tuple[str, object, object]]:
        """(label, pre, post) diagram pairs for the given configuration seeds."""
        out = []
        for m, n in cls.FAMILY_PAIRS:
            pre, post = pk.flype.family(m, n)
            out.append((f"family({m},{n})", pre, post))
        for s in config_seeds:
            pre, site = pk.flype.random_flype_configuration(
                s, tangle_crossings=cls.CONFIG_TANGLE, extra_kinks=cls.CONFIG_KINKS
            )
            out.append((f"config({s})", pre, pk.flype.shadow_flype_pd(pre, site)))
        return out

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        chosen = rng.sample(range(self.CONFIG_POOL), self.SEEDED_PAIRS)
        pairs = self.pairs(self.pk, chosen)
        rng.shuffle(pairs)
        self.write_inputs(pairs)

    def write_inputs(self, pairs) -> None:
        """One PD file per diagram; a post item remembers its pre item."""
        for label, pre, post in pairs:
            pre_index = len(self.items)
            for side, d in (("pre", pre), ("post", post)):
                text = d.to_text() + "\n"
                path = self.workdir / f"{len(self.items):03d}.pd"
                path.write_text(text)
                self.items.append({
                    "label": f"{label} {side}",
                    "path": str(path),
                    "input_sha256": sha256(text),
                    "pre_index": pre_index if side == "post" else None,
                })

    def run_cli(self, path: str) -> tuple[int, str]:
        """Exit code and captured stdout of one in-process CLI call."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.pk.cli.main(["--format", "json", "wereset", path])
        return code, buf.getvalue()

    def run_round(self, tally: Tally) -> None:
        outputs: list[str | None] = []
        for item in self.items:
            label = item["label"]
            tally.begin(label)
            try:
                code, out = self.run_cli(item["path"])
            except Exception as exc:  # an op that raises is a failed op
                tally.record(label, tally.end(), _error_text(exc))
                outputs.append(None)
                continue
            seconds = tally.end()
            outputs.append(out)
            tally.record(label, seconds, self._check(item, code, out, outputs))
            if code == 0:
                tally.resolutions += json.loads(out)["total"]
                tally.wereset_seconds += seconds

    def _check(self, item: dict, code: int, out: str, outputs: list) -> str | None:
        if code != 0:
            return f"exit code {code}"
        expected = self.expected.get(item["input_sha256"])
        if expected is None:
            return "no frozen stdout hash for this input"
        if sha256(out) != expected:
            return "stdout differs from the frozen hash"
        if item["pre_index"] is not None and outputs[item["pre_index"]] != out:
            return "were-set changed across the flype"
        return None


# ---------------------------------------------------------------------------
# census-small
# ---------------------------------------------------------------------------


class CensusSmall:
    """Flype census over the twist shadows of the 7-crossing rational codes
    (links skipped, tangles of one precrossing).

    Hundreds of small were-set calls: per-call and per-resolution fixed
    costs matter more here than the 4^n term.  One op is one flype site:
    flype, were-set and invariant of the flyped shadow.  Smaller codes are
    left out because they hold no pair.  The seed only shuffles the shadow
    order; the census itself is fixed, so its pair count is frozen.
    """

    name = "census-small"
    CROSSINGS = 7
    MAX_TANGLE = 1
    FAMILY_2_2_CODE = (2, 1, 1, 1, 2)  # family(2, 2) is this code's shadow

    def __init__(self, pk, seed: int, workdir: Path, reference: dict):
        self.pk = pk
        self.seed = seed
        self.table = None
        self._wereset_seconds = 0.0  # unscaled, since the last `_end`
        self._resolutions = 0
        ref = reference["census"]
        self.sites_per_code = ref["sites_per_code"]
        self.differing = set(ref["differing_sites"])
        self.frozen_pairs = ref["pairs"]
        self.shadows: list = []

    def prepare(self) -> None:
        self.table = self.pk.tables.load_table()
        self.shadows = census_shadows(self.pk, self.CROSSINGS)
        random.Random(self.seed).shuffle(self.shadows)

    def census_shadow(self, shadow):
        """Per-shadow work: the knot type of its alternating resolution, its
        flype sites, and its own were-set and canonical invariant."""
        pk = self.pk
        jones = pk.bracket.jones(pk.tables.alternating_resolution(shadow))
        sites = pk.flype.enumerate_flype_sites(shadow, self.MAX_TANGLE)
        ws = self._wereset(shadow)
        i_form = pk.chords.canonical_form(pk.invariant.compute_i(pk.gauss.pd_to_gauss(shadow)))
        return self.table.lookup(jones), sites, ws, i_form

    def census_site(self, shadow, site):
        """One op: the flyped shadow's were-set and canonical invariant."""
        pk = self.pk
        flyped = pk.flype.shadow_flype_pd(shadow, site)
        ws = self._wereset(flyped)
        i_form = pk.chords.canonical_form(pk.invariant.compute_i(pk.gauss.pd_to_gauss(flyped)))
        return ws, i_form

    def _wereset(self, d):
        start = time.perf_counter()
        ws = self.pk.wereset.wereset(d, self.table)
        self._wereset_seconds += time.perf_counter() - start
        self._resolutions += ws.total
        return ws

    def _end(self, tally: Tally) -> float:
        """`Tally.end`, also passing on the were-set calls made since."""
        seconds = tally.end()
        tally.wereset_seconds += self._wereset_seconds * tally.speed
        tally.resolutions += self._resolutions
        self._wereset_seconds = 0.0
        self._resolutions = 0
        return seconds

    def shadow_problem(self, code, knot, ws0) -> str | None:
        if knot is None:
            return "alternating resolution not named by the table"
        if code == self.FAMILY_2_2_CODE:
            got = {str(k): v for k, v in ws0.entries.items()}
            if got != FAMILY_2_2_WERESET or ws0.unknown:
                return "family(2,2) were-set differs from the frozen table"
        return None

    def run_round(self, tally: Tally) -> None:
        pairs = 0
        for code, shadow in self.shadows:
            label = f"shadow {code_key(code)}"
            expected_sites = self.sites_per_code.get(code_key(code), 0)
            tally.begin(label)
            try:
                knot, sites, ws0, i0 = self.census_shadow(shadow)
            except Exception as exc:
                self._end(tally)
                tally.attempted += expected_sites
                tally.fail(_error_text(exc), label, expected_sites)
                continue
            tally.other_seconds[label].append(self._end(tally))
            problem = self.shadow_problem(code, knot, ws0)
            if problem is not None:  # every site of this shadow fails
                tally.attempted += expected_sites
                tally.fail(problem, label, expected_sites)
                continue
            if len(sites) != expected_sites:
                tally.attempted += max(0, expected_sites - len(sites))
                tally.fail(f"{len(sites)} flype sites, frozen {expected_sites}",
                           label, abs(len(sites) - expected_sites))
            for site in sites:
                key = site_key(code, site)
                tally.begin(key)
                try:
                    ws, i_form = self.census_site(shadow, site)
                except Exception as exc:
                    tally.record(key, self._end(tally), _error_text(exc))
                    continue
                seconds = self._end(tally)
                problem = None
                if not self.pk.wereset.wereset_equal(ws0, ws):
                    problem = "were-set changed across the flype"
                elif (i_form != i0) != (key in self.differing):
                    problem = "i-differs flag disagrees with the frozen census"
                elif i_form != i0:
                    pairs += 1
                tally.record(key, seconds, problem)
        tally.pairs += pairs
        if pairs != self.frozen_pairs and len(tally.messages) < Tally.MAX_REPORTED:
            tally.messages.append(f"census pair count {pairs}, frozen {self.frozen_pairs}")


# ---------------------------------------------------------------------------
# invariant-scramble
# ---------------------------------------------------------------------------


class InvariantScramble:
    """Scramble a Gauss diagram by random moves, then compute `i` and its
    canonical form.

    Never runs the bracket, were-set or Laurent code, so the prediction for
    every bracket optimisation is no change here; it is where the move
    engine, the invariant and the chord canonical form show.  Bases are the
    family(m, n) pairs and the census shadows; the seed picks the base and
    the scramble seed of every op.
    """

    name = "invariant-scramble"
    FAMILY_PAIRS = ((2, 2), (2, 4), (4, 2), (4, 4))
    STEPS = 200
    OPS_PER_ROUND = 32

    def __init__(self, pk, seed: int, workdir: Path, reference: dict):
        self.pk = pk
        self.seed = seed
        self.bases: list = []  # (label, gauss, canonical i, partner index or None)
        self.items: list[tuple[int, int]] = []

    def prepare(self) -> None:
        pk = self.pk

        def add_base(label, d, partner):
            g = pk.gauss.pd_to_gauss(d)
            form = pk.chords.canonical_form(pk.invariant.compute_i(g))
            self.bases.append((label, g, form, partner))

        for m, n in self.FAMILY_PAIRS:
            pre, post = pk.flype.family(m, n)
            first = len(self.bases)
            add_base(f"family({m},{n}) pre", pre, first + 1)
            add_base(f"family({m},{n}) post", post, first)
        family_count = len(self.bases)
        for code, shadow in census_shadows(pk, CensusSmall.CROSSINGS):
            add_base(f"shadow {code_key(code)}", shadow, None)
        rng = random.Random(self.seed)
        for k in range(self.OPS_PER_ROUND):
            # alternate family members, which carry the i-differs check, and
            # census shadows
            if k % 2 == 0:
                index = rng.randrange(family_count)
            else:
                index = rng.randrange(family_count, len(self.bases))
            self.items.append((index, rng.getrandbits(32)))

    def run_round(self, tally: Tally) -> None:
        pk = self.pk
        for op, (index, scramble_seed) in enumerate(self.items):
            base_label, g, form, partner = self.bases[index]
            label = f"{op} {base_label} scramble {scramble_seed}"
            tally.begin(label)
            try:
                h = pk.moves.scramble(g, seed=scramble_seed, steps=self.STEPS)
                got = pk.chords.canonical_form(pk.invariant.compute_i(h))
            except Exception as exc:
                tally.record(label, tally.end(), _error_text(exc))
                continue
            seconds = tally.end()
            problem = None
            if got != form:
                problem = "i changed under the scramble"
            elif partner is not None and got == self.bases[partner][2]:
                problem = "family pair no longer differs in i"
            tally.record(label, seconds, problem)


WORKLOADS = {w.name: w for w in (WeresetLarge, CensusSmall, InvariantScramble)}
