"""The benchmark's workloads: seeded input streams, the op each input drives,
and the check of each op's output.

Every workload is a closed loop with one caller: the next op starts when the
previous one has returned and been checked.  An op is one cable record
(``census``, ``wide``), one mountain query (``mountain``) or one
``python -m torus_cables.cli`` process (``cli``).  Inputs come only from the
seed; the library sees nothing but the generated values.

Checks run outside the timed region.  An op fails when a check finds a
mismatch or the op raises where it should not; a seeded invalid input
succeeds only when the function named by ``rejected_by`` raises
``ValueError`` (in-process) or the process exits 1 with a one-line
``error:`` on stderr (CLI).
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from torus_cables.bypass import BACK, FRONT, TorusState
from torus_cables.farey import INFINITY, Slope, normalize
from torus_cables.legendrian import CableSpec, max_tb
from torus_cables.torus_knots import TorusKnotSpec

SUBCOMMANDS = ("farey", "bypass", "tori", "classify", "mountain", "transverse", "verify")


def _knots(max_width: int) -> list:
    return [
        TorusKnotSpec(p, q)
        for p in range(2, max_width)
        for q in range(p + 1, max_width + 3)
        if gcd(p, q) == 1 and p * q - p - q <= max_width
    ]


def _coprime_pair(rng, r_bound: int, s_lo: int, s_hi: int) -> tuple:
    while True:
        r = rng.randint(-r_bound, r_bound)
        s = rng.randint(s_lo, s_hi)
        if r and gcd(abs(r), s) == 1:
            return r, s


def _small_slope(rng, bound: int) -> Slope:
    """A reduced slope with |num|, den <= bound, the infinite one included."""
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(0, bound)
        if b == 0:
            return INFINITY
        if a and gcd(abs(a), b) == 1:
            return Slope(a, b)


def _index(rng, w: int, hi: int) -> int:
    """An exceptional index >= 2 coprime to the width (any n >= 1 for the trefoil)."""
    while True:
        n = rng.randint(1 if w == 1 else 2, hi)
        if gcd(n, w) == 1:
            return n


def _verify_params(rng, knot: TorusKnotSpec, index: int) -> tuple:
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    if knot.is_trefoil:
        k = rng.randint(1, 4)
        while gcd(k, m) != 1:
            m = rng.randint(1, 4)
        if rng.random() < 0.5:
            return ("qual1", k, m, max(n, 2))
        return ("qual2", k, m, max(n, 3))
    while gcd(m, n) != 1:
        n = rng.randint(1, 4)
    return ("qual4", index, m, n)


# -- census and wide: the full cable record -----------------------------------

VERIFY_EVERY = 8  # one record in this many also runs verify_qualitative
INVALID_SHARE = 0.03

@dataclass(frozen=True)
class Record:
    """Inputs of one cable record.  ``invalid`` records have s = 1 and r below
    the width, which the classification rejects with ValueError."""

    knot: TorusKnotSpec
    r: int
    s: int
    ruling: Slope
    index: int
    verify: object  # (suite, k, m, n) on one record in VERIFY_EVERY, else None
    invalid: bool


@dataclass
class RecordOut:
    slope: Slope
    interval: object
    nbrs: tuple
    cf: tuple
    bypass: tuple
    quotient: object
    direct: object
    report: object


def _record(rng, knot: TorusKnotSpec, r_bound: int, s_hi: int, invalid: bool, verify: bool) -> Record:
    w = knot.width
    if invalid:
        r = rng.randint(-r_bound, w - 1) or -1
        s = 1
    else:
        r, s = _coprime_pair(rng, r_bound, 2, s_hi)
    slope = normalize(s, r)
    ruling = _small_slope(rng, 8)
    while ruling == slope:
        ruling = _small_slope(rng, 8)
    index = _index(rng, w, 40)
    verify = _verify_params(rng, knot, index) if verify else None
    return Record(knot, r, s, ruling, index, verify, s == 1)


def census_covers(knot: TorusKnotSpec, slope: Slope) -> bool:
    """Slopes the solid-torus census documents: not negative reciprocal
    integers, trefoil slopes above 1, other positive slopes from 1/w up."""
    v = Fraction(slope.num, slope.den)
    if v < 0:
        return slope.num != -1
    if knot.is_trefoil:
        return v > 1
    return v >= Fraction(1, knot.width)


def cable_record(c, rec: Record) -> RecordOut:
    knot = rec.knot
    slope = c.call("farey.normalize", rec.s, rec.r)
    c.call("torus_knots.locate", knot, slope)
    interval = c.call("torus_knots.influence_interval", knot, rec.index)
    if census_covers(knot, slope):
        c.call("torus_knots.tori_census", knot, slope)
    u = Slope(abs(slope.num), slope.den)
    nbrs = c.call("farey.neighbors", u)
    cf = c.call("farey.cf_expand", u)
    state = TorusState(slope, rec.ruling)
    bypass = (
        c.call("bypass.attach_bypass", state, FRONT),
        c.call("bypass.attach_bypass", state, BACK),
    )
    cable = CableSpec(knot, rec.r, rec.s)
    cls = c.call("legendrian.classify", cable)
    c.counters["legendrian.classify.generators"] += len(cls.generators)
    quotient = c.call("transverse.quotient_transverse", cls)
    direct = c.call("transverse.classify_transverse", cable)
    report = None
    if rec.verify is not None:
        report = c.call("transverse.verify_qualitative", knot, *rec.verify)
    return RecordOut(slope, interval, nbrs, cf.coeffs, bypass, quotient, direct, report)


def _cf_value(coeffs: tuple) -> Fraction:
    x = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        x = a - 1 / x
    return x


def _edge(a: Slope, b: Slope) -> bool:
    return abs(a.num * b.den - b.num * a.den) == 1


def _branch_multiset(tcls) -> Counter:
    return Counter((b.sl_top, b.merge_sl, b.destabilizable) for b in tcls.branches)


class CableRecords:
    """``census`` and ``wide``: one full cable record per op."""

    imports = ("torus_cables",)
    rejected_by = "legendrian.classify"

    name = None

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.expected = {}  # oracle answers, computed once per distinct input

    def key(self, rec) -> tuple:
        return (rec.knot, rec.r, rec.s)

    def width(self, rec) -> int:
        return rec.knot.width

    def op(self, c, rec) -> RecordOut:
        return cable_record(c, rec)

    def check(self, c, rec, out: RecordOut) -> list:
        if rec.invalid:
            return [self.rejected_by]  # returned where it should have raised
        bad = []
        slope = out.slope
        if slope.den <= 0 or Fraction(slope.num, slope.den) != Fraction(rec.s, rec.r):
            bad.append("farey.normalize")
        u = Slope(abs(slope.num), slope.den)
        key = ("neighbors", u)
        if key not in self.expected:
            self.expected[key] = c.call("farey.neighbors_oracle", u, u.den)
        if out.nbrs != self.expected[key]:
            bad.append("farey.neighbors")
        if _cf_value(out.cf) != Fraction(u.num, u.den):
            bad.append("farey.cf_expand")
        iv = out.interval
        w = rec.knot.width
        if (
            iv.center != normalize(rec.index, w)
            or not _edge(iv.center, iv.upper)
            or not _edge(iv.center, iv.lower)
            or (iv.upper.num + iv.lower.num, iv.upper.den + iv.lower.den) != (iv.center.num, iv.center.den)
        ):
            bad.append("torus_knots.influence_interval")
        state = TorusState(slope, rec.ruling)
        for side, got in zip((FRONT, BACK), out.bypass):
            key = ("bypass", slope, rec.ruling, side)
            if key not in self.expected:
                den_bound = rec.ruling.den + 2 * slope.den + 2
                self.expected[key] = c.call("bypass.attach_bypass_oracle", state, side, den_bound)
            if got != self.expected[key]:
                bad.append("bypass.attach_bypass")
        if _branch_multiset(out.quotient) != _branch_multiset(out.direct):
            bad.append("transverse.quotient_transverse")
        if out.report is not None and not out.report.passed:
            bad.append("transverse.verify_qualitative")
        return bad

    def invalid(self, rec) -> bool:
        return rec.invalid


class Census(CableRecords):
    """Small knots (w <= 50), |r|, s <= 60, records drawn from a fixed pool so
    that inputs repeat."""

    name = "census"
    KNOTS = _knots(50)
    POOL = 1024

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.pool = [
            _record(rng, self.KNOTS[i % len(self.KNOTS)], 60, 60,
                    rng.random() < INVALID_SHARE, rng.randrange(VERIFY_EVERY) == 0)
            for i in range(self.POOL)
        ]

    def stream(self):
        while True:
            yield self.pool[self.rng.randrange(self.POOL)]


class Wide(CableRecords):
    """Knots of width 959 to 90599, nearly every input distinct.

    A fixed cyclic schedule of knots keeps the mix the same on every seed.
    Its slots are placed so that each reported percentile falls inside one
    knot's stratum, not on the edge between two: T(71,73) spans the 35th to
    65th percentiles (p50) and T(301,303) the top 15% (p90).  The smaller widths come
    first so that a run holds enough ops for a p90 with ten samples beyond.

    A T(301,303) record costs about 0.7 s, twice that with
    verify_qualitative and a tenth of it when invalid, and these records
    carry most of a run's time.  So which records verify or are invalid is
    fixed by position, not drawn: every slot verifies once in VERIFY_EVERY
    cycles, staggered across slots, and one record in INVALID_EVERY is
    invalid, a count coprime to the cycle so that invalid records visit
    every slot alike.  A run ends on a whole cycle (``cycle``).
    """

    INVALID_EVERY = 33

    SCHEDULE = (
        (31, 33), (71, 73), (41, 43), (301, 303), (71, 73), (53, 57), (97, 101),
        (71, 73), (31, 33), (131, 137), (71, 73), (301, 303), (41, 43), (71, 73),
        (181, 191), (53, 57), (71, 73), (97, 101), (31, 33), (301, 303),
    )

    name = "wide"
    cycle = len(SCHEDULE)

    def stream(self):
        i = 0
        while True:
            knot = TorusKnotSpec(*self.SCHEDULE[i % self.cycle])
            invalid = i % self.INVALID_EVERY == self.INVALID_EVERY - 1
            verify = (i // self.cycle + i) % VERIFY_EVERY == 0
            yield _record(self.rng, knot, 200, 100, invalid, verify)
            i += 1


# -- mountain -----------------------------------------------------------------

@dataclass(frozen=True)
class MountainQuery:
    knot: TorusKnotSpec
    r: int
    s: int
    depth: int
    sample_seed: int

    @property
    def invalid(self) -> bool:
        return self.depth < 0


@dataclass
class MountainOut:
    cls: object
    mr: object
    text: str


def mountain_work(knot: TorusKnotSpec, r: int, s: int, depth: int) -> int:
    """Rough size of the seed commit's lattice sweep: rows x rot span x generators."""
    w = knot.width
    gens = 2 * (w + abs(r) // s) + 2
    span = 2 * (abs(r) + s * w) + 2 * depth
    return (depth + 1) * span * gens


class Mountain:
    """classify, mountain_range at a depth of 10 to 40, render_mountain.

    Cables of knots of width 1 to 119 from every region.  Each op first picks
    a work bucket from a fixed cycle, then draws cables until one's estimated
    sweep (``mountain_work``) falls in that bucket.  The buckets double from
    1e4 to 2.56e6 units, about a millisecond to 300 ms at the seed commit, and the
    cycle gives every seed the same mix.  Its shares put p50 in the middle
    of bucket 3's (ranks 9 to 12 of 20) and p90 in the middle of bucket 6's
    (ranks 18 and 19), not on an edge between two buckets, where the
    percentile would move with the mix of both buckets' tails; the estimate
    is rough, so neighbouring buckets' times overlap.
    """

    imports = ("torus_cables", "torus_cables.cli")
    rejected_by = "legendrian.mountain_range"
    # Every knot up to width 30 and the near-diagonal ones up to 119, so that
    # the many wide T(2, q)-like knots do not crowd out the small ones.
    KNOTS = [k for k in _knots(120) if k.q - k.p <= 2 or k.width <= 30]
    BUCKET_EDGES = tuple(10_000 * 2**i for i in range(9))
    CYCLE = (0, 1, 2, 3, 4, 5, 6, 0, 1, 3, 4, 3, 5, 6, 0, 1, 2, 3, 4, 7)
    INVALID_EVERY = 50
    SAMPLES = 16

    cycle = len(CYCLE)

    def __init__(self, seed: int):
        self.rng = random.Random(f"mountain:{seed}")

    def _draw(self, bucket: int) -> MountainQuery:
        rng = self.rng
        lo, hi = self.BUCKET_EDGES[bucket], self.BUCKET_EDGES[bucket + 1]
        while True:
            knot = rng.choice(self.KNOTS)
            r, s = _coprime_pair(rng, 40, 2, 24)
            depth = rng.randint(10, 40)
            if lo <= mountain_work(knot, r, s, depth) < hi:
                return MountainQuery(knot, r, s, depth, rng.getrandbits(32))

    def stream(self):
        i = 0
        while True:
            q = self._draw(self.CYCLE[i % len(self.CYCLE)])
            if i % self.INVALID_EVERY == self.INVALID_EVERY - 1:
                q = MountainQuery(q.knot, q.r, q.s, -1, q.sample_seed)  # floor above tb_max
            yield q
            i += 1

    def key(self, q) -> tuple:
        return (q.knot, q.r, q.s, q.depth)

    def width(self, q) -> int:
        return q.knot.width

    def invalid(self, q) -> bool:
        return q.invalid

    def op(self, c, q) -> MountainOut:
        cls = c.call("legendrian.classify", CableSpec(q.knot, q.r, q.s))
        c.counters["legendrian.classify.generators"] += len(cls.generators)
        mr = c.call("legendrian.mountain_range", cls, cls.tb_max - q.depth)
        c.counters["legendrian.mountain_range.cells"] += len(mr.counts)
        text = c.call("cli.render_mountain", mr)
        return MountainOut(cls, mr, text)

    def check(self, c, q, out: MountainOut) -> list:
        if q.invalid:
            return [self.rejected_by]  # returned where it should have raised
        bad = []
        mr, cls = out.mr, out.cls
        rng = random.Random(q.sample_seed)
        cells = sorted(mr.counts)
        rots = [rot for rot, _ in cells]
        lo, hi = min(rots), max(rots)
        points = rng.sample(cells, min(self.SAMPLES // 2, len(cells)))
        while len(points) < self.SAMPLES:
            points.append((rng.randint(lo - 2, hi + 2), rng.randint(mr.tb_floor, mr.tb_max)))
        for rot, tb in points:
            if len(c.call("legendrian.classes_at", cls, rot, tb)) != mr.count(rot, tb):
                bad.append("legendrian.mountain_range")
                break
        lines = out.text.split("\n")
        per_row = Counter(tb for _, tb in cells)
        rows_ok = len(lines) == mr.tb_max - mr.tb_floor + 2 and all(
            len(line.split()) - 1 - line.split()[1:].count(".") == per_row[tb]
            for line, tb in zip(lines[1:], range(mr.tb_max, mr.tb_floor - 1, -1))
        )
        if not rows_ok:
            bad.append("cli.render_mountain")
        return bad


# -- cli ----------------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    sub: str
    argv: tuple
    invalid: bool = False


def _pq(knot) -> str:
    return f"--pq={knot.p},{knot.q}"


def _cli_argv(rng, sub: str, as_json: bool) -> tuple:
    """Arguments of one valid query.  Options take ``--opt=value`` and slope
    positionals follow ``--``, so that negative values are not read as options."""
    fmt = ("--json",) if as_json else ()
    small = _knots(11)
    if sub == "farey":
        op = rng.choice(("neighbors", "cf", "mediant", "edge", "intersect"))
        num, den = _coprime_pair(rng, 40, 1, 40)
        slopes = (str(Slope(abs(num), den)),)
        if op not in ("neighbors", "cf"):
            slopes += (str(_small_slope(rng, 12)),)
        return ("farey", op, *fmt, "--", *slopes)
    if sub == "bypass":
        d = _small_slope(rng, 12)
        r = _small_slope(rng, 12)
        while r == d:
            r = _small_slope(rng, 12)
        return ("bypass", rng.choice(("front", "back")), *fmt, "--", str(d), str(r))
    if sub == "tori":
        knot = rng.choice(small)
        action = rng.choice(("census", "locate", "interval", "width"))
        if action == "interval":
            return ("tori", "interval", _pq(knot), f"--n={_index(rng, knot.width, 30)}", *fmt)
        if action == "width":
            return ("tori", "width", _pq(knot), *fmt)
        while True:
            slope = normalize(*reversed(_coprime_pair(rng, 30, 1, 30)))
            if action == "locate" or census_covers(knot, slope):
                return ("tori", action, _pq(knot), f"--slope={slope}", *fmt)
    if sub in ("classify", "transverse", "mountain"):
        knot = rng.choice(small[:4] if sub == "mountain" else small)
        r, s = _coprime_pair(rng, 12 if sub == "mountain" else 40, 2, 6 if sub == "mountain" else 40)
        argv = (sub, _pq(knot), f"--rs={r},{s}", *fmt)
        if sub == "mountain":
            tb_max = max_tb(CableSpec(knot, r, s))
            return argv + (f"--tb-floor={tb_max - rng.randint(2, 8)}",)
        return argv
    knot = rng.choice(small)
    suite, k, m, n = _verify_params(rng, knot, _index(rng, knot.width, 12))
    return ("verify", f"--suite={suite}", _pq(knot), f"--k={k}", f"--m={m}", f"--n={n}", *fmt)


ERROR_ARGVS = (
    ("classify", "--pq=2,5", "--rs=2,1"),
    ("farey", "neighbors", "--", "-1/2"),
    ("tori", "census", "--pq=2,3", "--slope=1/2"),
    ("mountain", "--pq=2,3", "--rs=2,3", "--tb-floor=100"),
)


def run_cli(argv: tuple) -> tuple:
    """One ``python -m torus_cables.cli`` process; returns (code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "torus_cables.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class Cli:
    """One CLI process per op, all 7 subcommands in text and --json.

    A fixed 14-slot cycle (subcommand x format) keeps the mix the same on
    every seed; every 20th op is a domain error expected to exit 1.
    """

    imports = ("torus_cables", "torus_cables.cli")
    rejected_by = None  # a rejected query exits 1; the check reads its stderr
    ERROR_EVERY = 20

    def __init__(self, seed: int):
        self.rng = random.Random(f"cli:{seed}")

    def functions(self) -> dict:
        return {f"cli.{sub}": run_cli for sub in SUBCOMMANDS}

    def stream(self):
        rng = self.rng
        i = 0
        while True:
            if i % self.ERROR_EVERY == self.ERROR_EVERY - 1:
                argv = ERROR_ARGVS[(i // self.ERROR_EVERY) % len(ERROR_ARGVS)]
                yield CliCall(argv[0], argv, invalid=True)
            else:
                sub = SUBCOMMANDS[i % len(SUBCOMMANDS)]
                yield CliCall(sub, _cli_argv(rng, sub, (i // len(SUBCOMMANDS)) % 2 == 1))
            i += 1

    def key(self, call) -> tuple:
        return call.argv

    def width(self, call):
        return None

    def invalid(self, call) -> bool:
        return call.invalid

    def op(self, c, call) -> tuple:
        code, stdout, stderr = c.call(f"cli.{call.sub}", call.argv)
        c.counters["cli.stdout_bytes"] += len(stdout)
        return code, stdout, stderr

    def check(self, c, call, out) -> list:
        from torus_cables import cli

        code, stdout, stderr = out
        name = f"cli.{call.sub}"
        if call.invalid:
            ok = code == 1 and stdout == "" and stderr.startswith("error:") and stderr.count("\n") == 1
            return [] if ok else [name]
        buf_out, buf_err = io.StringIO(), io.StringIO()
        expected_code = cli.run(list(call.argv), out=buf_out, err=buf_err)
        if code != 0 or expected_code != 0 or stdout != buf_out.getvalue():
            return [name]
        if "--json" in call.argv and not _json_matches_library(call, json.loads(stdout)):
            return [name]
        return []


def _json_matches_library(call: CliCall, doc: dict) -> bool:
    """Compare the fields of a --json document with the in-process library."""
    from torus_cables import bypass, farey, legendrian, torus_knots, transverse

    words = [a for a in call.argv if a not in ("--json", "--")]
    opts = dict(a[2:].split("=", 1) for a in words if a.startswith("--"))
    if call.sub == "farey":
        op, a = words[1], Slope.parse(words[2])
        if op == "neighbors":
            upper, lower = farey.neighbors(a)
            return (doc["upper"], doc["lower"]) == (str(upper), str(lower))
        if op == "cf":
            return doc["coefficients"] == list(farey.cf_expand(a).coeffs)
        b = Slope.parse(words[3])
        key, value = {
            "mediant": ("mediant", lambda: str(farey.mediant(a, b))),
            "edge": ("edge", lambda: farey.is_edge(a, b)),
            "intersect": ("intersection", lambda: farey.intersect(a, b)),
        }[op]
        return doc[key] == value()
    if call.sub == "bypass":
        state = bypass.TorusState(Slope.parse(words[2]), Slope.parse(words[3]))
        return doc["new_dividing"] == str(bypass.attach_bypass(state, words[1]))
    knot = TorusKnotSpec(*map(int, opts["pq"].split(",")))
    if call.sub == "tori":
        action = words[1]
        if action == "width":
            return doc["width"] == torus_knots.width(knot)
        if action == "interval":
            iv = torus_knots.influence_interval(knot, int(opts["n"]))
            return (doc["e_n"], doc["e_n_a"], doc["e_n_c"]) == (str(iv.center), str(iv.upper), str(iv.lower))
        slope = Slope.parse(opts["slope"])
        if action == "locate":
            region = torus_knots.locate(knot, slope)
            return (doc["region"], doc["index"]) == (region.kind, region.index)
        rec = torus_knots.tori_census(knot, slope)
        return (doc["torus_count"], doc["standard_count"]) == (rec.torus_count, rec.standard_count)
    if call.sub == "verify":
        rep = transverse.verify_qualitative(knot, opts["suite"], int(opts["k"]), int(opts["m"]), int(opts["n"]))
        return (doc["passed"], len(doc["claims"]), doc["cable"]) == (
            rep.passed, len(rep.claims), {"r": rep.cable.r, "s": rep.cable.s})
    cls = legendrian.classify(CableSpec(knot, *map(int, opts["rs"].split(","))))
    if call.sub == "mountain":
        mr = legendrian.mountain_range(cls, int(opts["tb-floor"]))
        return {(e["rot"], e["tb"]): e["count"] for e in doc["counts"]} == mr.counts
    gens = [(g["id"], g["tb"], g["rot"]) for g in doc["generators"]]
    if gens != [(g.id, g.tb, g.rot) for g in cls.generators]:
        return False
    if (doc["case"], doc["simple"]) != (str(cls.region), cls.simple):
        return False
    if call.sub == "transverse":
        tcls = transverse.quotient_transverse(cls)
        branches = [(b["origin"], b["sl_top"], b["merge_sl"], b["destabilizable"]) for b in doc["branches"]]
        return doc["max_sl"] == tcls.max_sl and branches == [
            (b.origin, b.sl_top, b.merge_sl, b.destabilizable) for b in tcls.branches]
    return True


WORKLOADS = {"census": Census, "wide": Wide, "mountain": Mountain, "cli": Cli}

