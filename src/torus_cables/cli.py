"""Command-line interface.

Every engine is exposed as a one-shot query with a text report on stdout
and an optional JSON rendering (--json).  Exit status: 0 on success, 1 on
domain errors (one-line diagnostic on stderr) or failed verification
claims, 2 on usage errors.  All slopes are printed as exact "num/den"
strings; no floating point anywhere.

``COMMANDS`` is the whole command set: it maps ``(command, op)`` -- the
``farey`` op, the ``tori`` action, or None -- to a handler and to the
arguments that entry needs beyond what argparse enforces.  A handler takes
the parsed arguments and returns ``(payload, text)``, plus an exit code for
``verify``; it neither writes output nor reads ``--json``.  The payload is a
dict and the text a string, or, where they grow with the answer
(``classify``, ``mountain``, ``transverse``), each a callable that builds
it, so only the one that is printed gets built.  ``run`` is the one
emitter: it reports a missing argument (exit 2), turns a ValueError, or a
MemoryError from an answer too large to build, into one ``error: ...`` line
on stderr and nothing on stdout (exit 1), and prints the payload as JSON or
the text.

A positional slope may be negative: every subcommand reads ``-3/2``, ``-3``
and ``-.5`` as values, not options, so ``bypass front -1/2 0/1`` needs no
``--``.

Handlers read every library name through the package (``tc.classify``),
whose export table imports a layer on first access, so a command loads
only its own layers.  Only ``farey`` is imported with this module, for the
``Slope`` that argparse's ``_slope`` needs.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys

import torus_cables as tc

from .farey import Slope

# Literal copies of bypass.SIDES and transverse.SUITES, so that building the
# parser loads neither layer; tests/test_cli.py pins them to the originals.
SIDES = ("front", "back")
SUITES = ("qual1", "qual2", "qual4")


_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _slope(text: str) -> Slope:
    try:
        return Slope.parse(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dump(payload) -> str:
    import json

    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _fields(value) -> dict:
    """A value's fields by name, in field order, each ``Slope`` as its string:
    the payload of a value whose keys are its fields."""
    return {name: str(v) if isinstance(v, Slope) else v for name, v in zip(value._fields, value)}


def _cable_payload(cable) -> dict:
    return {"p": cable.knot.p, "q": cable.knot.q, "r": cable.r, "s": cable.s}


def classification_payload(cls) -> dict:
    return {
        "cable": _cable_payload(cls.cable),
        "case": str(cls.region),
        "parameters": _fields(cls.parameters),
        "generators": [
            {
                "id": g.id,
                "tb": g.tb,
                "rot": g.rot,
                "sign": g.sign,
                "bound": g.bound,
                "destabilizable": g.destabilizable,
            }
            for g in cls.generators
        ],
        "simple": cls.simple,
    }


def transverse_payload(cls, tcls) -> dict:
    payload = classification_payload(cls)
    payload["max_sl"] = tcls.max_sl
    payload["branches"] = [_fields(b) for b in tcls.branches]
    return payload


def _mountain_payload(cable, mr) -> dict:
    return {
        "cable": _cable_payload(cable),
        "tb_floor": mr.tb_floor,
        "tb_max": mr.tb_max,
        "counts": [  # top row first, each row in ascending rot
            {"rot": rot, "tb": tb, "count": n}
            for tb, row in zip(range(mr.tb_max, mr.tb_floor - 1, -1), reversed(mr.runs))
            for start, stop, n in row
            for rot in range(start, stop, 2)
        ],
    }


_GLYPHS = b".123456789abcdefghijklmnopqrstuvwxyz*"  # indexed by min(count, 36)


def render_mountain(mr) -> str:
    """ASCII grid: tb rows descending, one column per rot in the populated
    span, digits (letters from ten up, ``*`` from 36) at populated cells and
    dots elsewhere.

    Every column is ``colw`` characters wide, its glyph last.  A row starts
    as all dots, and each run of ``mr.runs`` writes its glyph into every
    second column from its start to its stop with one slice assignment, so
    a row costs one step per run, not per cell.  The floor row spans every
    row (see ``MountainRange``), so the span is read from it alone."""
    floor = mr.runs[0]
    lo, hi = floor[0][0], floor[-1][1] - 2  # a run's stop is one step past its last rot
    # The widest label of a range of integers sits at one of its ends.
    colw = max(len(str(lo)), len(str(hi))) + 1
    gutter = max(len(str(mr.tb_floor)), len(str(mr.tb_max)))
    lines = [(" " * gutter + (f"%{colw}d" * (hi - lo + 1)) % tuple(range(lo, hi + 1))).encode()]
    dots = (b" " * (colw - 1) + b".") * (hi - lo + 1)
    at = gutter + colw - 1 - lo * colw  # the glyph of rot sits at at + rot * colw
    for tb, row in zip(range(mr.tb_max, mr.tb_floor - 1, -1), reversed(mr.runs)):
        line = bytearray(str(tb).rjust(gutter).encode() + dots)
        for start, stop, n in row:
            glyph, cells = min(n, 36), (stop - start) // 2
            line[at + start * colw:at + stop * colw:2 * colw] = _GLYPHS[glyph:glyph + 1] * cells
        lines.append(line)
    return b"\n".join(lines).decode()


def _farey_neighbors(args):
    if args.den_bound is not None:
        upper, lower = tc.neighbors_oracle(args.a, args.den_bound)
    else:
        upper, lower = tc.neighbors(args.a)
    payload = {"slope": str(args.a), "upper": str(upper), "lower": str(lower)}
    return payload, f"upper {upper}, lower {lower}"


def _farey_cf(args):
    cf = tc.cf_expand(args.a)
    return {"slope": str(args.a), "coefficients": list(cf.coeffs)}, str(cf)


def _farey_mediant(args):
    m = tc.mediant(args.a, args.b)
    return {"a": str(args.a), "b": str(args.b), "mediant": str(m)}, str(m)


def _farey_combine(args):
    c = tc.farey_combine(args.a, args.b, args.m, args.n)
    payload = {"a": str(args.a), "b": str(args.b), "m": args.m, "n": args.n, "result": str(c)}
    return payload, str(c)


def _farey_edge(args):
    res = tc.is_edge(args.a, args.b)
    return {"a": str(args.a), "b": str(args.b), "edge": res}, "edge" if res else "no edge"


def _farey_intersect(args):
    v = tc.intersect(args.a, args.b)
    return {"a": str(args.a), "b": str(args.b), "intersection": v}, str(v)


def _bypass(args):
    state = tc.TorusState(dividing=args.dividing, ruling=args.ruling)
    if args.den_bound is not None:
        result = tc.attach_bypass_oracle(state, args.side, args.den_bound)
    else:
        result = tc.attach_bypass(state, args.side)
    payload = {**_fields(state), "side": args.side, "new_dividing": str(result)}
    return payload, f"new dividing slope {result}"


def _tori_census(args):
    spec = tc.TorusKnotSpec(*args.pq)
    rec = tc.tori_census(spec, args.slope)
    payload = {"knot": _fields(spec), "slope": str(args.slope), **_fields(rec)}
    return payload, f"{rec.torus_count} tori, {rec.standard_count} standard; {rec.note}"


def _tori_profile(args):
    spec = tc.TorusKnotSpec(*args.pq)
    prof = tc.nonthickenable_profile(spec, args.k)
    payload = {
        "knot": _fields(spec),
        "k": prof.index,
        "n_k": prof.n_k,
        "dividing_curves": prof.dividing_curves,
        "torus_count": prof.torus_count,
    }
    return payload, (f"{prof.torus_count} non-thickenable tori with "
                     f"{prof.dividing_curves} dividing curves (n_k = {prof.n_k})")


def _tori_locate(args):
    spec = tc.TorusKnotSpec(*args.pq)
    region = tc.locate(spec, args.slope)
    payload = {
        "knot": _fields(spec),
        "slope": str(args.slope),
        "region": region.kind,
        "index": region.index,
    }
    return payload, str(region)


def _tori_interval(args):
    spec = tc.TorusKnotSpec(*args.pq)
    iv = tc.influence_interval(spec, args.n)
    payload = {
        "knot": _fields(spec),
        "n": iv.index,
        "e_n": str(iv.center),
        "e_n_a": str(iv.upper),
        "e_n_c": str(iv.lower),
    }
    return payload, f"e = {iv.center}, upper {iv.upper}, lower {iv.lower}"


def _tori_width(args):
    spec = tc.TorusKnotSpec(*args.pq)
    w = tc.width(spec)
    return {"knot": _fields(spec), "width": w}, str(w)


def _tori_indices(args):
    spec = tc.TorusKnotSpec(*args.pq)
    idx = sorted(tc.exceptional_indices(spec, args.bound))
    payload = {"knot": _fields(spec), "bound": args.bound, "indices": idx}
    return payload, " ".join(str(i) for i in idx)


def _cable(args):
    return tc.CableSpec(tc.TorusKnotSpec(*args.pq), *args.rs)


def _classify(args):
    cls = tc.classify(_cable(args))

    def text():
        p = cls.parameters
        lines = [
            f"cable {cls.cable} (slope {cls.cable.slope}), case {cls.region}",
            f"tb_max {p.tb_max}, simple {str(cls.simple).lower()}",
        ]
        if p.e_n is not None:
            lines.append(f"exceptional slope {p.e_n}, interval ({p.e_n_c}, {p.e_n_a})")
        for g in cls.generators:
            extra = ""
            if g.protected:
                extra = f", bound {g.bound}, " + (
                    "destabilizable" if g.destabilizable else "non-destabilizable"
                )
            lines.append(f"  {g.id}: tb {g.tb}, rot {g.rot}{extra}")
        return "\n".join(lines)

    return lambda: classification_payload(cls), text


def _mountain(args):
    cls = tc.classify(_cable(args))
    mr = tc.mountain_range(cls, args.tb_floor)
    return lambda: _mountain_payload(cls.cable, mr), lambda: render_mountain(mr)


def _transverse(args):
    cable = _cable(args)
    cls = tc.classify(cable)
    tcls = tc.quotient_transverse(cls)

    def text():
        lines = [
            f"cable {cable} (slope {cable.slope}), case {cls.region}",
            f"max sl {tcls.max_sl}, transversely simple {str(tcls.simple).lower()}",
        ]
        for b in tcls.branches:
            if b.origin == tc.transverse.TOP_CHAIN:
                lines.append(f"  top chain from sl {b.sl_top}")
            else:
                kind = "destabilizable" if b.destabilizable else "non-destabilizable"
                lines.append(f"  branch {b.origin}: sl {b.sl_top}, {kind}, merges at sl {b.merge_sl}")
        if cls.region.kind == tc.torus_knots.INFLUENCE_LOWER:
            lines.append("  note: branch sl follows tb - rot of its generator; the uniform closed form "
                         f"r*s + r - s*w would sit 2*{tc.intersect(cable.slope, cls.parameters.e_n)} higher")
        if args.sl_floor is not None:
            for sl in range(tcls.max_sl, args.sl_floor - 1, -2):
                lines.append(f"  sl {sl}: {tc.count_transverse(tcls, sl)} classes")
        return "\n".join(lines)

    return lambda: transverse_payload(cls, tcls), text


def _verify(args):
    spec = tc.TorusKnotSpec(*args.pq)
    report = tc.verify_qualitative(spec, args.suite, args.k, args.m, args.n)
    payload = _fields(report)  # update keeps each key in its field's place
    payload.update(knot=_fields(spec), cable={"r": report.cable.r, "s": report.cable.s},
                   claims=[_fields(c) for c in report.claims], passed=report.passed)
    lines = [f"suite {report.suite} on {spec} with k={report.k} m={report.m} "
             f"n={report.n}: cable ({report.cable.r},{report.cable.s})"]
    for c in report.claims:
        mark = "PASS" if c.passed else "FAIL"
        detail = f" [{c.detail}]" if c.detail else ""
        lines.append(f"  {mark}  {c.description}{detail}")
    return payload, "\n".join(lines), 0 if report.passed else 1


# (command, farey op or tori action) -> (handler, arguments the entry needs
# beyond what argparse enforces: a positional name or an option "--name").
COMMANDS = {
    ("farey", "neighbors"): (_farey_neighbors, ()),
    ("farey", "cf"): (_farey_cf, ()),
    ("farey", "mediant"): (_farey_mediant, ("b",)),
    ("farey", "combine"): (_farey_combine, ("b", "m", "n")),
    ("farey", "edge"): (_farey_edge, ("b",)),
    ("farey", "intersect"): (_farey_intersect, ("b",)),
    ("bypass", None): (_bypass, ()),
    ("tori", "census"): (_tori_census, ("--slope",)),
    ("tori", "profile"): (_tori_profile, ("--k",)),
    ("tori", "locate"): (_tori_locate, ("--slope",)),
    ("tori", "interval"): (_tori_interval, ("--n",)),
    ("tori", "width"): (_tori_width, ()),
    ("tori", "indices"): (_tori_indices, ("--bound",)),
    ("classify", None): (_classify, ()),
    ("mountain", None): (_mountain, ()),
    ("transverse", None): (_transverse, ()),
    ("verify", None): (_verify, ()),
}


def _ops(command: str) -> list:
    return [op for cmd, op in COMMANDS if cmd == command]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-cables",
        description="Exact Legendrian and transverse classification data for "
        "cables of positive torus knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_farey = sub.add_parser("farey", help="slope arithmetic and tessellation queries")
    p_farey.add_argument("op", choices=_ops("farey"))
    p_farey.add_argument("a", type=_slope)
    p_farey.add_argument("b", type=_slope, nargs="?")
    p_farey.add_argument("m", type=int, nargs="?")
    p_farey.add_argument("n", type=int, nargs="?")
    p_farey.add_argument("--den-bound", type=int, default=None)
    p_farey.add_argument("--json", action="store_true")

    p_byp = sub.add_parser("bypass", help="dividing slope after a bypass attachment")
    p_byp.add_argument("side", choices=SIDES)
    p_byp.add_argument("dividing", type=_slope)
    p_byp.add_argument("ruling", type=_slope)
    p_byp.add_argument("--den-bound", type=int, default=None,
                       help="run the brute-force search instead of the closed form")
    p_byp.add_argument("--json", action="store_true")

    p_tori = sub.add_parser("tori", help="solid-torus census and geometry queries")
    p_tori.add_argument("action", choices=_ops("tori"))
    p_tori.add_argument("--pq", type=_pair, required=True)
    p_tori.add_argument("--slope", type=_slope)
    p_tori.add_argument("--k", type=int)
    p_tori.add_argument("--n", type=int)
    p_tori.add_argument("--bound", type=int)
    p_tori.add_argument("--json", action="store_true")

    for name in ("classify", "mountain", "transverse"):
        pc = sub.add_parser(name)
        pc.add_argument("--pq", type=_pair, required=True)
        pc.add_argument("--rs", type=_pair, required=True)
        pc.add_argument("--json", action="store_true")
        if name == "mountain":
            pc.add_argument("--tb-floor", type=int, required=True)
        if name == "transverse":
            pc.add_argument("--sl-floor", type=int, default=None)

    p_ver = sub.add_parser("verify", help="check a qualitative statement end to end")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument("--pq", type=_pair, default=(2, 3))
    p_ver.add_argument("--k", type=int, required=True)
    p_ver.add_argument("--m", type=int, required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--json", action="store_true")
    for p in sub.choices.values():  # argparse's own pattern lacks "/"
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def run(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    op = getattr(args, "op", None) or getattr(args, "action", None)
    handler, needs = COMMANDS[args.command, op]
    for name in needs:
        if getattr(args, name.lstrip("-")) is None:
            label = name if name.startswith("--") else f"argument {name!r}"
            err.write(f"{args.command} {op}: missing {label}\n")
            return 2
    try:
        payload, text, *code = handler(args)
        shown = payload if args.json else text
        shown = shown() if callable(shown) else shown
        shown = _dump(shown) if args.json else shown + "\n"
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        err.write("error: the answer does not fit in memory\n")
        return 1
    out.write(shown)
    return code[0] if code else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
