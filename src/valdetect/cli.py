"""Command-line surface: parse field/window/element specs, run the pipelines,
emit canonical JSON reports.

Output is byte-identical across runs for identical commands: fixed seeds,
canonical orderings, sorted keys, and arbitrary-precision integers printed
in full.  Exit status: 0 on success, 2 when a pipeline reports a hypothesis
failure, 1 on any other error, argument errors included (with a
machine-readable error payload).
"""

import argparse
import functools
import json
import sys

from .coeffmod import Level, index_m, index_n, level_bound
from .errors import (
    HypothesisFailed,
    ParseError,
    PreconditionViolated,
    ValdetectError,
)
from .characters import Character, CharacterGroup
from .cpairs import c_group, c_center, c_pair_direct, c_pair_ktheory
from .central import (
    AbelianElement,
    canonical_omega,
    cl_pair,
    cl_center,
    frame_from_k2,
)
from .detect import (
    class_membership,
    detect_from_cgroup,
    detect_from_cpair,
    detect_inertia,
)
from .fields import (
    ValuationHandle,
    format_element,
    parse_element,
    parse_field,
    parse_window,
)
from .milnor import k2_cyclic_order, k2_tame_lower_bound, steinberg_scan, tame_symbol
from .rigid import MultSubgroup, canonical_valuation, valuative_test

SCHEMA = "valdetect/1"

# element walks grow with the height and the tower depth: canonical-valuation
# --chars 0,0,0,0 on F7((r))((s))((t)) takes 1.5 s at height 32, 21 s at 64
MAX_HEIGHT = 32


def emit(payload, out=None):
    """Write the canonical JSON payload to the file `out`, or to stdout."""
    payload = {"schema": SCHEMA, **payload}
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # `levels` bounds pass it from 3^502 on
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    finally:
        sys.set_int_max_str_digits(cap)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _field(args):
    return parse_field(args.field)


def _window(args, model):
    return parse_window(model, args.window)


def _char(window, spec):
    spec = spec.strip()
    if "," in spec or spec.lstrip("-").isdigit():
        try:
            vals = tuple(int(v) for v in spec.split(","))
        except ValueError:
            raise ParseError(f"bad character values {spec!r}") from None
        return Character(window, vals)
    return Character.dual_by_label(window, spec)


def _group(window, spec):
    return CharacterGroup(window,
                          tuple(_char(window, s) for s in spec.split(";")))


def _context(args, window):
    return {"field": window.model.spec(), "window": window.spec(),
            "ell": window.level.ell, "n": window.level.n,
            "height": getattr(args, "height", None)}


def cmd_levels(args):
    Level(args.ell, args.n)  # rejects a non-prime ell, n < 1 and a big l^n
    nprime, nbig = index_n(args.ell, args.n)
    return {
        "ell": args.ell, "n": args.n,
        "M1": index_m(1, args.n), "M2": index_m(2, args.n),
        "Nprime": nprime, "N": nbig,
        "R": level_bound(args.ell, args.n),
    }


def cmd_eval(args):
    model = _field(args)
    w = _window(args, model)
    x = parse_element(model, args.element)
    out = _context(args, w)
    out["element"] = format_element(x)
    out["class"] = list(w.classify(x))
    if args.char:
        f = _char(w, args.char)
        out["character"] = f.label()
        out["value"] = f.evaluate(x)
    return out


def cmd_window(args):
    model = _field(args)
    w = _window(args, model)
    out = _context(args, w)
    out["generators"] = [w.gen_label(i) for i in range(w.rank)]
    out["orders"] = list(w.orders)
    out["mu_2ln"] = w.mu_2ln_ok()
    return out


def cmd_cpair(args):
    model = _field(args)
    w = _window(args, model)
    f, g = _char(w, args.f), _char(w, args.g)
    out = _context(args, w)
    out["f"], out["g"] = f.label(), g.label()
    if args.method in ("direct", "both"):
        out.update(c_pair_direct(f, g, args.height).payload())
    if args.method in ("ktheory", "both"):
        sp = steinberg_scan(w, args.height, stop_at_floor=True)
        kt = c_pair_ktheory(f, g, sp).payload()
        if args.method == "both":
            out["ktheory"] = kt
        else:
            out.update(kt)
    return out


def cmd_cgroup(args):
    model = _field(args)
    w = _window(args, model)
    grp = _group(w, args.gens)
    out = _context(args, w)
    out["generators"] = grp.labels()
    out.update(c_group(grp, args.height).payload())
    return out


def cmd_ccenter(args):
    model = _field(args)
    w = _window(args, model)
    grp = _group(w, args.gens) if args.gens else CharacterGroup.full(w)
    out = _context(args, w)
    center = c_center(grp, args.height)
    out["group"] = grp.labels()
    out["center"] = center.labels()
    out["is_cgroup"] = center == grp
    return out


def cmd_k2(args):
    model = _field(args)
    w = _window(args, model)
    sp = steinberg_scan(w, args.height, stop_at_floor=args.floor)
    order, c = k2_cyclic_order(sp)
    out = _context(args, w)
    out["order"] = order
    out["c"] = c
    out["exhaustive"] = sp.exhaustive
    out["witnesses"] = [format_element(wit.element()) for wit in sp.witnesses]
    try:
        lb = k2_tame_lower_bound(w)
        out["tame_lower_bound"] = lb
        out["certified_exact"] = sp.exhaustive or lb == order
    except ValdetectError:
        out["certified_exact"] = sp.exhaustive or order == 1
    return out


def cmd_tame(args):
    model = _field(args)
    place = ValuationHandle.from_steps(model, args.place.split(","))
    f = parse_element(model, args.f)
    g = parse_element(model, args.g)
    level = Level(args.ell, args.n)
    out = {"field": model.spec(), "ell": args.ell, "n": args.n,
           "place": place.spec(), "f": format_element(f),
           "g": format_element(g)}
    out["tame"] = tame_symbol(f, g, place, level).payload()
    return out


def cmd_valuative(args):
    model = _field(args)
    w = _window(args, model)
    grp = _group(w, args.chars)
    out = _context(args, w)
    out["characters"] = grp.labels()
    out.update(valuative_test(MultSubgroup(grp),
                              args.height).payload())
    return out


def cmd_canonical_valuation(args):
    model = _field(args)
    w = _window(args, model)
    grp = _group(w, args.chars)
    units = canonical_valuation(MultSubgroup(grp), args.height)
    out = _context(args, w)
    out["characters"] = grp.labels()
    out["units"] = units.payload()
    if args.test_elements:
        out["tested"] = {
            s: units.is_unit(parse_element(model, s))
            for s in args.test_elements.split(";")
        }
    return out


_DETECT_NEEDS = {"cpair": ("f", "g"), "inertia": ("inertia_gens",),
                 "classify": ("valuation",)}


def cmd_detect(args):
    missing = [name for name in _DETECT_NEEDS.get(args.mode, ())
               if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ParseError(f"--mode {args.mode} needs {flags}")
    model = _field(args)
    w = _window(args, model)
    lift = args.level if args.lift_level is None else args.lift_level
    wl = w.at_level(lift)
    if args.mode == "cpair":
        f, g = _char(wl, args.f), _char(wl, args.g)
        rep = detect_from_cpair(f, g, args.level, args.height,
                                aggressive=args.aggressive)
        return rep.payload()
    if args.mode == "cgroup":
        grp = _group(wl, args.gens) if args.gens else CharacterGroup.full(wl)
        rep = detect_from_cgroup(grp, args.level, args.height,
                                 aggressive=args.aggressive)
        return rep.payload()
    if args.mode == "inertia":
        grp = _group(wl, args.gens) if args.gens else CharacterGroup.full(wl)
        inert = _group(wl, args.inertia_gens)
        rep = detect_inertia(inert, grp, args.level, args.height,
                             aggressive=args.aggressive)
        return rep.payload()
    if args.mode == "classify":
        handle = ValuationHandle.from_steps(model, args.valuation.split(","))
        rep = class_membership(handle, w, args.level, args.height)
        return rep.payload()
    raise ParseError(f"unknown detect mode {args.mode!r}")


def cmd_cl_check(args):
    model = _field(args)
    w = _window(args, model)
    sp = steinberg_scan(w, args.height)
    omega = canonical_omega(w)
    frame = frame_from_k2(w, sp, omega)
    full = CharacterGroup.full(w)
    chars = full.elements()
    elems = [AbelianElement.from_character(frame, f) for f in chars]
    pairs_checked = 0
    disagreements = []
    for i, (f, a) in enumerate(zip(chars, elems)):
        for g, b in zip(chars[i:], elems[i:]):
            direct = c_pair_direct(f, g, args.height).holds()
            clv = cl_pair(a, b)
            pairs_checked += 1
            if direct != clv:
                disagreements.append({"f": f.label(), "g": g.label(),
                                      "c": direct, "cl": clv})
    center_c = c_center(full, args.height)
    center_cl = cl_center(
        [AbelianElement.from_character(frame, c) for c in full.gens], frame)
    cl_set = sorted(a.coeffs for a in center_cl)
    c_set = sorted(c.values for c in center_c.elements())
    out = _context(args, w)
    out["omega"] = format_element(omega)
    out["pairs_checked"] = pairs_checked
    out["disagreements"] = disagreements
    out["centers_agree"] = cl_set == c_set
    return out


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ParseError, so they leave as error payloads;
    subparsers inherit the class."""

    def error(self, message):
        raise ParseError(message)


class _Pending:
    """The add_argument calls of one subcommand, made on its parser only
    when that command is first parsed: a process pays for the arguments of
    the subcommands it runs, not of all of them."""

    def __init__(self, parser):
        self.parser, self.calls = parser, []

    def add_argument(self, *args, **kwargs):
        self.calls.append((args, kwargs))

    def replay(self):
        for args, kwargs in self.calls:
            self.parser.add_argument(*args, **kwargs)


@functools.cache  # one parser per process: building it takes milliseconds
def build_parser():
    """The parser with every subcommand's name and help registered; the
    arguments of each subcommand wait in `pending` until `parse` first
    meets its command.  Help texts and argument errors read as from a
    parser with every argument added."""
    ap = _Parser(
        prog="valdetect",
        description="Exact mod-l^n character, K2 and valuation-detection "
                    "computations over explicit small fields.")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.pending = {}

    def add_parser(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        pending = ap.pending[name] = _Pending(p)
        return pending

    def common(p, height=True):
        p.add_argument("--field", required=True)
        p.add_argument("--window", required=True)
        if height:
            p.add_argument("--height", type=int, default=4)
        p.add_argument("--output", default=None)

    p = add_parser("levels", cmd_levels, help="index bounds for a level")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", default=None)

    p = add_parser("eval", cmd_eval, help="window class and character values")
    common(p, height=False)
    p.add_argument("--element", required=True)
    p.add_argument("--char", default=None)

    p = add_parser("window", cmd_window, help="window structure report")
    common(p, height=False)

    p = add_parser("cpair", cmd_cpair, help="C-pair verdicts")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--method", choices=("direct", "ktheory", "both"),
                   default="direct")

    p = add_parser("cgroup", cmd_cgroup,
                   help="C-group verdict for a subgroup")
    common(p)
    p.add_argument("--gens", required=True,
                   help="semicolon-separated character specs")

    p = add_parser("ccenter", cmd_ccenter, help="C-center of a subgroup")
    common(p)
    p.add_argument("--gens", default=None)

    p = add_parser("k2", cmd_k2, help="K2 mod the window kernel")
    common(p)
    p.add_argument("--floor", action="store_true",
                   help="stop the Steinberg scan once the quotient is trivial")

    p = add_parser("tame", cmd_tame, help="tame symbol at a place")
    p.add_argument("--field", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--output", default=None)

    p = add_parser("valuative", cmd_valuative,
                   help="valuative test for a kernel")
    common(p)
    p.add_argument("--chars", required=True)

    p = add_parser("canonical-valuation", cmd_canonical_valuation,
                   help="unit predicate of the canonical valuation")
    common(p)
    p.add_argument("--chars", required=True)
    p.add_argument("--test-elements", default=None)

    p = add_parser("detect", cmd_detect, help="detection pipelines")
    common(p)
    p.add_argument("--mode", required=True,
                   choices=("cpair", "cgroup", "inertia", "classify"))
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--lift-level", type=int, default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--gens", default=None)
    p.add_argument("--inertia-gens", default=None)
    p.add_argument("--valuation", default=None)
    p.add_argument("--aggressive", action="store_true",
                   help="experimental: skip the lifting-level bound")

    p = add_parser("cl-check", cmd_cl_check,
                   help="CL vs C agreement over a whole window group")
    common(p)

    return ap


def parse(argv):
    """Parse argv, first adding the arguments of the subcommand it names:
    its first token that is not an option, since the top-level parser
    takes no option with a value."""
    ap = build_parser()
    command = next((a for a in argv if not a.startswith("-")), None)
    pending = ap.pending.pop(command, None)
    if pending is not None:
        pending.replay()
    return ap.parse_args(argv)


def main(argv=None) -> int:
    code, output = 0, None
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
        output = args.output
        if not 0 <= getattr(args, "height", 0) <= MAX_HEIGHT:
            raise PreconditionViolated(f"--height must be in 0..{MAX_HEIGHT}")
        payload = args.func(args)
    except HypothesisFailed as e:
        payload, code = {"error": e.payload()}, 2
    except ValdetectError as e:
        payload, code = {"error": e.payload()}, 1
    try:
        emit(payload, output)
    except OSError as e:
        err = PreconditionViolated(
            f"cannot write --output {output!r}: {e.strerror}")
        emit({"error": err.payload()})
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
