"""Spans and counters around valdetect's public functions, for the traced run.

The tracer replaces each listed function with a wrapper wherever it is bound:
in its own module, in every valdetect module that imported the name, and on
the class for methods.  A span's self time is its duration minus the time
covered by the spans it caused, so the self times of all spans plus the time
outside any span add up to the traced wall time.  Hot one-line functions are
wrapped with a counter only, which costs less than a span; their time stays
with the caller.

Nothing here reads or clears valdetect's private caches: cold state comes
from running each workload in a fresh process.
"""

import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name); the span name's prefix is
# the layer the time is booked to
SPANS = [
    ("valdetect.scans", "scan_index", "scans.build"),
    ("valdetect.milnor", "steinberg_scan", "milnor.steinberg"),
    ("valdetect.milnor", "k2_cyclic_order", "milnor.k2_order"),
    ("valdetect.milnor", "tame_symbol", "milnor.tame"),
    ("valdetect.milnor", "k2_tame_lower_bound", "milnor.tame"),
    ("valdetect.coeffmod", "howell_form", "coeffmod.howell"),
    ("valdetect.coeffmod", "kernel_mod", "coeffmod.kernel"),
    ("valdetect.coeffmod", "smith_form", "coeffmod.smith"),
    ("valdetect.central", "frame_from_k2", "central.frame"),
    ("valdetect.central", "cl_pair", "central.cl_pair"),
    ("valdetect.central", "cl_center", "central.cl_center"),
    ("valdetect.cpairs", "c_pair_direct", "cpairs.direct"),
    ("valdetect.cpairs", "c_pair_ktheory", "cpairs.ktheory"),
    ("valdetect.cpairs", "c_center", "cpairs.c_center"),
    ("valdetect.cpairs", "c_group", "cpairs.c_group"),
    ("valdetect.characters", "CharacterGroup.elements", "characters.elements"),
    ("valdetect.characters", "decomp_chars", "characters.decomp_chars"),
    ("valdetect.rigid", "valuative_test", "rigid.valuative_test"),
    ("valdetect.rigid", "UnitGroupApprox.is_unit", "rigid.is_unit"),
    ("valdetect.detect", "detect_from_cpair", "detect.cpair"),
    ("valdetect.detect", "detect_from_cgroup", "detect.cgroup"),
    ("valdetect.detect", "detect_inertia", "detect.inertia"),
    ("valdetect.detect", "class_membership", "detect.classify"),
    ("valdetect.detect", "valuative_members", "detect.valuative_members"),
    ("valdetect.fields", "parse_field", "fields.parse"),
    ("valdetect.fields", "parse_window", "fields.parse"),
    ("valdetect.fields", "Window.classify", "fields.classify"),
    ("valdetect.fields", "Elt.__add__", "fields.elt_add"),
    ("valdetect.ffpoly", "FiniteField.poly_gcd", "ffpoly.poly_gcd"),
    ("valdetect.cli", "main", "cli.main"),
]

COUNTERS = [
    ("valdetect.characters", "Character.evaluate_class",
     "characters.evaluate_class"),
    ("valdetect.ffpoly", "FiniteField.place_multiplicity",
     "ffpoly.place_multiplicity"),
]

LAYERS = ("scans", "milnor", "coeffmod", "central", "cpairs", "characters",
          "rigid", "detect", "fields", "ffpoly", "cli")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = [0.0]
        self._patches = []
        self._scan_indexes = {}
        self._units = {}
        self._unit_args = set()
        self._marked = {}
        self._before = {"coeffmod.howell": self._howell_rows,
                        "rigid.is_unit": self._unit_arg}
        self._after = {"scans.build": self._scan_result,
                       "milnor.steinberg": self._steinberg_result,
                       "cpairs.direct": self._direct_result}

    # -- wrappers ------------------------------------------------------------
    def _span(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter
        after = self._after.get(name)
        before = self._before.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            t0 = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                self_s[name] += dt - inner
                calls[name] += 1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters read off arguments and results -------------------------------
    def _howell_rows(self, args):
        rows = args[0]
        if not hasattr(rows, "__len__"):
            rows = list(rows)
            args = (rows,) + tuple(args[1:])
        self.counts["coeffmod.howell_rows"] += len(rows)
        return args

    def _unit_arg(self, args):
        approx, h = args[0], args[1]
        serial = self._units.setdefault(id(approx), (len(self._units), approx))
        self._unit_args.add((serial[0], h.data))
        return args

    def _scan_result(self, args, idx):
        self._scan_indexes[id(idx)] = idx

    def _steinberg_result(self, args, sp):
        self.counts["milnor.witnesses"] += len(sp.witnesses)

    def _direct_result(self, args, verdict):
        if not verdict.holds():
            self.counts["cpairs.direct_neg"] += 1

    # -- install / remove ------------------------------------------------------
    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, n=name: self._span(n, fn))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))

    def _patch(self, module, attr, make):
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._set(owner, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "valdetect"
                                     or name.startswith("valdetect.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapper)

    def _set(self, owner, key, value):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def stop(self):
        """Restore every patched binding; later calls are not recorded."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------
    def counters(self):
        """Work counts; identical on every run of the same inputs."""
        c = dict(self.counts)
        c["scans.triples"] = sum(len(block)
                                 for idx in self._scan_indexes.values()
                                 for block in idx.blocks)
        c["rigid.is_unit_distinct"] = len(self._unit_args)
        c["rigid.nonmembers"] = sum(
            approx.payload()["scanned_nonmembers"]
            for _, approx in self._units.values())
        for name, n in self.calls.items():
            c[name + "_calls"] = n
        return c

    def mark(self):
        """Start of the timed region: layer_self_s counts from here on, so
        that parsing during set-up does not count against the wall time."""
        self._marked = dict(self.self_s)

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s - self._marked.get(name, 0.0)
        return out
