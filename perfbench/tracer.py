"""Per-layer call tracing of symprod, installed from outside the program.

`Tracer.install()` replaces the functions and methods listed in TARGETS with
timing wrappers.  A function is replaced wherever a symprod module or class
holds it, because callers look names up where they imported them: orbifold
imports binom_pow and exp_series from series by name, fock imports
closed_series and _compare from orbifold, and Series.__radd__ is the same
function as Series.__add__.  Patching only the defining module would miss
those calls.  A target missing from the program is skipped and reads as zero
calls, so the tracer keeps working when a later version removes a function.

Coarse spans (jobs, cli.main, brute/closed series, the Fock relation check
and basis) are kept one by one with start, end, parent and self time.
Every other call is aggregated into count, total and self time per (name,
enclosing coarse span), so memory stays bounded when a function runs
hundreds of thousands of times.  Self time is a span's time minus the time
of the wrapped calls it made.  The wrappers' own bookkeeping is timed too
and charged to the harness, so layer self times plus harness time add up
to the traced wall.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "orbifold", "series", "graded", "cycletypes", "fock")
_RAISED = object()  # result of a wrapped call that raised


def _terms_out(tracer, args, result):
    tracer.counters["orbifold.terms_out"] += len(result.terms)


def _mul_pairs(tracer, args, result):
    a, b = args[0], args[1]
    other = len(b.terms) if hasattr(b, "terms") else 1
    tracer.counters["series.mul.term_pairs"] += len(a.terms) * other


def _tensor_pairs(tracer, args, result):
    tracer.counters["graded.tensor.term_pairs"] += (
        len(args[0].dims) * len(args[1].dims))


def _sym_power_key(tracer, args, result):
    tracer.distinct["graded.sym_power"].add(
        (type(args[0]).__name__, tuple(sorted(args[0].dims.items())),
         args[1:]))


def _cycle_types(tracer, args, result):
    tracer.distinct["cycletypes"].add(args)
    tracer.counters["cycletypes.partitions"] += len(result)


def _states(tracer, args, result):
    tracer.counters["fock.basis.states"] += len(result)


# (span name, module, attribute path, coarse, hook).  A hook sees the
# tracer, the positional arguments and the result of a call that returned;
# it runs in the wrapper's timed bookkeeping, which is charged to the harness.
TARGETS = (
    ("cli.main", "symprod.cli", "main", True, None),
    ("cli.load_manifold", "symprod.cli", "load_manifold", False, None),
    ("orbifold.verify_all", "symprod.orbifold", "verify_all", False, None),
    ("orbifold.verify", "symprod.orbifold", "verify", False, None),
    ("orbifold.brute_series", "symprod.orbifold", "brute_series", True,
     _terms_out),
    ("orbifold.closed_series", "symprod.orbifold", "closed_series", True,
     _terms_out),
    ("orbifold.compare", "symprod.orbifold", "_compare", False, None),
    ("orbifold.cross_checks", "symprod.orbifold", "cross_checks", False,
     None),
    ("series.mul", "symprod.series", "Series.__mul__", False, _mul_pairs),
    ("series.add", "symprod.series", "Series.__add__", False, None),
    ("series.binom_pow", "symprod.series", "binom_pow", False, None),
    ("series.exp_series", "symprod.series", "exp_series", False, None),
    ("series.product_over_levels", "symprod.series", "product_over_levels",
     False, None),
    ("series.substitute", "symprod.series", "substitute", False, None),
    ("series.specialize", "symprod.series", "specialize", False, None),
    ("series.render", "symprod.series", "Series.__str__", False, None),
    ("graded.sym_power", "symprod.graded", "GradedDims.sym_power", False,
     _sym_power_key),
    ("graded.sym_power", "symprod.graded", "BigradedDims.sym_power", False,
     _sym_power_key),
    ("graded.tensor", "symprod.graded", "GradedDims.tensor", False,
     _tensor_pairs),
    ("graded.tensor", "symprod.graded", "BigradedDims.tensor", False,
     _tensor_pairs),
    ("graded.construct", "symprod.graded", "GradedDims.__init__", False,
     None),
    ("graded.construct", "symprod.graded", "BigradedDims.__init__", False,
     None),
    ("cycletypes.cycle_types", "symprod.cycletypes", "cycle_types", False,
     _cycle_types),
    ("fock.check_relations", "symprod.fock", "check_relations", True, None),
    ("fock.basis", "symprod.fock", "FockSpace.basis", True, _states),
    ("fock.operator_build", "symprod.fock", "FockSpace.create", False, None),
    ("fock.operator_build", "symprod.fock", "FockSpace.annihilate", False,
     None),
    ("fock.apply", "symprod.fock", "FockOperator.apply", False, None),
    ("fock.apply_state", "symprod.fock", "FockOperator.apply_state", False,
     None),
    ("fock.character", "symprod.fock", "FockSpace.character", False, None),
)

COUNTERS = ("orbifold.terms_out", "series.mul.term_pairs",
            "graded.tensor.term_pairs", "cycletypes.partitions",
            "fock.basis.states")

# Per-state Fock operator application runs millions of times at about two
# microseconds a call, too short to read the clock around every call without
# the wrappers costing more than the harness budget.  These targets count
# every call exactly but time only every Nth one (N prime, so it does not
# lock onto the generator loops); their ".s" is the mean over the timed
# calls times the exact count, their ".self_s" covers the timed calls only,
# and an untimed call's time stays in its caller's self time.
SAMPLE_EVERY = {"fock.apply": 17, "fock.apply_state": 17}


def _resolve(module_name, path):
    """The function at module.path, or None when the program lacks it."""
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _namespaces():
    """Every dict a symprod caller can look a function up in: module
    globals and the dicts of classes defined in symprod."""
    for name, module in list(sys.modules.items()):
        if name != "symprod" and not name.startswith("symprod."):
            continue
        yield module.__dict__, lambda k, v, m=module: setattr(m, k, v)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value.__dict__, \
                    lambda k, v, c=value: setattr(c, k, v)


class Tracer:
    """Spans and counters of one traced pass.

    A wrapper reads the clock three times: t0 just before the call, t1 just
    after it, and t2 after its own bookkeeping.  The call's time is t1 - t0;
    t2 - t1 is charged to the harness; t2 - t0 is subtracted from the
    caller's self time.  What a wrapper does before t0 stays in the
    caller's self time.
    """

    def __init__(self):
        self.clock = time.perf_counter
        # a frame is [time of wrapped calls made from it, coarse span id]
        self.stack = [[0.0, None]]
        self.spans = []  # coarse: [name, start, end, parent id, self]
        self.fine = {}   # (name, coarse id) -> [calls, total, self]
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)
        self.bookkeeping = [0.0]
        self.exact_calls = {}  # sampled span name -> [calls]
        self.skipped = []

    def install(self):
        """Wrap every target present in the loaded symprod modules."""
        for name, module, path, coarse, hook in TARGETS:
            fn = _resolve(module, path)
            if fn is None:
                self.skipped.append("%s.%s" % (module, path))
                continue
            if coarse:
                wrapper = self.coarse(name, fn, hook)
            elif name in SAMPLE_EVERY:
                wrapper = self._sampled(name, fn, hook, SAMPLE_EVERY[name])
            else:
                wrapper = self._fine(name, fn, hook)
            wrapper = functools.wraps(fn)(wrapper)
            for namespace, assign in _namespaces():
                for key, value in list(namespace.items()):
                    if value is fn:
                        assign(key, wrapper)

    def charge_harness(self, seconds):
        """Book time spent in harness code that ran inside the innermost
        open span (a speed probe) to the harness instead of the span."""
        self.stack[-1][0] += seconds
        self.bookkeeping[0] += seconds

    def _open(self, name):
        parent = self.stack[-1]
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent[1], 0.0])
        frame = [0.0, sid]
        self.stack.append(frame)
        return parent, frame

    def _close(self, parent, frame, t0, t1):
        self.stack.pop()
        rec = self.spans[frame[1]]
        rec[1], rec[2], rec[4] = t0, t1, t1 - t0 - frame[0]

    def coarse(self, name, fn, hook=None):
        """fn wrapped to record each call as a coarse span."""
        clock, bookkeeping = self.clock, self.bookkeeping

        def wrapper(*args, **kwargs):
            parent, frame = self._open(name)
            result = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                self._close(parent, frame, t0, t1)
                if hook is not None and result is not _RAISED:
                    hook(self, args, result)
                t2 = clock()
                parent[0] += t2 - t0
                bookkeeping[0] += t2 - t1

        return wrapper

    def _fine(self, name, fn, hook):
        clock, stack, fine, bookkeeping = (self.clock, self.stack, self.fine,
                                           self.bookkeeping)
        records = {}  # coarse id -> the shared record in fine

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            result = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if hook is not None and result is not _RAISED:
                    hook(self, args, result)
                rec = records.get(parent[1])
                if rec is None:
                    rec = records[parent[1]] = fine.setdefault(
                        (name, parent[1]), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[0]
                t2 = clock()
                parent[0] += t2 - t0
                bookkeeping[0] += t2 - t1

        return wrapper

    def _sampled(self, name, fn, hook, every):
        timed = self._fine(name, fn, hook)
        calls = self.exact_calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            calls[0] += 1
            if calls[0] % every:
                return fn(*args, **kwargs)
            return timed(*args, **kwargs)

        return wrapper

    # -- results ---------------------------------------------------------

    def totals(self):
        """{span name: [calls, inclusive seconds, self seconds]}, zero for
        targets never called.  A coarse span nested in one of the same name
        (a recursive call) adds its call and self time but not its
        inclusive time again."""
        out = {target[0]: [0, 0.0, 0.0] for target in TARGETS}
        for name, start, end, parent, self_s in self.spans:
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[2] += self_s
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                rec[1] += end - start
        for (name, _), (calls, total, self_s) in self.fine.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, (calls,) in self.exact_calls.items():
            rec = out[name]
            if rec[0]:
                rec[1] *= calls / rec[0]
            rec[0] = calls
        return out

    def report(self, wall, stdout_bytes):
        """Flat per-layer metrics and the attribution split of one pass.

        wall is the traced time from the first job's start to the last
        job's end; every job ran inside a "harness.job" span.
        """
        totals = self.totals()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        # between jobs: the root frame holds the time of top-level spans
        harness = self.bookkeeping[0] + wall - self.stack[0][0]
        for name, (calls, total, self_s) in totals.items():
            layer = name.split(".")[0]
            if layer == "harness":
                harness += self_s
            else:
                layer_self[layer] += self_s
        m = {}
        for name, (calls, total, self_s) in totals.items():
            m[name + ".calls"] = calls
            m[name + ".s"] = total
            m[name + ".self_s"] = self_s
        for layer, self_s in layer_self.items():
            m[layer + ".self_s"] = self_s
        m.update(dict.fromkeys(COUNTERS, 0))
        m.update(self.counters)
        m["cli.stdout_bytes"] = stdout_bytes
        m["harness.self_s"] = harness
        m["traced.wall_s"] = wall
        calls = totals["graded.sym_power"][0]
        m["graded.sym_power.distinct_ratio"] = (
            len(self.distinct["graded.sym_power"]) / calls if calls else 0.0)
        calls = totals["cycletypes.cycle_types"][0]
        m["cycletypes.distinct_ratio"] = (
            len(self.distinct["cycletypes"]) / calls if calls else 0.0)
        accounted = sum(layer_self.values()) + harness
        m["attribution_gap_frac"] = abs(accounted - wall) / wall
        m["harness.self_frac"] = harness / wall
        return m

    def dump(self):
        """Coarse spans and fine aggregates, JSON-ready."""
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "self_s": x}
                for i, (n, s, e, p, x) in enumerate(self.spans)
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t,
                 "self_s": x}
                for (n, p), (c, t, x) in sorted(
                    self.fine.items(),
                    key=lambda kv: (kv[0][0], -1 if kv[0][1] is None
                                    else kv[0][1]))
            ],
            "skipped": self.skipped,
        }
