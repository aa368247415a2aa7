"""Run one weakper CLI invocation with layer tracing.

    python trace_boot.py SPANS_OUT <weakper arguments...>

Before calling weakper.cli.run, this wraps the functions each weakper
module imports from the layer below (search.is_potent,
companion.potency_exponent, ...), wherever a module binds them.  Coarse
calls get a span of (name, parent span, start, end, kernel seconds,
predicate result).  The hot kernels Mat.__mul__ and Poly.__divmod__ get a
count and summed time only, and that time is charged to the innermost
open span so that self times do not count it twice.  The FieldSpec element
operations and FieldSpec.__eq__ get counts only.  Everything stays in
memory and is written to SPANS_OUT once, after the invocation returns.
"""

import itertools
import json
import sys
import time

pc = time.perf_counter

# (module, function, span name); a predicate span also records its result
SPANS = (
    ("weakper.cli", "run", "cli.run"),
    ("weakper.search", "verify_field", "search.verify_field"),
    ("weakper.search", "load_report", "search.load_report"),
    ("weakper.search", "reverify_report", "search.reverify_report"),
    ("weakper.search", "brute_decompose", "search.brute_scan"),
    ("weakper.search", "brute_commuting_decompose", "search.brute_scan"),
    ("weakper.search", "count_decompositions", "search.brute_scan"),
    ("weakper.companion", "trace_matched_decomposition",
     "companion.trace_matched_decomposition"),
    ("weakper.companion", "potent_companion_with_trace",
     "companion.potent_companion_with_trace"),
    ("weakper.mat", "potency_exponent", "mat.potency_exponent"),
    ("weakper.mat", "is_potent", "mat.is_potent"),
    ("weakper.mat", "is_potent_iterative", "mat.is_potent_iterative"),
    ("weakper.mat", "min_poly", "mat.min_poly"),
    ("weakper.mat", "char_poly", "mat.char_poly"),
    ("weakper.poly", "factor", "poly.factor"),
    ("weakper.poly", "pow_mod", "poly.pow_mod"),
    ("weakper.poly", "gcd", "poly.gcd"),
    ("weakper.poly", "roots_in_extensions", "poly.roots_in_extensions"),
    ("weakper.gf", "embed", "gf.embed"),
    ("weakper.rosets", "pattern_spectra", "rosets.pattern_spectra"),
    ("weakper.rosets", "unity_sum_set", "rosets.unity_sum_set"),
    ("weakper.rosets", "containment_report", "rosets.containment_report"),
)
PREDICATES = {"mat.is_potent"}
METHOD_SPANS = (
    ("weakper.companion", "Witness", "verify", "companion.witness_verify"),
    ("weakper.mat", "Mat", "__pow__", "mat.pow"),
)
KERNELS = (
    ("weakper.mat", "Mat", "__mul__", "mat.mul"),
    ("weakper.poly", "Poly", "__divmod__", "poly.divmod"),
)
ELEM_OPS = ("_add", "_sub", "_mul", "_neg", "_inv")


# span -> key of its arguments, for counting distinct calls; field specs are
# canonical objects, so their identity stands in for them without calling
# FieldSpec.__eq__
def _matrix_key(M):
    return id(M.spec), M.n, M.entries


def _trace_key(t, n, spec):
    return t, n, id(spec)


DISTINCT = {
    "mat.potency_exponent": _matrix_key,
    "companion.potent_companion_with_trace": _trace_key,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.open = []
        self.kernels = {}
        self.counters = {}
        self.distinct = {name: set() for name in DISTINCT}

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn):
        name_id = self._name_id(name)
        spans, open_ = self.spans, self.open
        predicate = name in PREDICATES
        keyer = DISTINCT.get(name)
        seen = self.distinct.get(name)

        def traced(*args, **kwargs):
            if keyer is not None:
                seen.add(keyer(*args, **kwargs))
            rec = [name_id, open_[-1][6] if open_ else -1, 0.0, 0.0, 0.0,
                   None, len(spans)]
            spans.append(rec)
            open_.append(rec)
            rec[2] = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = pc()
                open_.pop()
            if predicate:
                rec[5] = bool(result)
            return result
        return traced

    def kernel(self, name, fn):
        tally = self.kernels[name] = [0, 0.0]
        open_ = self.open

        def timed(*args):
            start = pc()
            result = fn(*args)
            spent = pc() - start
            tally[0] += 1
            tally[1] += spent
            if open_:
                open_[-1][4] += spent
            return result
        return timed

    def counter(self, name, fn):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        def counted(*args):
            tick()
            return fn(*args)
        return counted

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "weakper" or name.startswith("weakper.")]
        for mod_name, attr, name in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for mod_name, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self.span(name, getattr(cls, attr)))
        for mod_name, cls_name, attr, name in KERNELS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self.kernel(name, getattr(cls, attr)))
        field_spec = sys.modules["weakper.gf"].FieldSpec
        for attr in ELEM_OPS:
            setattr(field_spec, attr,
                    self.counter("gf.elem_ops", getattr(field_spec, attr)))
        field_spec.__eq__ = self.counter("gf.field_eq_calls",
                                         field_spec.__eq__)

    def dump(self, path):
        start = pc()
        body = json.dumps({
            "names": self.names,
            "spans": [rec[:6] for rec in self.spans],
            "kernels": self.kernels,
            "counters": {k: next(c) for k, c in self.counters.items()},
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        })
        dump_s = pc() - start
        with open(path, "w") as fh:
            fh.write(body[:-1] + f', "dump_s": {dump_s!r}}}')


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import weakper.cli
    tracer = Tracer()
    tracer.install()
    code = weakper.cli.run(argv)
    sys.stdout.flush()
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
