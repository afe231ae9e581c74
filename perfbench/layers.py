"""Per-layer spans for the traced benchmark run, installed from outside.

Each traced srcox function is replaced by a wrapper on every binding
that holds it: module globals of every loaded ``srcox`` module (so
``homology.smith_normal_form`` is caught as well as the definition in
``exact_linalg``) and class attributes such as
``SimplicialComplex.largeness``.  Nothing inside srcox changes.

Spans are not stored one by one.  Every call adds its self time (its
duration minus the time covered by traced calls it made) and its work
counts to per-function totals, which are also kept per op kind.  Calls
made while no op is being timed (set-up, answer checks) pass straight
through and are not recorded.
"""

import functools
from time import perf_counter

MARK = "__perfbench_original__"


def _count_snf(tr, args, kwargs, result):
    # the hottest wrapper: plain list updates instead of tr.count
    M = args[0]
    size = getattr(M, "size", None)  # numpy array
    if size is None:
        size = M.rows * M.cols if hasattr(M, "rows") else \
            sum(len(row) for row in M)
    factors = result.invariant_factors
    snf = tr.snf
    snf[0] += size
    snf[1] += len(factors)
    snf[2] += factors.count(1)


def _count_scan(tr, args, kwargs, result):
    cpx = args[0]
    key = (cpx.n, cpx.facets)
    if key in tr.scan_keys:
        tr.count("homology.integral_subset_scan.hits", 1)
    else:
        tr.scan_keys.add(key)
        tr.count("homology.integral_subset_scan.subsets", 1 << cpx.n)


def _counter(metric, measure):
    def count(tr, args, kwargs, result):
        tr.count(metric, measure(result))
    return count


# (module, qualified name, metric prefix, extra counter or None)
TRACED = (
    ("srcox.exact_linalg", "smith_normal_form",
     "exact_linalg.smith_normal_form", _count_snf),
    ("srcox.exact_linalg", "rank", "exact_linalg.rank", None),
    ("srcox.homology", "integral_subset_scan",
     "homology.integral_subset_scan", _count_scan),
    ("srcox.homology", "boundary_matrix", "homology.boundary_matrix", None),
    ("srcox.homology", "profile_from_facets",
     "homology.profile_from_facets", None),
    ("srcox.homology", "reduced_homology", "homology.reduced_homology", None),
    ("srcox.complex_core", "SimplicialComplex.faces",
     "complex_core.faces", None),
    ("srcox.complex_core", "SimplicialComplex.largeness",
     "complex_core.largeness", None),
    ("srcox.complex_core", "SimplicialComplex.minimal_nonfaces",
     "complex_core.minimal_nonfaces", None),
    ("srcox.complex_core", "SimplicialComplex.alexander_dual",
     "complex_core.alexander_dual", None),
    ("srcox.complex_core", "SimplicialComplex.face_complex",
     "complex_core.face_complex", None),
    ("srcox.complex_core", "load_cplx", "complex_core.load_cplx", None),
    ("srcox.sr_invariants", "betti_table", "sr_invariants.betti_table", None),
    ("srcox.sr_invariants", "regularity", "sr_invariants.regularity", None),
    ("srcox.sr_invariants", "vcd_nerve", "sr_invariants.vcd_nerve", None),
    ("srcox.sr_invariants", "cdreg_claim_check",
     "sr_invariants.cdreg_claim_check", None),
    ("srcox.sr_invariants", "link_candidates",
     "sr_invariants.link_candidates",
     _counter("sr_invariants.link_candidates.candidates", len)),
    ("srcox.sr_invariants", "is_cohen_macaulay",
     "sr_invariants.is_cohen_macaulay", None),
    ("srcox.racg", "word_ball", "racg.word_ball",
     _counter("racg.word_ball.elements", lambda r: r.total())),
    ("srcox.racg", "kernel_displacement_search",
     "racg.kernel_displacement_search",
     _counter("racg.kernel_displacement_search.elements_seen",
              lambda r: r.elements_seen)),
    ("srcox.racg", "build_system", "racg.build_system", None),
    ("srcox.quotient_builder", "image_group", "quotient_builder.image_group",
     _counter("quotient_builder.image_group.order", lambda r: r.order)),
    ("srcox.quotient_builder", "quotient_complex",
     "quotient_builder.quotient_complex",
     _counter("quotient_builder.quotient_complex.cells",
              lambda r: len(r.cells))),
    ("srcox.quotient_builder", "thicken", "quotient_builder.thicken",
     _counter("quotient_builder.thicken.vertices", lambda r: r.n)),
    ("srcox.quotient_builder", "s_construction",
     "quotient_builder.s_construction", None),
    ("srcox.cli", "main", "cli.main", None),
)

NESTED_PROFILE = "homology.profile_from_facets"


def _srcox_owners():
    """Every module and class through which srcox code looks a traced
    name up."""
    import sys
    owners = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "srcox" or name.startswith("srcox.")):
            continue
        owners[id(mod)] = mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and \
                    getattr(value, "__module__", "").startswith("srcox"):
                owners[id(value)] = value
    return list(owners.values())


def wrapped_bindings():
    """Bindings in srcox that currently hold a benchmark wrapper; empty
    whenever tracing is not installed."""
    found = []
    for owner in _srcox_owners():
        for attr, value in list(vars(owner).items()):
            if hasattr(value, MARK):
                found.append(f"{owner.__name__}.{attr}")
    return sorted(found)


class Tracer:
    """Aggregated self time and work counts per traced function."""

    def __init__(self):
        self.active = False
        self.kind = None
        self.stack = []  # per open span: time covered by its child spans
        self.stats = {}  # metric prefix -> {op kind: [calls, self time]}
        self.counts = {}
        self.snf = [0, 0, 0]  # matrix entries, invariant factors, units
        self.scan_keys = set()
        self.missing = []

    def count(self, metric, value):
        self.counts[metric] = self.counts.get(metric, 0) + value

    def _wrap(self, fn, prefix, extra):
        tracer = self
        stats = self.stats.setdefault(prefix, {})
        nested = [0] if prefix == NESTED_PROFILE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if nested is not None:
                # profile_from_facets calls itself only for a nerve
                if nested[0]:
                    tracer.count(f"{prefix}.nerve_calls", 1)
                nested[0] += 1
            stack = tracer.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                acc = stats.get(tracer.kind)
                if acc is None:
                    acc = stats[tracer.kind] = [0, 0.0]
                acc[0] += 1
                acc[1] += dur - child
                if nested is not None:
                    nested[0] -= 1
            if extra is not None:
                extra(tracer, args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        """Replace every binding of each traced function by its wrapper."""
        import importlib
        owners = _srcox_owners()
        for modname, qualname, prefix, extra in TRACED:
            owner = importlib.import_module(modname)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{modname}.{qualname}")
                continue
            wrapper = self._wrap(original, prefix, extra)
            for holder in owners:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)

    def begin(self, kind):
        self.kind = kind
        self.active = True

    def end(self):
        self.active = False
        self.stack.clear()

    def calls(self, prefix):
        return sum(acc[0] for acc in self.stats.get(prefix, {}).values())

    def self_s(self, prefix, kind=None):
        return sum(acc[1] for k, acc in self.stats.get(prefix, {}).items()
                   if kind in (None, k))

    def layer_metrics(self, op_time_s, construct_time_s):
        """Every per-layer metric named in BENCHMARK.json."""
        out = {}
        for _, _, prefix, _ in TRACED:
            out[f"{prefix}.calls"] = self.calls(prefix)
            out[f"{prefix}.self_s"] = self.self_s(prefix)
        entries, factors, units = self.snf
        out["exact_linalg.smith_normal_form.entries"] = entries
        out["exact_linalg.smith_normal_form.unit_share"] = \
            units / factors if factors else 0.0
        for metric in ("homology.integral_subset_scan.subsets",
                       "homology.profile_from_facets.nerve_calls",
                       "sr_invariants.link_candidates.candidates",
                       "racg.word_ball.elements",
                       "racg.kernel_displacement_search.elements_seen",
                       "quotient_builder.image_group.order",
                       "quotient_builder.quotient_complex.cells",
                       "quotient_builder.thicken.vertices"):
            out[metric] = self.counts.get(metric, 0)
        scans = self.calls("homology.integral_subset_scan")
        hits = self.counts.get("homology.integral_subset_scan.hits", 0)
        out["homology.integral_subset_scan.hit_ratio"] = \
            hits / scans if scans else 0.0
        out["ops.time_s"] = op_time_s
        linalg = (self.self_s("exact_linalg.smith_normal_form")
                  + self.self_s("exact_linalg.rank"))
        out["exact_linalg.op_share"] = linalg / op_time_s if op_time_s else 0.0
        out["ops.construct_time_s"] = construct_time_s
        big = (self.self_s("complex_core.largeness", "construct")
               + self.self_s("complex_core.minimal_nonfaces", "construct"))
        out["complex_core.construct_share"] = \
            big / construct_time_s if construct_time_s else 0.0
        return out
