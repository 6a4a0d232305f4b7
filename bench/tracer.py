"""Outside-in tracer: spans around calls into each layer's public functions.

Nothing in the package is edited.  `Tracer.install` replaces every binding
of a layer's public functions, in every ``schemoids.*`` namespace that holds
one (``from .fincat import build_category`` included), with a wrapper that
records a span; `Tracer.uninstall` puts the originals back.  Spans are kept
in memory and written out once, after the traced pass.

Work counters are computed from the objects the calls return, after each
job, so that counting never lands inside a span's self time.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict
from fractions import Fraction

PACKAGE = "schemoids"

# Module names double as layer names.
LAYERS = ("cli", "schemes", "fincat", "schemoid", "algebra", "linalg", "extensions",
          "bridges", "thicken", "admissible", "corpus")

# Naming and arithmetic helpers called once per morphism, pair or pivot.
# Like FinCategory.comp they are too fine-grained to wrap: a span around
# each call would time the tracer, not the layer.
FINE_GRAINED = frozenset({
    "schemes.pair_morphism", "bridges.pair_name", "extensions.fiber_morphism_name",
    "linalg.gcd", "linalg.is_prime", "linalg.zeros", "linalg.identity",
})

RANK_FUNCTIONS = frozenset({"linalg.rank_rational", "linalg.rank_mod_p", "linalg.rank_mod2"})
LATTICE_FUNCTIONS = frozenset({"linalg.kernel_lattice_mod", "linalg.quotient_invariants"})

COUNTERS = (
    "schemes.points", "fincat.morphisms", "fincat.pairs", "fincat.triples",
    "schemoid.blocks", "algebra.basis", "algebra.closure_dim", "algebra.closure_products",
    "algebra.closure_useful_frac", "linalg.entries", "linalg.rank_s", "linalg.lattice_s",
    "extensions.complex_s", "extensions.d2_entries", "extensions.total_morphisms",
    "cli.bytes_in", "cli.bytes_out",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls", "refused")]
    return names + list(COUNTERS) + ["trace.overhead_frac"]


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "bytes" if name.startswith("cli.bytes") else "count"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "refused")

    def __init__(self, name, layer, start, end, parent, job, refused=False):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent      # index of the enclosing span, -1 at the top
        self.job = job
        self.refused = refused    # the call raised the package's domain error

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "refused": self.refused}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start) - covered)
    return out


def is_domain_error(err: BaseException) -> bool:
    """True for the package's own exception classes."""
    return type(err).__module__.startswith(PACKAGE + ".")


class Tracer:
    """Records spans for calls into the layers of one imported package."""

    def __init__(self, lib):
        self.lib = lib              # namespace holding the package's layer modules
        self.spans: list[Span] = []
        self.job = None
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._pending: list[tuple[str, bool, object, tuple]] = []
        self._generators = 0        # independent generators given to span_closure
        self._closure_dim = 0       # dimension of the closures span_closure returned
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, modules) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and f"{layer}.{name}" not in FINE_GRAINED):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        closure = self.lib.algebra.CategoryAlgebraClosure
        multiply = closure.multiply
        counts = self.counts

        @functools.wraps(multiply)
        def counted_multiply(this, u, v):
            counts["algebra.closure_products"] += 1
            return multiply(this, u, v)

        self._undo.append((closure, "multiply", multiply))
        closure.multiply = counted_multiply

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pending = self._pending

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(qual, layer, clock(), 0.0, parent, self.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span.refused = is_domain_error(err)
                raise
            finally:
                span.end = clock()
                stack.pop()
            outermost = parent < 0 or spans[parent].layer != layer
            if outermost or qual in ("algebra.span_closure", "extensions.bw_differentials"):
                pending.append((qual, outermost, result, args))
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def flush(self) -> None:
        """Turn the results recorded since the last flush into work counts."""
        lib, c = self.lib, self.counts
        for qual, outermost, result, args in self._pending:
            layer = qual.split(".", 1)[0]
            if qual == "algebra.span_closure":
                cat, ring, generators = args[:3]
                self._generators += _rank(generators, ring)
                self._closure_dim += result.dimension
            if qual == "extensions.bw_differentials":
                d2 = result.d2
                c["extensions.d2_entries"] += len(d2) * (len(d2[0]) if d2 else 0)
            if not outermost:
                continue
            if layer == "schemes":
                if isinstance(result, lib.schemes.CoherentConfiguration):
                    c["schemes.points"] += result.size
                elif isinstance(result, lib.schemoid.QuasiSchemoid):
                    c["schemes.points"] += len(result.category.objects)
            elif layer == "fincat":
                cat = result.base if isinstance(result, lib.fincat.Groupoid) else result
                if isinstance(cat, lib.fincat.FinCategory):
                    c["fincat.morphisms"] += len(cat.morphisms)
                    c["fincat.pairs"] += len(cat.compose)
                    c["fincat.triples"] += _triples(cat.compose)
            elif layer == "schemoid":
                if isinstance(result, lib.schemoid.QuasiSchemoid):
                    c["schemoid.blocks"] += len(result.partition)
                elif isinstance(result, lib.schemoid.MorphismPartition):
                    c["schemoid.blocks"] += len(result)
            elif layer == "algebra":
                if isinstance(result, lib.algebra.SchemoidAlgebra):
                    c["algebra.basis"] += result.dimension
                elif isinstance(result, lib.algebra.CategoryAlgebraClosure):
                    c["algebra.closure_dim"] += result.dimension
            elif layer == "linalg":
                c["linalg.entries"] += sum(len(a) * len(a[0]) for a in args
                                           if isinstance(a, list) and a and isinstance(a[0], list))
            elif layer == "extensions":
                if isinstance(result, lib.extensions.ExtensionCategory):
                    c["extensions.total_morphisms"] += len(result.total.morphisms)
        self._pending.clear()

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics over every span recorded; `extra` adds counts
        measured outside the tracer (CLI bytes, overhead)."""
        self.flush()
        out = {}
        own = self_times(self.spans)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.refused"] = 0
        for s, t in zip(self.spans, own):
            out[f"{s.layer}.self_s"] += t
            out[f"{s.layer}.calls"] += 1
            out[f"{s.layer}.refused"] += int(s.refused)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        out["linalg.rank_s"] = sum(s.end - s.start for s in self.spans if s.name in RANK_FUNCTIONS)
        out["linalg.lattice_s"] = sum(s.end - s.start for s in self.spans
                                      if s.name in LATTICE_FUNCTIONS)
        out["extensions.complex_s"] = sum(s.end - s.start for s in self.spans
                                          if s.name == "extensions.bw_differentials")
        products = out["algebra.closure_products"]
        out["algebra.closure_useful_frac"] = ((self._closure_dim - self._generators) / products
                                              if products else 0.0)
        out.update(extra)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans]}, fh)


def _triples(compose) -> int:
    """Composable triples (f, g, h): sum over g of #{f : (f, g)} * #{h : (g, h)}."""
    left = defaultdict(int)
    right = defaultdict(int)
    for f, g in compose:
        left[g] += 1
        right[f] += 1
    return sum(n * right[g] for g, n in left.items())


def _rank(vectors, ring) -> int:
    """Rank of sparse vectors over Q (Fraction) or F_p (ring.p)."""
    p = getattr(ring, "p", None)
    pivots: dict[object, dict] = {}
    rank = 0
    for vec in vectors:
        v = {k: (x % p if p else Fraction(x)) for k, x in vec.items()}
        v = {k: x for k, x in v.items() if x}
        while v:
            lead = min(v, key=str)
            row = pivots.get(lead)
            if row is None:
                pivots[lead] = v
                rank += 1
                break
            f = v[lead] * (pow(row[lead], -1, p) if p else 1 / row[lead])
            for k, x in row.items():
                y = v.get(k, 0) - f * x
                y = y % p if p else y
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return rank
