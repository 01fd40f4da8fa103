"""In-memory span tracer for one benchmark pass.

The tracer wraps the public functions of each fusionhom layer from the
outside: `install` replaces every binding of a wrapped function in every
loaded ``fusionhom`` module (``rank`` is imported by name into
``annular``, ``tube`` and ``acceptance``, so patching ``exactarith``
alone would miss those calls), and `uninstall` puts the originals back.
A span records (name, start, end, parent index); self time is computed
afterwards from the parent links.  A few hot methods are wrapped as
plain counters, because a span per call would cost more than the call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> public functions that get a span of their own
SPANS = {
    "exactarith": ("poly_gcd", "rank", "kernel_basis", "span_solve",
                   "mat_vec", "float_rank"),
    "annular": ("enumerate_diagrams", "boundary_matrix", "h0_report",
                "h1_vanishing_check", "h2_vanishing_check"),
    "fusion": ("tlj_even", "from_group", "tlj_ladder", "verify_axioms",
               "perron_dims", "beta0", "hochschild_h1_witness"),
    "amenability": ("from_fusion_ring", "folner_search", "kesten_check",
                    "tlj_kesten_window"),
    "tube": ("tube_from_group", "verify_identities", "fusion_corner",
             "bar_boundary_matrix", "trivial_homology"),
    "betti": ("tlj_profile", "fuss_catalan", "free_product",
              "tensor_product"),
    "cli": ("main",),
}

# (module, class, method, span name)
METHOD_SPANS = (("exactarith", "SparseMat", "mat_mul", "exactarith.mat_mul"),)

# (module, owner or None, attribute, counter name)
COUNTERS = (
    ("exactarith", "RatFunc", "__init__", "exactarith.ratfunc.constructions"),
    ("fusion", "FusionRing", "support", "fusion.support.calls"),
    ("annular", None, "boundary", "annular.boundary.calls"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []
        self.counts = Counter()  # counters and per-result sizes
        self._patches = []       # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, on_result=None, name_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name_of(args) if name_of else name
                spans[idx] = (label, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _result_hooks(self):
        counts = self.counts

        def nnz(m):
            counts["annular.boundary_matrix.nnz"] += len(m.entries)

        def entries(ring):
            counts["fusion.tlj_ladder.entries"] += len(ring.N)

        def h2_columns(rep):
            counts["annular.h2.columns_used"] += rep["columns_used"]
            counts["annular.h2.columns_available"] += rep["columns_available"]

        def candidates(rep):
            counts["amenability.folner_search.candidates"] += rep.candidates

        return {"annular.boundary_matrix": nnz,
                "fusion.tlj_ladder": entries,
                "annular.h2_vanishing_check": h2_columns,
                "amenability.folner_search": candidates}

    # -- installation -------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every fusionhom module binding of original at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("fusionhom") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        from fusionhom import acceptance, cli  # noqa: F401 - load every layer
        hooks = self._result_hooks()
        for mod_name, names in SPANS.items():
            mod = sys.modules[f"fusionhom.{mod_name}"]
            for name in names:
                label = f"{mod_name}.{name}"
                original = getattr(mod, name)
                self._rebind(original, self._span(label, original,
                                                  hooks.get(label)))
        run_criterion = acceptance.run_criterion
        self._rebind(run_criterion, self._span(
            "acceptance", run_criterion,
            name_of=lambda args: f"acceptance.{args[0]}"))
        for mod_name, cls, attr, label in METHOD_SPANS:
            owner = getattr(sys.modules[f"fusionhom.{mod_name}"], cls)
            self._patch_attr(owner, attr,
                             self._span(label, vars(owner)[attr]))
        for mod_name, cls, attr, label in COUNTERS:
            mod = sys.modules[f"fusionhom.{mod_name}"]
            if cls is None:
                original = getattr(mod, attr)
                self._rebind(original, self._counter(label, original))
            else:
                owner = getattr(mod, cls)
                self._patch_attr(owner, attr,
                                 self._counter(label, vars(owner)[attr]))

    def uninstall(self) -> bool:
        """Restore every original binding; True if all are back in place."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original
                   for owner, attr, original in patches)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts and self/total seconds, plus the counters."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        self_s, total_s = defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - covered[idx]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "total_s": dict(total_s), "counts": dict(self.counts)}
