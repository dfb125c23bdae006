"""Per-layer spans recorded from outside the program.

`Tracer.install` rebinds a fixed list of public talex functions to timing
wrappers in every loaded ``talex.*`` module that binds them, so calls made
through ``from .x import f`` names are caught as well.  Nothing under
``src/`` is edited.  Spans are kept in memory as
``[layer, start, end, parent, note]`` and reduced after the timed region:
a layer's self time is the sum of its spans' durations minus the time
covered by their child spans.

Layers, the end-to-end metric each should move, and the workload where it
should move (with the workload where no change is predicted):

    algebra.det.modp     wall_s               verify-modp (search-vacuous)
    algebra.det.zz       wall_s               verify-exact (verify-modp)
    homsearch.search     wall_s               search-vacuous (verify-*)
    twisted.wada         wall_s               verify-* (search-vacuous: 0 calls)
    twisted.evalrep      wall_s               verify-modp (search-vacuous)
    knots.fox            wall_s               verify-modp (search-vacuous)
    algebra.normalize    wall_s               verify-exact (search-vacuous)
    algebra.rootsprod    wall_s               verify-exact (search-vacuous)
    theorems.rhs         wall_s               verify-exact (search-vacuous)
    twisted.alexander    wall_s               verify-exact (search-vacuous)
    groups.regrep        peak_rss_mb, wall_s  search-vacuous (verify-exact)
    groups.build         peak_rss_mb, wall_s  search-vacuous (verify-exact)
    knots.load           setup_s, wall_s      all
    theorems.verify      setup_s, wall_s      all
    cli                  setup_s, wall_s      all

The determinant layer is split by the coefficient domain of the matrix
passed to ``determinant``.  ``wada_invariant`` called from
``alexander_polynomial`` (the trivial representation) is part of the
``twisted.alexander`` layer, not of ``twisted.wada``.
"""

from __future__ import annotations

import functools
import sys
import time

ALEXANDER = "twisted.alexander"
VERIFY = "theorems.verify"
SEARCH = "homsearch.search"
WADA = "twisted.wada"

GROUP_CONSTRUCTORS = ("cyclic", "dihedral", "dicyclic", "metacyclic",
                      "alternating4", "d3_semidirect_c3", "dp_semidirect_cp",
                      "direct_product", "trivial_group",
                      "group_from_cayley_json")

# layers whose spans must not be missing on a workload: (layer, workloads)
EXPECTED_WORK = {
    "algebra.det.modp": ("verify-modp",),
    "algebra.det.zz": ("verify-exact",),
    SEARCH: ("search-vacuous", "verify-modp", "verify-exact"),
    WADA: ("verify-modp", "verify-exact"),
    "twisted.evalrep": ("verify-modp",),
    "knots.fox": ("verify-modp",),
    "algebra.normalize": ("verify-exact",),
    "algebra.rootsprod": ("verify-exact",),
    "theorems.rhs": ("verify-exact",),
    ALEXANDER: ("verify-exact",),
    "groups.regrep": ("search-vacuous",),
    "groups.build": ("search-vacuous",),
    "knots.load": ("verify-modp", "verify-exact", "search-vacuous"),
    VERIFY: ("verify-modp", "verify-exact", "search-vacuous"),
    "cli": ("verify-modp", "verify-exact", "search-vacuous"),
}


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, layer_of, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer = layer_of(args)
            if layer is None:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, out)
            return out
        return traced

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def install(self) -> None:
        """Rebind every traced function in every loaded talex module.

        Raises AttributeError when a traced public function no longer
        exists, so a rename cannot silently drop a layer.
        """
        import talex.cli  # noqa: F401  (loads every talex module)

        def fixed(name):
            return lambda args: name

        def det_layer(args):
            return ("algebra.det.zz" if args[0].domain.p is None
                    else "algebra.det.modp")

        def wada_layer(args):
            return None if self._innermost() == ALEXANDER else WADA

        targets = [
            ("talex.cli", "main", fixed("cli"), None),
            ("talex.knots", "load_knot_table", fixed("knots.load"), None),
            ("talex.theorems", "verify_congruence", fixed(VERIFY), None),
            ("talex.theorems", "rhs", fixed("theorems.rhs"), None),
            ("talex.homsearch", "find_meridional_surjections",
             fixed(SEARCH), lambda args, out: out),
            ("talex.twisted", "alexander_polynomial", fixed(ALEXANDER), None),
            ("talex.twisted", "wada_invariant", wada_layer, None),
            ("talex.twisted", "evaluate_rep_phi",
             fixed("twisted.evalrep"), None),
            ("talex.knots", "fox_derivative", fixed("knots.fox"), None),
            ("talex.algebra", "determinant", det_layer,
             lambda args, out: args[0].rows),
            ("talex.algebra", "rational_normalize",
             fixed("algebra.normalize"), None),
            ("talex.algebra", "product_over_roots_of_unity",
             fixed("algebra.rootsprod"), None),
            ("talex.groups", "regular_representation", fixed("groups.regrep"),
             lambda args, out: out.group.order * out.dimension ** 2),
        ] + [("talex.groups", name, fixed("groups.build"), None)
             for name in GROUP_CONSTRUCTORS]

        modules = [m for name, m in sys.modules.items()
                   if name == "talex" or name.startswith("talex.")]
        for module_name, attr, layer_of, note in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(original, layer_of, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def layers(self) -> dict[str, dict]:
        """Per layer: self seconds, span count and the notes of its spans,
        plus the parent layer of each span for the derived counters."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, dict] = {}
        for i, (layer, start, end, parent, note) in enumerate(self.spans):
            rec = out.setdefault(layer, {"s": 0.0, "calls": 0, "notes": []})
            rec["s"] += end - start - child[i]
            rec["calls"] += 1
            if note is not None:
                parent_layer = self.spans[parent][0] if parent >= 0 else None
                rec["notes"].append((parent_layer, note))
        return out
