"""Spans around the public functions of the horopoints layers, installed
from outside the package.

Each layer is a module: ``arith``, ``sl2``, ``points``, ``observables``,
``stats`` and ``harness``.  ``install`` replaces every public function of a
layer at every module attribute that is bound to it (so ``stats.units``,
``harness.kloosterman_sum``, ``points.reduce_many`` and the home module
binding are all traced), plus the bulk methods of ``PointSet`` and
``eval_many``/``haar`` on each observable class.  ``cli`` and ``svg`` are not
layers of any criterion run and are not traced.

A span is [name, start, end, parent index, experiment id, counter].  Spans
stay in memory; ``write_spans`` dumps them once the pass is over.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

LAYERS = ("arith", "sl2", "points", "observables", "stats", "harness")
_HARNESS_WRITERS = ("write_rows", "write_csv", "write_json")
_POINTSET_METHODS = ("torus1_numerators", "torus2_numerators", "x_reals",
                     "reduced_xy", "heights")
_OBSERVABLE_CLASSES = ("TorusChar", "TwoTorusChar", "AutomorphicKernel",
                       "HeightBand", "Product")
_OBSERVABLE_METHODS = ("eval_many", "haar")
_GENERATORS = ("points.gen_full", "points.gen_monomial", "points.gen_triple")
_WRITERS = tuple(f"harness.{w}" for w in _HARNESS_WRITERS)


def _kernel_point_evals(args, kwargs, result):
    # one profile evaluation per (point, orbit point) pair
    from horopoints import observables

    kernel, ps = args[0], args[1]
    return len(ps) * len(observables._orbit_points(kernel.radius, kernel.center)[0])


# per-span counters: f(args, kwargs, result) -> number stored on the span
_COUNTERS = {
    "sl2.reduce_many": lambda a, k, r: len(a[0]),
    "arith.units": lambda a, k, r: a[0],
    "harness.write_rows": lambda a, k, r: len(a[3]),
    "harness.write_csv": lambda a, k, r: len(a[2]),
    "observables.AutomorphicKernel.eval_many": _kernel_point_evals,
    **{g: (lambda a, k, r: len(r)) for g in _GENERATORS},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.experiment = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.experiment, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from horopoints import arith, harness, observables, points, sl2, stats

        layers = dict(zip(LAYERS, (arith, sl2, points, observables, stats, harness)))
        originals: dict[int, tuple[object, object]] = {}
        for layer, module in layers.items():
            public = list(module.__all__)
            if layer == "harness":
                public += _HARNESS_WRITERS
            for attr in public:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn) or id(fn) in originals:
                    continue
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in layers.values():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for cls_name in _OBSERVABLE_CLASSES:
            cls = getattr(observables, cls_name)
            for meth in _OBSERVABLE_METHODS:
                setattr(cls, meth, self._wrap(f"observables.{cls_name}.{meth}",
                                              vars(cls)[meth]))
        for meth in _POINTSET_METHODS:
            setattr(points.PointSet, meth,
                    self._wrap(f"points.PointSet.{meth}", vars(points.PointSet)[meth]))

    def summary(self) -> dict:
        """Per-layer self times and the counts named by the benchmark."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        counters: dict[str, float] = defaultdict(float)
        load_config_s = write_s = 0.0
        rows = 0
        unit_moduli = set()
        for i, (name, start, end, parent, _, counter) in enumerate(spans):
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += (end - start) - child_time[i]
            if counter is not None:
                counters[name] += counter
            if name == "harness.load_config":
                load_config_s += end - start
            elif name in _WRITERS and (parent < 0 or spans[parent][0] not in _WRITERS):
                write_s += end - start
                rows += counter or 0
            if name == "arith.units":
                unit_moduli.add(counter)
        eval_many = sum(c for n, c in calls.items()
                        if n.startswith("observables.") and n.endswith(".eval_many"))
        haar = sum(c for n, c in calls.items()
                   if n.startswith("observables.") and n.endswith(".haar"))
        metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        metrics.update({
            "arith.units.calls": calls["arith.units"],
            "arith.unit_inverses.calls": calls["arith.unit_inverses"],
            "arith.units.distinct_ratio": (len(unit_moduli) / calls["arith.units"]
                                           if calls["arith.units"] else 0.0),
            "arith.kloosterman_sum.calls": calls["arith.kloosterman_sum"],
            "arith.residue_array.calls": calls["arith.residue_array"],
            "arith.factorize.calls": calls["arith.factorize"],
            "arith.powmod.calls": calls["arith.powmod"],
            "sl2.verify_intersection.calls": calls["sl2.verify_intersection"],
            "sl2.reduce_many.calls": calls["sl2.reduce_many"],
            "sl2.reduce_many.points": int(counters["sl2.reduce_many"]),
            "points.verify_invariance.calls": calls["points.verify_invariance"],
            "points.gen.calls": sum(calls[g] for g in _GENERATORS),
            "points.points_generated": int(sum(counters[g] for g in _GENERATORS)),
            "observables.eval_many.calls": eval_many,
            "observables.kernel.point_evals":
                int(counters["observables.AutomorphicKernel.eval_many"]),
            "observables.haar.calls": haar,
            "stats.kloosterman_average.calls": calls["stats.kloosterman_average"],
            "stats.weyl_sums_all_residues.calls": calls["stats.weyl_sums_all_residues"],
            "stats.empirical_average.calls": calls["stats.empirical_average"],
            "harness.load_config_s": load_config_s,
            "harness.write_s": write_s,
            "harness.rows_written": rows,
        })
        return {"metrics": metrics, "calls": dict(sorted(calls.items())),
                "spans": len(spans)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, exp, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, exp]) + "\n")
