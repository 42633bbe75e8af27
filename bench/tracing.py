"""Spans around the calls into each conefrac layer, from outside the package.

``Tracer.install`` rebinds module attributes and class methods in the running
process only; nothing under ``src/`` is edited.  Names that one module
imports from another (``operators._radial_batch``, ``liouville.c_alpha``, ...)
are rebound in every importing module, because each call site looks the
name up in its own module.  A target that no longer exists is recorded as
absent and its metrics read 0, and a target whose arguments or result no
longer fit its counter keeps its span but is reported as uncounted, so
internals can be renamed or reshaped without breaking the benchmark.

Spans are kept in memory as [name, start, end, parent, counts] and turned
into per-layer metrics by ``Tracer.metrics``.  A layer's self time is the
time inside its spans not covered by their child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

import numpy as np


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) else 1


def _radial_counts(args, kwargs, out):
    return {"dirs": _rows(kwargs["thetas"]), "evals": int(out[2]),
            "unconverged": int(np.count_nonzero(~np.asarray(out[3])))}


def _c_alpha_counts(args, kwargs, out):
    return {"evals": int(out.n_evals)}


def _first_rows(pos):
    return lambda args, kwargs, out: {"points": _rows(args[pos])}


# (target, span name, counts taken after the call).  A target is
# "module:function" or "module:Class.method"; "module:*Base.method" means
# every class of the module that derives from Base and defines the method.
HOOKS = (
    ("quadrature:_radial_batch", "radial.batch", _radial_counts),
    ("operators:_radial_batch", "radial.batch", _radial_counts),
    ("quadrature:_assemble_radial", "radial.assemble", None),
    ("quadrature:_run_tasks", "radial.tasks", None),
    ("quadrature:_octave_batch", "radial.octave",
     lambda args, kwargs, out: {"evals": int(out[2])}),
    ("quadrature:_eval_panels", "radial.panels",
     lambda args, kwargs, out: {"panels": int(np.size(args[1])), "evals": int(out[2])}),
    ("quadrature:sphere_quadrature", "sphere.quadrature",
     lambda args, kwargs, out: {"unconverged": int(not out.converged)}),
    ("operators:sphere_quadrature", "sphere.quadrature",
     lambda args, kwargs, out: {"unconverged": int(not out.converged)}),
    ("quadrature:_sphere_integrate_2d", "sphere.integrate", None),
    ("quadrature:c_alpha", "c_alpha", _c_alpha_counts),
    ("operators:c_alpha", "c_alpha", _c_alpha_counts),
    ("liouville:c_alpha", "c_alpha", _c_alpha_counts),
    ("catalog:*CatalogFunction.values", "catalog.values",
     lambda args, kwargs, out: {"points": int(np.size(out))}),
    ("spectral:*SpectralDensity._eval_unit", "density.eval",
     _first_rows(1)),
    ("operators:_L_field", "field.L", _first_rows(3)),
    ("liouville:_L_field", "field.L", _first_rows(3)),
    ("liouville:_operator_batch", "field.batch", _first_rows(3)),
    ("operators:apply_L", "field.apply_L", None),
    ("liouville:apply_L", "field.apply_L", None),
    ("operators:_conv_L", "mass.conv", _first_rows(4)),
    ("operators:_excised_L_compact", "mass.excision", _first_rows(3)),
    ("operators:_tt_kelvin_L", "mass.tt_kelvin", _first_rows(4)),
    ("operators:_kelvin_closed_batch", "mass.kelvin_closed", _first_rows(3)),
    ("liouville:_mass_only_L", "mass.mass_only", _first_rows(3)),
    ("liouville:_CutoffMassField.L_pair", "mass.cutoff", _first_rows(1)),
    ("liouville:_CutoffMassField._plate", "mass.plate",
     lambda args, kwargs, out: {"points": 1}),
    ("liouville:_CutoffMassField._frame_sums", "mass.frames",
     lambda args, kwargs, out: {"points": 1}),
)

# span name -> layer whose self time it counts toward
LAYER_OF = {
    "radial.batch": "quadrature.radial", "radial.assemble": "quadrature.radial",
    "radial.tasks": "quadrature.radial", "radial.octave": "quadrature.radial",
    "radial.panels": "quadrature.radial",
    "sphere.quadrature": "quadrature.sphere", "sphere.integrate": "quadrature.sphere",
    "catalog.values": "catalog.values", "density.eval": "spectral.density",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self.uncounted: set = set()
        self._stack: list = []
        self._restore: list = []
        self._c_alpha_seen: set = set()

    # ---------------------------------------------------------------- hooks
    def _wrap(self, fn, name: str, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        prep = {"sphere.integrate": self._count_nodes,
                "c_alpha": self._c_alpha_lookup}.get(name)

        uncounted = self.uncounted

        # a target whose signature or result changed keeps its span but
        # loses its counts, and is reported; the traced call itself never fails
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, {}]
            if prep is not None:
                try:
                    args = prep(rec, args, kwargs)
                except (LookupError, TypeError):
                    uncounted.add(name)
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counts is not None:
                try:
                    rec[4].update(counts(args, kwargs, out))
                except (LookupError, TypeError, AttributeError, ValueError):
                    uncounted.add(name)
            return out

        return wrapper

    def _count_nodes(self, rec, args, kwargs):
        node_eval = args[1]
        tally = rec[4]
        tally.update(nodes=0, node_calls=0)

        def counted(thetas):
            tally["nodes"] += _rows(thetas)
            tally["node_calls"] += 1
            return node_eval(thetas)

        return (args[0], counted) + tuple(args[2:])

    def _c_alpha_lookup(self, rec, args, kwargs):
        # the benchmark keeps its own key set instead of reading the
        # package's private cache; a repeated key is a cache hit
        key = repr((args, sorted(kwargs.items())))
        rec[4]["hit"] = int(key in self._c_alpha_seen)
        self._c_alpha_seen.add(key)
        return args

    def _targets(self, spec: str):
        """(owner, attribute) pairs named by a hook target, or [] if absent."""
        mod_name, path = spec.split(":")
        try:
            mod = importlib.import_module("conefrac." + mod_name)
        except ImportError:
            return []
        if path.startswith("*"):
            base_name, meth = path[1:].split(".")
            base = getattr(mod, base_name, None)
            if not isinstance(base, type):
                return []
            return [(cls, meth) for cls in vars(mod).values()
                    if isinstance(cls, type) and issubclass(cls, base)
                    and cls.__module__ == mod.__name__ and meth in vars(cls)]
        owner = mod
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            return []
        return [(owner, attr)]

    def install(self) -> None:
        for spec, name, counts in HOOKS:
            targets = self._targets(spec)
            if not targets:
                self.absent.append(spec)
            for owner, attr in targets:
                orig = vars(owner)[attr]
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, counts))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def root(self, fn, name: str):
        """``fn`` wrapped in a root span, for one benchmark job."""
        return self._wrap(fn, name, None)

    # -------------------------------------------------------------- metrics
    def metrics(self) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [[] for _ in spans]
        for i, (_, t0, t1, parent, _c) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                children[parent].append(i)
        by_name: dict = {}
        self_s: dict = {}
        for i, (name, t0, t1, _p, _c) in enumerate(spans):
            by_name.setdefault(name, []).append(i)
            layer = LAYER_OF.get(name)
            if layer is not None:
                self_s[layer] = self_s.get(layer, 0.0) + (t1 - t0 - child_time[i])

        def ids(name):
            return by_name.get(name, [])

        def total(name, key):
            return sum(spans[i][4].get(key, 0) for i in ids(name))

        def dur(name):
            return sum(spans[i][2] - spans[i][1] for i in ids(name))

        def outermost(name):
            return [i for i in ids(name)
                    if spans[i][3] < 0 or spans[spans[i][3]][0] != name]

        def kids(i, name):
            return [j for j in children[i] if spans[j][0] == name]

        m = {}
        dirs = total("radial.batch", "dirs")
        m["quadrature.radial.calls"] = len(ids("radial.batch"))
        m["quadrature.radial.directions"] = dirs
        m["quadrature.radial.evals"] = total("radial.batch", "evals")
        m["quadrature.radial.panels"] = total("radial.panels", "panels")
        m["quadrature.radial.rounds"] = sum(
            max(0, len(kids(i, "radial.panels")) - 1) for i in ids("radial.tasks"))
        m["quadrature.radial.self_s"] = self_s.get("quadrature.radial", 0.0)
        m["quadrature.radial.tasks_s"] = dur("radial.tasks")
        m["quadrature.radial.assemble_s"] = dur("radial.assemble")
        m["quadrature.radial.octave_s"] = dur("radial.octave")
        m["quadrature.radial.octave_evals"] = total("radial.octave", "evals")
        m["quadrature.radial.unconverged_frac"] = (
            total("radial.batch", "unconverged") / dirs if dirs else 0.0)

        m["quadrature.sphere.calls"] = len(ids("sphere.quadrature"))
        m["quadrature.sphere.nodes"] = total("sphere.integrate", "nodes")
        m["quadrature.sphere.rounds"] = sum(
            max(0, spans[i][4].get("node_calls", 0) - 1)
            for i in ids("sphere.integrate"))
        m["quadrature.sphere.unconverged"] = total("sphere.quadrature", "unconverged")
        m["quadrature.sphere.self_s"] = self_s.get("quadrature.sphere", 0.0)

        for prefix, name in (("catalog.values", "catalog.values"),
                             ("spectral.density", "density.eval")):
            m[prefix + ".calls"] = len(ids(name))
            m[prefix + ".points"] = sum(spans[i][4].get("points", 0)
                                        for i in outermost(name))
            m[prefix + ".self_s"] = self_s.get(prefix, 0.0)

        for metric, name in (("operators.mass.conv", "mass.conv"),
                             ("operators.mass.excision", "mass.excision"),
                             ("operators.mass.tt_kelvin", "mass.tt_kelvin"),
                             ("liouville.mass.mass_only", "mass.mass_only"),
                             ("liouville.mass.plate", "mass.plate"),
                             ("liouville.mass.frames", "mass.frames")):
            m[metric + ".points"] = total(name, "points")
            m[metric + ".time_s"] = dur(name)

        # points per route of the batched fields: a field call answered by a
        # closed form (possibly slab-corrected) is closed_form as a whole;
        # otherwise its excision and per-point polar children are counted and
        # the remainder went through the convolution form
        route = {"closed_form": 0, "conv": 0, "excision": 0, "polar": 0}
        for i in ids("field.L"):
            n = spans[i][4].get("points", 0)
            if kids(i, "mass.tt_kelvin") or kids(i, "mass.kelvin_closed"):
                route["closed_form"] += n
                continue
            exc = sum(spans[j][4].get("points", 0)
                      for j in kids(i, "mass.excision"))
            pol = len(kids(i, "field.apply_L"))
            route["excision"] += exc
            route["polar"] += pol
            route["conv"] += n - exc - pol
        route["polar"] += sum(len(kids(i, "field.apply_L")) for i in ids("field.batch"))
        for k, v in route.items():
            m["operators.route." + k] = v
        m["liouville.route.mass_only"] = total("mass.mass_only", "points")
        m["liouville.route.cutoff"] = total("mass.cutoff", "points")

        calls = len(ids("c_alpha"))
        hits = total("c_alpha", "hit")
        m["quadrature.c_alpha.calls"] = calls
        m["quadrature.c_alpha.hit_frac"] = hits / calls if calls else 0.0
        m["quadrature.c_alpha.evals"] = sum(
            spans[i][4].get("evals", 0) for i in ids("c_alpha") if not spans[i][4]["hit"])
        m["quadrature.c_alpha.time_s"] = dur("c_alpha")
        return m

    def dump(self, path) -> None:
        """Write the spans as JSON lines [name, start_s, end_s, parent]."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, _c in self.spans:
                fh.write(json.dumps([name, round(t0 - t_ref, 7),
                                     round(t1 - t_ref, 7), parent]) + "\n")
