"""Span tracing of the engine's layers, from outside the package.

:func:`instrument` wraps the public entry points of each layer module
(``scene``, ``expr``, ``series``, ``geometry``, ``em``, ``maxwell``,
``dynamics``, ``cli``) so that every call records a span: name, parent
span, job id, batch size, a small per-span tag, an error flag, start and
end.  Spans live in compact in-memory columns and are written out once,
at the end, by :meth:`Tracer.save`.  :func:`instrument` returns an undo
function that puts every original back; nothing under ``src/`` changes.

Self time of a span is its duration minus the durations of its direct
children (calls are single-threaded and nest strictly), so per job the
self times of all layers plus the root span's own remainder add up to
the job time exactly.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import cached_property

import numpy as np

ROOT = "job"                 # root span of one job; its self time is unattributed
UNATTRIBUTED = "unattributed"


def layer_of(name):
    return UNATTRIBUTED if name == ROOT else name.split(".", 1)[0]


class Tracer:
    """Columns of spans plus the open-span stack."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.parent = array("i")
        self.job = array("i")
        self.name = array("i")
        self.batch = array("i")
        self.tag = array("i")
        self.err = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.current_job = -1

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid, batch=1, tag=0):
        idx = len(self.t0)
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.name.append(nid)
        self.batch.append(batch)
        self.tag.append(tag)
        self.err.append(0)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def end(self, idx, failed=False):
        self.t1[idx] = time.perf_counter()
        if failed:
            self.err[idx] = 1
        self._stack.pop()

    def __len__(self):
        return len(self.t0)

    def columns(self):
        cols = {k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
                for k in ("parent", "job", "name", "batch", "tag", "err", "t0", "t1")}
        return {k: v.copy() for k, v in cols.items()}

    def save(self, path):
        """Write all spans (columns plus the name table) as one .npz file."""
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names), **cols)


# ----------------------------------------------------------------------
# instrumentation


def _batch_of(a):
    a = np.asarray(a)
    return int(a.shape[1]) if a.ndim > 1 else 1


def _wrap(tracer, name, fn, meta):
    nid = tracer.intern(name)
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        batch, tag = meta(args, kwargs)
        idx = begin(nid, batch, tag)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            end(idx, failed=True)
            raise
        end(idx)
        return out

    return wrapper


def _no_meta(args, kwargs):
    return 1, 0


def _space_xy_meta(args, kwargs):
    # (space, x, y, ...) entry points
    return _batch_of(args[1]), 0


def instrument(tracer, stdout_sink=None):
    """Wrap the layers' entry points; returns a function that undoes it."""
    from finslerem import cli, dynamics, em, expr, geometry, maxwell, scene, series

    undo = []
    towers = [0]

    def tower_meta(args, kwargs):
        # tag = serial number of the Tower, so stages can be grouped per tower
        t = args[0]
        d = t.__dict__
        if "_perfbench_id" not in d:
            towers[0] += 1
            d["_perfbench_id"] = towers[0]
        return (int(t.batch[0]) if t.batch else 1), d["_perfbench_id"]

    modules = [m for n, m in sys.modules.items()
               if n == "finslerem" or n.startswith("finslerem.")]

    def patch_function(module, attr, name, meta=_no_meta):
        orig = getattr(module, attr)
        w = _wrap(tracer, name, orig, meta)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, w)
                    undo.append((m, k, orig))

    def patch_attr(cls, attr, value):
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    # scene
    patch_function(scene, "load_scene", "scene.load_scene")

    # expr: tag = AST node count of the evaluated field
    nodes = {}

    def eval_meta(args, kwargs):
        ast = args[0].ast
        key = id(ast)
        if key not in nodes:
            nodes[key] = (ast, count_nodes(ast))
        return _batch_of(args[1]), nodes[key][1]

    patch_function(expr, "eval_series", "expr.eval_series", eval_meta)
    patch_function(expr, "eval_values", "expr.eval_values",
                   lambda a, k: (_batch_of(a[1]), 0))

    # series: tag = truncation order of a product, -1 for scaling by a number
    def mul_meta(args, kwargs):
        a, b = args[0], args[1]
        batch = int(a.coeffs.shape[1]) if a.coeffs.ndim > 1 else 1
        if isinstance(b, series.TSeries):
            return batch, min(a.order, b.order)
        return batch, -1

    mul = _wrap(tracer, "series.mul", series.TSeries.__mul__, mul_meta)
    patch_attr(series.TSeries, "__mul__", mul)
    patch_attr(series.TSeries, "__rmul__", mul)

    # geometry: tower construction and every lazy stage of the tower
    Tower = geometry.Tower
    patch_attr(Tower, "__init__",
               _wrap(tracer, "geometry.tower_init", Tower.__init__,
                     lambda a, k: (_batch_of(a[2]), 0)))
    for attr, value in list(vars(Tower).items()):
        if isinstance(value, cached_property):
            prop = cached_property(_wrap(tracer, f"geometry.{attr}", value.func, tower_meta))
            prop.__set_name__(Tower, attr)
            patch_attr(Tower, attr, prop)
    patch_function(geometry, "geometry_sample", "geometry.geometry_sample", _space_xy_meta)
    patch_function(geometry, "metric", "geometry.metric", _space_xy_meta)
    patch_function(geometry, "draw_admissible", "geometry.draw_admissible")
    patch_function(geometry, "divergence", "geometry.divergence",
                   lambda a, k: (_batch_of(a[3]), 0))

    # em
    patch_function(em, "em_series", "em.em_series", tower_meta)
    patch_function(em, "em_sample", "em.em_sample", _space_xy_meta)
    patch_function(em, "isotropic_truncation", "em.isotropic_truncation")
    patch_function(em, "blend_anisotropy", "em.blend_anisotropy")

    # maxwell
    for fname in ("homogeneous_residuals", "horizontal_current", "vertical_current",
                  "continuity_residual", "current_sample"):
        patch_function(maxwell, fname, f"maxwell.{fname}", _space_xy_meta)

    # dynamics: tag 1 marks the per-step monitor evaluation
    patch_function(dynamics, "integrate", "dynamics.integrate")
    patch_attr(dynamics.ForceEvaluator, "__call__",
               _wrap(tracer, "dynamics.force", dynamics.ForceEvaluator.__call__,
                     lambda a, k: (1, int(bool(k.get("monitors"))))))

    # cli: the command entry, the identity suite and the output writers
    patch_function(cli, "main", "cli.main")
    patch_function(cli, "identity_residuals", "cli.identity_residuals",
                   lambda a, k: (_batch_of(a[1]), 0))
    patch_function(cli, "_emit_report", "cli.emit_report")
    patch_function(cli, "_fmt", "cli.fmt")
    if stdout_sink is not None:
        undo.append((stdout_sink, "write", None))
        stdout_sink.write = _wrap(tracer, "cli.write", stdout_sink.write, _no_meta)

    def restore():
        for owner, attr, orig in reversed(undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    return restore


def count_nodes(node):
    from finslerem.expr import BinOp, Call, Neg

    if isinstance(node, Neg):
        return 1 + count_nodes(node.arg)
    if isinstance(node, BinOp):
        return 1 + count_nodes(node.left) + count_nodes(node.right)
    if isinstance(node, Call):
        return 1 + sum(count_nodes(a) for a in node.args)
    return 1


# ----------------------------------------------------------------------
# analysis


class Spans:
    """Derived per-span quantities over the tracer's columns."""

    def __init__(self, tracer):
        c = tracer.columns()
        self.names = list(tracer.names)
        self.parent, self.job, self.name = c["parent"], c["job"], c["name"]
        self.batch, self.tag, self.err = c["batch"], c["tag"], c["err"]
        self.dur = c["t1"] - c["t0"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        layers = sorted({layer_of(n) for n in self.names})
        self.layers = layers
        self.layer = np.array([layers.index(layer_of(n)) for n in self.names],
                              dtype=int)[self.name]
        self.jobs = sorted(set(self.job[self.mask(ROOT)].tolist()))

    def mask(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def per_job(self, values, mask):
        """Sum of ``values`` over ``mask`` for each traced job, as an array."""
        jobs = np.array(self.jobs, dtype=int)
        sel = mask & np.isin(self.job, jobs)
        pos = np.searchsorted(jobs, self.job[sel])
        return np.bincount(pos, weights=values[sel], minlength=len(jobs))

    def breakdown(self):
        """Per job: job time, and self time of every layer incl. unattributed."""
        root = self.mask(ROOT)
        job_time = self.per_job(self.dur, root)
        rows = []
        by_layer = {layer: self.per_job(self.self_time, self.layer == i)
                    for i, layer in enumerate(self.layers)}
        for k, job in enumerate(self.jobs):
            rows.append({
                "job": job,
                "job_s": float(job_time[k]),
                "self_s": {layer: float(v[k]) for layer, v in by_layer.items()},
            })
        return rows

    def call_table(self):
        """Per span name and batch size: calls, inclusive and self seconds."""
        table = []
        for nid, name in enumerate(self.names):
            sel = self.name == nid
            for b in sorted(set(self.batch[sel].tolist())):
                m = sel & (self.batch == b)
                table.append({
                    "name": name, "batch": b, "calls": int(m.sum()),
                    "incl_s": float(self.dur[m].sum()),
                    "self_s": float(self.self_time[m].sum()),
                    "errors": int(self.err[m].sum()),
                })
        return table


def write_summary(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
