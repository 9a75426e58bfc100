"""Layer tracing for the benchmark's traced run, installed from outside waldq.

``install`` replaces the module and class attributes through which each
layer is called (the backend kernels, lattice enumeration, torus envelopes,
the cached model tables, the object-layer arithmetic, and the campaign pool)
with timing wrappers.  Nothing under ``src/`` changes.

A layer's self time is the time spent inside its wrappers minus the time
spent inside other layers' wrappers called from there.  A call into the layer
that is already running (``LaurentScalar.__add__`` calling ``SqrtQ.__add__``,
say) is counted but opens no new span, which keeps the hot arithmetic cheap to
trace without changing any layer's self time.  Layer spans are aggregated per
name; the few coarse spans (the workload, each campaign run, each pool) are
kept whole, with start, end and parent, and written out at the end.

Pool workers inherit the wrappers by fork.  Each worker resets the inherited
counters at its first cell and writes its own totals after every cell, so
the parent can merge them.
"""

import json
import os
import time

KERNELS = ("sym_normal_cert", "sym_diag", "sublattices", "rel_pos", "canon")
TABLES = ("_transitions", "_stratum_table", "_ic_cached", "_pair_product", "_satake_cached")


class Tracer:
    """Span stack, per-layer totals and coarse span records of one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.pid = os.getpid()
        # each frame is [layer name, time covered by child spans]
        self.stack = [["<outside>", 0.0]]
        self.totals = {}  # layer name -> [calls, self seconds, spans opened]
        self.sizes = {}  # layer name -> [sum, max] of result lengths
        self.spans = []  # (id, name, start, end, parent id)
        self._open = []  # ids of the coarse spans now open
        self.tables = {}  # cache name -> the lru_cache object
        self._cache_base = {}  # cache name -> stats inherited at reset

    def _entry(self, name):
        return self.totals.setdefault(name, [0, 0.0, 0])

    def wrap(self, name, fn, sized=False):
        """fn, timed as one call into layer ``name``."""
        stack, clock = self.stack, self.clock
        entry = self._entry(name)
        size = self.sizes.setdefault(name, [0, 0]) if sized else None

        def traced(*args, **kwargs):
            entry[0] += 1
            if stack[-1][0] == name:
                return fn(*args, **kwargs)
            entry[2] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                entry[1] += dur - frame[1]
                stack[-1][1] += dur
            if size is not None:
                size[0] += len(out)
                size[1] = max(size[1], len(out))
            return out

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    def open(self, name):
        """Start a recorded span; returns the token ``close`` takes."""
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, name, self.clock(), None, parent])
        self._open.append(sid)
        frame = [name, 0.0]
        self.stack.append(frame)
        entry = self._entry(name)
        entry[0] += 1
        entry[2] += 1
        return sid, frame

    def close(self, token):
        sid, frame = token
        end = self.clock()
        span = self.spans[sid]
        span[3] = end
        dur = end - span[2]
        self._open.pop()
        self.stack.pop()
        self._entry(frame[0])[1] += dur - frame[1]
        self.stack[-1][1] += dur
        return dur

    def reset(self):
        """Start counting afresh in a forked worker.

        The wrappers hold references to the stack and totals, so they are
        cleared in place.  The inherited cache contents stay, as they would
        without tracing; their statistics count from here.
        """
        self.pid = os.getpid()
        del self.stack[1:]
        self.stack[0][1] = 0.0
        for entry in self.totals.values():
            entry[0], entry[1], entry[2] = 0, 0.0, 0
        for size in self.sizes.values():
            size[0] = size[1] = 0
        self.spans.clear()
        self._open.clear()
        self._cache_base = self.cache_stats()

    def cache_stats(self):
        """[hits, misses, entries] per table, counted since the last reset."""
        out = {}
        for name, fn in self.tables.items():
            info = fn.cache_info()
            base = self._cache_base.get(name, (0, 0, 0))
            now = (info.hits, info.misses, info.currsize)
            out[name] = [x - b for x, b in zip(now, base)]
        return out

    def snapshot(self):
        return {"totals": self.totals, "sizes": self.sizes, "caches": self.cache_stats()}


def _wrap_class(tracer, cls, name):
    """Time every method defined on cls as a call into layer ``name``."""
    for attr, value in list(vars(cls).items()):
        if attr == "__setattr__":
            continue
        if isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(tracer.wrap(name, value.__func__)))
        elif callable(value) and not isinstance(value, type):
            setattr(cls, attr, tracer.wrap(name, value))


def install(tracer, worker_dir):
    """Wrap every layer boundary of the imported waldq package."""
    import waldq
    from waldq import backend, campaigns, hecke, lattice, quadform, scalars, series
    from waldq import torus, waldspurger

    mods = (waldq, backend, campaigns, hecke, lattice, quadform, scalars, series, torus, waldspurger)

    for k in KERNELS:
        setattr(backend, k, tracer.wrap(f"kernel.{k}", getattr(backend, k), sized=k == "sublattices"))

    def layer(owner, attr, name):
        """Point every module holding owner.attr at one wrapper; returns the original."""
        orig = getattr(owner, attr)
        traced = tracer.wrap(name, orig)
        for mod in mods:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)
        return orig

    for attr in ("enumerate_in_position", "closure_members", "relative_position"):
        layer(lattice, attr, f"lattice.{attr}")
    layer(torus, "_envelope_raw", "torus.envelope_raw")
    layer(quadform, "diagonalize", "quadform.diagonalize")
    layer(hecke, "convolve", "hecke.convolve")
    for attr in TABLES:
        owner = hecke if hasattr(hecke, attr) else waldspurger
        tracer.tables[attr] = layer(owner, attr, f"cache.{attr}")
    for attr in ("specialize", "monomial_invert", "monomial_count"):
        layer(scalars, attr, "scalars")
    for attr in ("valuation", "invert_unit", "poly_arith"):
        layer(series, attr, "series")
    _wrap_class(tracer, scalars.LaurentScalar, "scalars")
    _wrap_class(tracer, scalars.SqrtQ, "scalars")
    _wrap_class(tracer, series.LaurentPoly, "series")
    _wrap_class(tracer, series.FqElem, "series")

    model = waldspurger.WaldModel
    model.act = tracer.wrap("waldspurger.act", model.act)
    for attr in ("minimal_orbit_counts", "orbit_stratum_counts"):
        setattr(model, attr, tracer.wrap("waldspurger.counts", getattr(model, attr)))

    class TracedPool(campaigns.ProcessPoolExecutor):
        def __enter__(self):
            self._trace_token = tracer.open("pool.wait")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._trace_token)

    campaigns.ProcessPoolExecutor = TracedPool

    run_cell = campaigns._run_cell
    cell = tracer.wrap("pool.cell", run_cell)
    owner = os.getpid()

    def pooled_run_cell(payload):
        if os.getpid() == owner:
            return run_cell(payload)
        if tracer.pid != os.getpid():
            tracer.reset()
        try:
            return cell(payload)
        finally:
            path = os.path.join(worker_dir, f"worker-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(tracer.snapshot(), fh)

    for attr in ("__module__", "__name__", "__qualname__"):
        setattr(pooled_run_cell, attr, getattr(run_cell, attr))
    campaigns._run_cell = pooled_run_cell
