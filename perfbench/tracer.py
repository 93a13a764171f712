"""Outside-in span tracer for the povmint layers.

The tracer never edits the program.  ``install()`` rebinds module attributes
(``plane.laguerre``, ``halfplane._f21_tracked``, ``core.quantize``, the
entries of ``cli.SUITES`` ...) to wrappers that record one in-memory span per
call, and ``uninstall()`` puts the originals back.  Because the program looks
these names up in its own module namespaces at call time, every call into a
layer goes through the wrapper while it is installed.

A span is ``(id, name, start, end, parent id, run id)``; the run id is
``"setup"`` or ``"op<i>"``, shared by every span of that set-up or op.  Self
time is a span's duration minus the durations of its direct children.
Counts that are not timings (Laguerre degrees, distinct displacement
arguments, overlap elements, solver evaluations ...) are taken from the call
arguments and results at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import defaultdict

# Every per-layer metric the traced run reports, with its unit and the
# direction an optimization should move it.  BENCHMARK.json lists the same
# names; the smoke test keeps the two in step.
SUITE_NAMES = ("circle", "core", "finite", "halfplane", "plane", "sphere")
PER_LAYER = [
    ("numerics.laguerre.calls", "count", "lower"),
    ("numerics.laguerre.self_s", "s", "lower"),
    ("numerics.laguerre.steps", "count", "lower"),
    ("numerics.hyp2f1.calls", "count", "lower"),
    ("numerics.hyp2f1.self_s", "s", "lower"),
    ("plane.displacement.calls", "count", "lower"),
    ("plane.displacement.self_s", "s", "lower"),
    ("plane.displacement.unique_ratio", "ratio", "higher"),
    ("plane.displacement_real.calls", "count", "lower"),
    ("plane.displacement_real.self_s", "s", "lower"),
    ("plane.radial_integrals.calls", "count", "lower"),
    ("plane.radial_integrals.self_s", "s", "lower"),
    ("plane.radial_integrals.unique_ratio", "ratio", "higher"),
    ("halfplane.overlap_block.calls", "count", "lower"),
    ("halfplane.overlap_block.self_s", "s", "lower"),
    ("halfplane.overlap_block.elements", "count", "lower"),
    ("halfplane.f21_per_element", "ratio", "lower"),
    ("halfplane.kernel.self_s", "s", "lower"),
    ("core.quantize.calls", "count", "lower"),
    ("core.quantize.self_s", "s", "lower"),
    ("core.quantize.node_evals", "count", "lower"),
    ("core.quantize.symbol_evals", "count", "lower"),
    ("core.quantize.node_bytes", "B-computed", "lower"),
    ("core.quantize.gb_per_s", "GB/s-computed", "higher"),
    ("core.check_resolution.self_s", "s", "lower"),
    ("core.kernels.self_s", "s", "lower"),
    ("finite.reconstruct.self_s", "s", "lower"),
    ("finite.nfev", "count", "lower"),
    ("finite.restarts_used", "count", "lower"),
    ("finite.converged_ratio", "ratio", "higher"),
    *[(f"cli.suite.{name}.self_s", "s", "lower") for name in SUITE_NAMES],
    ("cli.check.calls", "count", "higher"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# complex128 matrix entries read per node evaluation in core.quantize
BYTES_PER_ENTRY = 16


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.keys: dict[tuple[str, str], set] = defaultdict(set)
        self.run = "setup"
        self._stack: list[int | None] = [None]
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, counter: str, amount: float = 1.0):
        self.counts[(self.run, counter)] += amount

    def distinct(self, counter: str, key):
        self.keys[(self.run, counter)].add(key)

    def wrap(self, name: str, fn, note=None):
        """Wrapper recording a span named ``name`` around every call of fn;
        ``note(args, kwargs, result)`` derives counts from the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.run))
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def counted(self, fn, note):
        """Wrapper deriving counts from each call without recording a span,
        so the caller's self time keeps the callee's time."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            note(args, kwargs, result)
            return result

        return counting

    @contextlib.contextmanager
    def root(self, run: str):
        """Root span of one set-up or op; every span inside shares its run id."""
        self.run = run
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, "root", start, end, None, run))

    # -- patches -----------------------------------------------------------

    def attach(self, cli):
        """Build (but do not apply) the patches for the povmint modules
        reachable from the imported ``povmint.cli`` module."""
        core, finite, halfplane, plane = cli.core, cli.finite, cli.halfplane, cli.plane
        patches = []

        def patch(owner, attr, replacement):
            original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            patches.append((owner, attr, original, replacement(original)))

        # numerics: special functions, patched where the geometries bound them
        def laguerre_note(args, kwargs, result):
            self.count("numerics.laguerre.steps", _arg(args, kwargs, 0, "n"))

        for mod in (plane, halfplane):
            patch(mod, "laguerre",
                  lambda f: self.wrap("numerics.laguerre", f, laguerre_note))
            patch(mod, "hyp2f1_terminating",
                  lambda f: self.wrap("numerics.hyp2f1", f))

        def f21_note(args, kwargs, result):
            self.count("halfplane.f21_calls")

        patch(halfplane, "_f21_tracked",
              lambda f: self.wrap("numerics.hyp2f1", f, f21_note))

        # plane: node-matrix construction
        def displacement_note(args, kwargs, result):
            self.distinct("plane.displacement",
                          (complex(_arg(args, kwargs, 0, "z")),
                           int(_arg(args, kwargs, 1, "dim"))))

        patch(plane, "displacement",
              lambda f: self.wrap("plane.displacement", f, displacement_note))
        patch(plane, "_displacement_scaled_real",
              lambda f: self.wrap("plane.displacement_real", f))

        def radial_note(args, kwargs, result):
            params = _arg(args, kwargs, 0, "params")
            n_j = args[1] if len(args) > 1 else kwargs.get("n_j")
            self.distinct("plane.radial_integrals", (params.t, params.dim, n_j))

        patch(plane, "_radial_integrals",
              lambda f: self.wrap("plane.radial_integrals", f, radial_note))

        # halfplane: node-matrix construction and the thermal kernel
        def overlap_note(args, kwargs, result):
            self.count("halfplane.overlap_block.elements",
                       _arg(args, kwargs, 3, "rows") * _arg(args, kwargs, 4, "cols"))

        patch(halfplane, "overlap_block",
              lambda f: self.wrap("halfplane.overlap_block", f, overlap_note))
        for attr in ("kernel_trace", "kernel_eigen_ratio"):
            patch(halfplane, attr, lambda f: self.wrap("halfplane.kernel", f))

        # core: engine reductions
        patch(core, "quantize",
              lambda f: self.wrap("core.quantize", self._counting_quantize(f)))
        patch(core, "check_resolution",
              lambda f: self.wrap("core.check_resolution", f))
        for attr in ("prob_kernel", "lower_symbol", "povm_region"):
            patch(core, attr, lambda f: self.wrap("core.kernels", f))

        # finite: reconstruction solver
        def solver_note(args, kwargs, result):
            self.count("finite.nfev", result.nfev)

        def reconstruct_note(args, kwargs, result):
            self.count("finite.restarts_used", result.restarts_used)
            self.count("finite.converged", bool(result.converged))

        patch(finite, "least_squares", lambda f: self.counted(f, solver_note))
        patch(finite, "reconstruct",
              lambda f: self.wrap("finite.reconstruct", f, reconstruct_note))

        # cli: suites, check rows and report rendering
        for name in SUITE_NAMES:
            patch(cli.SUITES, name, lambda f, name=name: self.wrap(f"cli.suite.{name}", f))

        def check_note(args, kwargs, result):
            self.count("cli.check.calls")

        def render_note(args, kwargs, result):
            self.count("cli.report_bytes", len(result.encode()))

        patch(cli, "check", lambda f: self.counted(f, check_note))
        patch(cli, "render", lambda f: self.wrap("cli.render", f, render_note))
        self._patches = patches

    def _counting_quantize(self, quantize):
        """core.quantize with its family's evaluate and the symbol wrapped to
        count node evaluations and symbol evaluations (a batched call on k
        nodes counts k)."""

        def counting_quantize(fam, f, *args, **kwargs):
            evaluate = fam.evaluate
            node_size = max(fam.rule.nodes[0].size, 1)
            evals = [0, 0]

            def counted_evaluate(x):
                evals[0] += max(getattr(x, "size", 1) // node_size, 1)
                return evaluate(x)

            def counted_symbol(x):
                evals[1] += max(getattr(x, "size", 1) // node_size, 1)
                return f(x)

            fam.evaluate = counted_evaluate
            try:
                return quantize(fam, counted_symbol, *args, **kwargs)
            finally:
                fam.evaluate = evaluate
                self.count("core.quantize.node_evals", evals[0])
                self.count("core.quantize.symbol_evals", evals[1])
                self.count("core.quantize.node_bytes",
                           evals[0] * fam.dim ** 2 * BYTES_PER_ENTRY)

        return counting_quantize

    def install(self):
        for owner, attr, _original, replacement in self._patches:
            _assign(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _replacement in reversed(self._patches):
            _assign(owner, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(set-up totals, op totals) of every span and count."""
        setup: dict[str, float] = defaultdict(float)
        ops: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        # children end, and are appended, before their parents
        for sid, name, start, end, parent, run in self.spans:
            dur = end - start
            if parent is not None:
                child[parent] += dur
            acc = setup if run == "setup" else ops
            acc[f"{name}.calls"] += 1
            acc[f"{name}.self_s"] += dur - child.pop(sid, 0.0)
            if name == "root":
                acc["root.wall_s"] += dur
        for (run, counter), value in self.counts.items():
            (setup if run == "setup" else ops)[counter] += value
        for (run, counter), keys in self.keys.items():
            (setup if run == "setup" else ops)[f"{counter}.distinct"] += len(keys)
        return setup, ops

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one op: set-up totals plus
        op totals divided by the number of traced ops."""
        setup, ops = self.totals()
        v = defaultdict(float)
        for key in set(setup) | set(ops):
            v[key] = setup.get(key, 0.0) + ops.get(key, 0.0) / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name, _unit, _better in PER_LAYER:
            if name in v:
                out[name] = v[name]
        for layer in ("plane.displacement", "plane.radial_integrals"):
            out[f"{layer}.unique_ratio"] = ratio(v[f"{layer}.distinct"],
                                                 v[f"{layer}.calls"])
        out["halfplane.f21_per_element"] = ratio(
            v["halfplane.f21_calls"], v["halfplane.overlap_block.elements"])
        out["core.quantize.gb_per_s"] = ratio(
            v["core.quantize.node_bytes"], v["core.quantize.self_s"]) / 1e9
        out["finite.converged_ratio"] = ratio(v["finite.converged"],
                                              v["finite.reconstruct.calls"])
        out["trace.op_s"] = ratio(ops.get("root.wall_s", 0.0), n_ops)
        return {name: out.get(name, 0.0) for name, _unit, _better in PER_LAYER
                if name != "trace.overhead_ratio"}

    def self_shares(self) -> dict[str, float]:
        """Share of traced op wall time spent in each span name's own code."""
        _setup, ops = self.totals()
        wall = ops.get("root.wall_s", 0.0)
        names = {key[:-len(".self_s")] for key in ops if key.endswith(".self_s")}
        return {name: ops[f"{name}.self_s"] / wall for name in sorted(names)
                if wall}

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for sid, name, start, end, parent, run in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{run}\n")


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
