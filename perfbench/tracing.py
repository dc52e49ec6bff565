"""Per-layer tracing installed from outside the program.

The layers are the ``qjacobi`` modules.  :meth:`Tracer.install` wraps
the public functions named in :data:`SPANS` so that every call records
one span (label, parent span, job, start, end, self time), and rebinds
every name that refers to them, including the ``from ... import`` copies
held by other modules.  Hot leaves (:data:`LEAVES`) are too frequent for
one span per call; their calls and times are aggregated per parent span
instead.  ``Scalar`` constructions are only counted.  Spans stay in
memory and are written out once, by :meth:`Tracer.dump`.

Self time is a span's duration minus the durations of its direct
children, spans and aggregated leaves alike.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute path, metric group).  A group may collect several
# functions; errors are charged to the module that defines the function.
SPANS = (
    ("cli", "build_parser", "cli.parse"),
    ("deformation", "load_table", "cli.parse"),
    ("deformation", "parse_table", "cli.parse"),
    ("liealg", "build_algebra", "cli.parse"),
    ("cli", "_json_text", "cli.render"),
    ("hseries", "HSeries.to_text", "cli.render"),
    ("hseries", "HSeries.to_json", "cli.render"),
    ("matrices", "SparseMatrix.to_text", "cli.render"),
    ("matrices", "SparseMatrix.to_json", "cli.render"),
    ("ncalg", "NCPoly.to_text", "cli.render"),
    ("liealg", "Report.to_json", "cli.render"),
    ("liealg", "SpectralReport.to_json", "cli.render"),
    ("liealg", "SpectralReport.factored_text", "cli.render"),
    ("transport", "IdentityReport.to_json", "cli.render"),
    ("ncalg", "substitute", "ncalg.substitute"),
    ("hseries", "HSeries.invert", "hseries.invert"),
    ("hseries", "HSeries.exp", "hseries.exp"),
    ("deformation", "make_Gk", "deformation.make_gk"),
    ("deformation", "alpha", "deformation.alpha"),
    ("psiengine", "compute_psi", "psiengine.compute_psi"),
    ("psiengine", "PsiPair.validate", "psiengine.validate"),
    ("matrices", "kron", "matrices.kron"),
    ("matrices", "SparseMatrix.rank", "matrices.rank"),
    ("matrices", "minimal_polynomial", "matrices.minpoly"),
    ("liealg", "build_tensor_ops", "liealg.build_tensor_ops"),
    ("liealg", "eval_series", "liealg.eval_series"),
    ("liealg", "verify_sigma_rmatrix", "liealg.rmatrix"),
    ("liealg", "spectral_report", "liealg.spectral"),
    ("liealg", "verify_classical", "liealg.classical"),
    ("liealg", "structure_report", "liealg.classical"),
    ("transport", "normalize_traced", "transport.normalize"),
    ("transport", "reduce_modulo_classical", "transport.discharge"),
    ("transport", "verify_identity", "transport.verify"),
)

LEAVES = (
    ("ncalg", "NCPoly.__mul__", "ncalg.ncpoly_mul"),
    ("matrices", "SparseMatrix.__mul__", "matrices.matmul"),
    ("hseries", "HSeries.__mul__", "hseries.mul"),
)

LAYERS = ("cli", "ncalg", "hseries", "deformation", "psiengine", "matrices", "liealg", "transport")

JOB = "job"


def _resolve(module, path: str):
    owner, _, name = path.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, name, getattr(holder, name)


def _ncpoly_mul_extra(agg, args, result):
    # Merge ratio: output terms over the product of the input term counts.
    # NCPoly exposes no term count, so the benchmark reads the term dict.
    left, right = args
    agg[3] += len(result._terms)
    agg[4] += len(left._terms) * len(right._terms)


def _matmul_extra(agg, args, result):
    agg[3] += result.nnz()
    agg[4] += result.rows * result.cols


_LEAF_EXTRAS = {"ncalg.ncpoly_mul": _ncpoly_mul_extra, "matrices.matmul": _matmul_extra}


def _psi_terms(counters, result):
    counters["psiengine.psi_terms"] += sum(
        len(c._terms) for series in (result.psi, result.psi_inv) for c in series.coeffs
    )


def _normalize_steps(counters, result):
    counters["transport.normalize.steps"] += len(result[1])


def _discharge_steps(counters, result):
    counters["transport.discharge.steps"] += len(result[1])


_SPAN_EXTRAS = {
    "psiengine.compute_psi": _psi_terms,
    "transport.normalize": _normalize_steps,
    "transport.discharge": _discharge_steps,
}
_SPAN_EXTRAS_NAMES = ("psiengine.psi_terms", "transport.normalize.steps", "transport.discharge.steps")


class Tracer:
    """Spans and counters of one traced worker run."""

    def __init__(self):
        self.labels: list[str] = []
        self.groups: list[str | None] = []
        # spans[sid] = (label index, parent sid, job, start, end, self seconds)
        self.spans: list[tuple | None] = []
        self.aggregates: dict[tuple[int, str], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.scalar_new = [0]
        self.job = None
        # Each frame holds the summed duration of its direct children.  The
        # bottom frame absorbs calls made outside any job.
        self.stack: list[list[float]] = [[0.0]]
        self.span_stack: list[int | None] = [None]
        self.installed: list[tuple[object, str, object]] = []
        self._job_label = self._label(JOB, None)

    def _label(self, label: str, group: str | None) -> int:
        self.labels.append(label)
        self.groups.append(group)
        return len(self.labels) - 1

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job) -> None:
        self.job = job
        sid = len(self.spans)
        self.spans.append(None)
        self._job_sid = sid
        self._job_frame = [0.0]
        self.stack.append(self._job_frame)
        self.span_stack.append(sid)
        self._job_start = time.perf_counter()

    def end_job(self) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.span_stack.pop()
        dur = end - self._job_start
        self.spans[self._job_sid] = (
            self._job_label, None, self.job, self._job_start, end, dur - self._job_frame[0]
        )
        self.job = None

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer: str, label: str, group: str, orig):
        index = self._label(label, group)
        spans, stack, span_stack = self.spans, self.stack, self.span_stack
        errors, counters, clock = self.errors, self.counters, time.perf_counter
        extra = _SPAN_EXTRAS.get(group)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = span_stack[-1]
            frame = [0.0]
            stack.append(frame)
            span_stack.append(sid)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                span_stack.pop()
                stack[-1][0] += end - start
                spans[sid] = (index, parent, tracer.job, start, end, end - start - frame[0])
            if extra is not None:
                extra(counters, result)
            return result

        return wrapper

    def _leaf(self, layer: str, group: str, operand: type, orig):
        """Aggregate ``orig`` per parent span when both operands are
        ``operand``; a product by a scalar is the unwrapped ``scale`` path,
        as it is for the reflected ``__rmul__``."""
        stack, span_stack, aggregates = self.stack, self.span_stack, self.aggregates
        errors, clock = self.errors, time.perf_counter
        extra = _LEAF_EXTRAS.get(group)

        def wrapper(*args):
            if not isinstance(args[1], operand):
                try:
                    return orig(*args)
                except BaseException:
                    errors[layer] += 1
                    raise
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = orig(*args)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                key = (span_stack[-1], group)
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0.0, 0.0, 0, 0]
                agg[0] += 1
                agg[1] += dur - frame[0]
                agg[2] += dur
            if extra is not None:
                extra(agg, args, result)
            return result

        return wrapper

    def _error_counter(self, layer: str, orig):
        errors = self.errors

        def wrapper(*args, **kwargs):
            try:
                return orig(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise

        return wrapper

    def _counted_init(self, orig):
        count = self.scalar_new

        def wrapper(scalar, *args, **kwargs):
            count[0] += 1
            orig(scalar, *args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions and rebind every name bound to them."""
        import importlib

        package = "qjacobi"
        modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        loaded = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]

        def patch(layer: str, path: str, make):
            holder, name, orig = _resolve(modules[layer], path)
            wrapped = make(orig)
            if isinstance(holder, type):
                self.installed.append((holder, name, orig))
                setattr(holder, name, wrapped)
                return
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self.installed.append((module, attr, orig))
                        setattr(module, attr, wrapped)

        for layer, path, group in SPANS:
            patch(layer, path, lambda orig, l=layer, p=path, g=group: self._span(l, f"{l}.{p}", g, orig))
        for layer, path, group in LEAVES:
            operand = _resolve(modules[layer], path)[0]
            patch(layer, path, lambda orig, l=layer, g=group, o=operand: self._leaf(l, g, o, orig))
        patch("ncalg", "Scalar.__init__", self._counted_init)
        patch("cli", "main", lambda orig: self._error_counter("cli", orig))

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self.installed):
            setattr(holder, name, orig)
        self.installed.clear()

    # -- results ------------------------------------------------------------

    def _ancestor_in(self, sid, wanted) -> bool:
        """Whether the span ``sid`` or one of its ancestors is in ``wanted``."""
        while sid is not None:
            label, parent = self.spans[sid][0], self.spans[sid][1]
            if self.groups[label] in wanted:
                return True
            sid = parent
        return False

    def inclusive_share(self, wanted) -> float:
        """Share of job time spent inside any group of ``wanted``, counting
        each nested interval once."""
        covered = 0.0
        for span in self.spans:
            label, parent, _, start, end, _ = span
            if self.groups[label] in wanted and not self._ancestor_in(parent, wanted):
                covered += end - start
        for (sid, group), agg in self.aggregates.items():
            if group in wanted and not self._ancestor_in(sid, wanted):
                covered += agg[2]
        return covered / self.job_seconds()

    def diagnostics(self) -> dict[str, float]:
        groups = {g for _, _, g in SPANS + LEAVES}
        heavy = {g for g in groups if g.startswith("matrices.") or g == "cli.render"}
        return {"matrices+cli.render inclusive share of job time": self.inclusive_share(heavy)}

    def job_seconds(self) -> float:
        return sum(s[4] - s[3] for s in self.spans if self.labels[s[0]] == JOB)

    def layer_metrics(self, cycles: int, scale: list[float]) -> dict[str, float]:
        """Totals per workload cycle, keyed by metric name.

        ``scale[job]`` converts the wall seconds of a job to the scaled
        seconds the end-to-end metrics use (``calibrate.py``).
        """
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        unattributed = job_s = 0.0
        for label, _, job, start, end, own in self.spans:
            group = self.groups[label]
            if group is None:
                unattributed += own * scale[job]
                job_s += (end - start) * scale[job]
                continue
            calls[group] += 1
            self_s[group] += own * scale[job]
        extra_x: dict[str, int] = defaultdict(int)
        extra_y: dict[str, int] = defaultdict(int)
        for (sid, group), agg in self.aggregates.items():
            calls[group] += agg[0]
            self_s[group] += agg[1] * scale[self.spans[sid][2]]
            extra_x[group] += agg[3]
            extra_y[group] += agg[4]

        out: dict[str, float] = {}
        for group in {g for _, _, g in SPANS} | {g for _, _, g in LEAVES}:
            out[f"{group}.calls"] = calls[group] / cycles
            out[f"{group}.self_s"] = self_s[group] / cycles
        out["ncalg.ncpoly_mul.merge_ratio"] = _ratio(extra_x["ncalg.ncpoly_mul"], extra_y["ncalg.ncpoly_mul"])
        out["matrices.matmul.nnz_out"] = extra_x["matrices.matmul"] / cycles
        out["matrices.matmul.fill"] = _ratio(extra_x["matrices.matmul"], extra_y["matrices.matmul"])
        out["ncalg.scalar_new.count"] = self.scalar_new[0] / cycles
        for name, value in self.counters.items():
            out[name] = value / cycles
        for name in _SPAN_EXTRAS_NAMES:
            out.setdefault(name, 0.0)
        for layer, count in self.errors.items():
            out[f"{layer}.errors"] = count / cycles
        out["bench.unattributed_share"] = _ratio(unattributed, job_s)
        return out

    def dump(self, path: str, jobs: list) -> None:
        doc = {
            "labels": self.labels,
            "groups": self.groups,
            "fields": ["label", "parent", "job", "start", "end", "self_s"],
            "spans": self.spans,
            "leaf_fields": ["span", "group", "calls", "self_s", "dur_s", "x", "y"],
            "leaves": [[sid, group, *agg] for (sid, group), agg in self.aggregates.items()],
            "jobs": jobs,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
