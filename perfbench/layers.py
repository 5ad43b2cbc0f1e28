"""Per-layer tracing of okbody from outside the package.

The tracer replaces public names of okbody's modules with timing wrappers.
`from .x import y` binds a name in each importing module, so every name is
wrapped where it is looked up (for example okbody.okounkov.valuation_with_unit,
not okbody.valuation.valuation_with_unit).  A name that a later version of
okbody no longer has is skipped, and the metrics built on it read 0.

Spans nest: a span's self time is its duration minus the time of the wrapped
spans it encloses, and the inclusive total of a name counts only its
outermost span when the name recurses.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self._stack: list[list] = []      # [name, child time, start]
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.edge: Counter = Counter()     # (parent name, name) -> time
        self.values: Counter = Counter()
        self.branch_keys: set = set()

    def enter(self, name: str) -> None:
        self._stack.append([name, 0.0, perf_counter()])

    def exit(self) -> None:
        name, child, start = self._stack.pop()
        duration = perf_counter() - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            self.edge[parent[0], name] += duration
        if all(frame[0] != name for frame in self._stack):
            self.total[name] += duration

    def timed(self, fn, name: str, observe=None):
        """fn wrapped in a span; observe(tracer, args, kwargs, result) runs
        after the call, outside the span."""
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, fn, name: str):
        """fn wrapped in a call counter only, for hot inner functions."""
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap the okbody names that the per-layer metrics read."""
        from okbody import convex, elliptic, okounkov, valuation, varieties

        def span(owner, attr, name, observe=None):
            self.patch(owner, attr,
                       lambda fn: self.timed(fn, name, observe))

        for module, attr, name in [
                (okounkov, "semigroup", "semigroup"),
                (okounkov, "body_estimate", "body_estimate"),
                (okounkov, "vertex_criterion", "vertex_criterion"),
                (okounkov, "generation_degree", "generation_degree"),
                (okounkov, "valuation_with_unit", "valuation"),
                (okounkov, "independent_indices", "independent"),
                (okounkov.GradedSystem, "basis", "basis"),
                (okounkov, "normal_form", "normal_form"),
                (valuation, "normal_form", "normal_form"),
                (varieties, "normal_form", "normal_form"),
                (valuation, "affine_chart_expansion", "expansion"),
                (valuation, "eval_bivar", "eval"),
                (convex, "nonnegative_solution_exists", "lp"),
                (convex, "normal_fan_rays", "facets"),
                (varieties, "verify_flag", "verify_flag")]:
            span(module, attr, name)
        span(okounkov, "value_set", "value_set", _observe_value_set)
        span(valuation, "series_solve_branch", "branch", _observe_branch)
        span(convex, "convex_hull", "hull", _observe_hull)
        span(valuation, "SpanSolver", "span_build", _observe_span_solver)
        span(elliptic, "single_point_member", "search", _observe_search)
        self.patch(elliptic.EllipticCurveFp, "mul",
                   lambda fn: self.counted(fn, "mul"))


def _observe_value_set(tracer, args, kwargs, result) -> None:
    tracer.values["basis_sizes"] += len(args[0])


def _observe_branch(tracer, args, kwargs, result) -> None:
    curve, point, precision = args[:3]
    tracer.branch_keys.add((curve.num_vars, tuple(sorted(curve.terms.items())),
                            tuple(point), precision,
                            tuple(sorted(kwargs.items()))))


def _observe_hull(tracer, args, kwargs, result) -> None:
    points = args[0]
    if isinstance(points, (list, tuple)):
        tracer.values["hull_points"] += len({tuple(p) for p in points})
    tracer.values["hull_vertices"] += len(result.vertices)


def _observe_span_solver(tracer, args, kwargs, solver) -> None:
    solver.solve = tracer.timed(solver.solve, "span_solve")


def _observe_search(tracer, args, kwargs, result) -> None:
    tracer.values["witness_hits"] += result is not None


POINT_SPANS = ("branch", "expansion", "eval")


def layer_metrics(job: Tracer, setup: Tracer) -> dict[str, float]:
    """Per-layer metrics of one job, counts as int and times as float;
    `setup` holds the spans recorded while the job's process set up, before
    `job` was reset."""
    point_s = sum(job.total[name] for name in POINT_SPANS)
    step_s = job.total["valuation"] - sum(
        job.edge["valuation", name] for name in (*POINT_SPANS, "normal_form"))
    counts = {
        "okounkov.recombinations":
            job.calls["valuation"] - job.values["basis_sizes"],
        "valuation.calls": job.calls["valuation"],
        "linalg.span_builds": job.calls["span_build"],
        "linalg.span_solves": job.calls["span_solve"],
        "series.branch_calls": job.calls["branch"],
        "series.branch_distinct": len(job.branch_keys),
        "convex.hull_points": job.values["hull_points"],
        "convex.hull_vertices": job.values["hull_vertices"],
        "linalg.lp_calls": job.calls["lp"],
        "polynomials.normal_form_calls": job.calls["normal_form"],
        "elliptic.mul_calls": job.calls["mul"],
        "elliptic.witness_hits": job.values["witness_hits"],
    }
    times = {
        "okounkov.value_set_self_s": job.self_time["value_set"],
        "okounkov.basis_s": job.total["basis"],
        "linalg.independent_s": job.total["independent"],
        "okounkov.generation_degree_s": job.total["generation_degree"],
        "valuation.step_s": step_s,
        "valuation.point_s": point_s,
        "linalg.span_build_s": job.total["span_build"],
        "linalg.span_solve_s": job.total["span_solve"],
        "series.branch_s": job.total["branch"],
        "series.eval_s": job.total["eval"],
        "convex.hull_s": job.total["hull"],
        "linalg.lp_s": job.total["lp"],
        "convex.facets_s": job.total["facets"],
        "polynomials.normal_form_s": job.total["normal_form"],
        "varieties.verify_flag_s": setup.total["verify_flag"],
        "elliptic.points_s": setup.total["points"],
        "elliptic.search_s": job.total["search"],
    }
    return ({name: int(value) for name, value in counts.items()}
            | {name: float(value) for name, value in times.items()})
