"""Span recording around chainbounds' public functions, from outside.

``Tracer.install`` replaces each traced function on the object its
callers look it up on (a module attribute or a class attribute) with a
recording wrapper and ``Tracer.restore`` puts the originals back.  Spans
stay in memory as ``Span`` records; ``summarize`` turns them into the
per-layer metrics.  Perron iteration counts are not visible from outside
the library and are not reported.
"""

import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute owner inside the module or None, attribute, span name)
TARGETS = (
    ("chainbounds.perron", None, "pf_irreducible", "perron.pf_irreducible"),
    ("chainbounds.perron", None, "limit_matrix", "perron.limit_matrix"),
    ("chainbounds.family", "TiltedFamily", "at", "family.at"),
    ("chainbounds.family", "TiltedFamily", "lambda_second", "family.lambda_second"),
    ("chainbounds.family", None, "theta_of_mean", "family.theta_of_mean"),
    ("chainbounds.family", None, "rate_function", "family.rate_function"),
    ("chainbounds.bounds", None, "constants", "bounds.constants"),
    ("chainbounds.assumptions", None, "validate", "assumptions.validate"),
    ("chainbounds.sim", None, "empirical_tail", "sim.empirical_tail"),
    ("chainbounds.sim", None, "lambda_n_exact", "sim.lambda_n_exact"),
    ("chainbounds.model", None, "parse_model", "model.parse_model"),
    # cli.py binds parse_model by name at import time
    ("chainbounds.cli", None, "parse_model", "model.parse_model"),
    ("chainbounds.cli", None, "run", "cli.run"),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    failed: bool = False
    work: float = 0.0          # grid points, trial-steps or matvecs
    converged: bool = False
    children: list = field(default_factory=list)


def _work(name, args, result):
    if name == "bounds.constants":
        return result.grid_summary.n_points, result.grid_summary.converged
    if name == "sim.empirical_tail":
        return result.trials * result.n, False
    if name == "sim.lambda_n_exact":
        return args[2], False
    return 0, False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = Span(name, parent, time.perf_counter())
            spans.append(span)
            if parent >= 0:
                spans[parent].children.append(idx)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.work, span.converged = _work(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict):
        """Patch every target whose module is in ``modules`` (name -> module)."""
        for mod_name, owner, attr, name in TARGETS:
            mod = modules.get(mod_name)
            if mod is None:
                continue
            obj = getattr(mod, owner) if owner else mod
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(name, original))

    def restore(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def mark(self):
        return len(self.spans)


def _ancestors(spans, idx):
    out = []
    p = spans[idx].parent
    while p >= 0:
        out.append(p)
        p = spans[p].parent
    return out


def summarize(spans: list[Span], jobs: int, job_starts: list[int]) -> dict:
    """Per-job calls, self time and work counts, plus work ratios.

    ``job_starts`` holds the index of each job's first span.  Solves per
    grid point are taken over the cold constants searches only: those
    that ran before any ``family.at`` call of their job, so no earlier
    cache fill lowers the count.
    """
    jobs = max(jobs, 1)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def self_s(i):
        return dur(i) - sum(dur(c) for c in spans[i].children)

    def calls(name):
        return len(by_name.get(name, ()))

    def per_job_self(name):
        return sum(self_s(i) for i in by_name.get(name, ())) / jobs

    pf = by_name.get("perron.pf_irreducible", [])
    pf_anc = {i: _ancestors(spans, i) for i in pf}
    at_solves = [i for i in pf
                 if pf_anc[i] and spans[pf_anc[i][0]].name == "family.at"]
    computed = [i for i in by_name.get("bounds.constants", ())
                if spans[i].children and not spans[i].failed]
    bounds_ = list(job_starts) + [len(spans)]
    cold = set()
    for lo, hi in zip(bounds_, bounds_[1:]):
        first_at = next((i for i in by_name.get("family.at", ()) if lo <= i < hi), hi)
        cold.update(i for i in computed if lo <= i < first_at)
    cold_points = sum(spans[i].work for i in cold)
    cold_solves = sum(1 for i in at_solves if cold.intersection(pf_anc[i]))
    tom = by_name.get("family.theta_of_mean", [])
    tom_solves = sum(1 for i in pf
                     if any(spans[a].name == "family.theta_of_mean" for a in pf_anc[i]))
    tails = by_name.get("sim.empirical_tail", [])
    trial_steps = sum(spans[i].work for i in tails)
    tail_time = sum(dur(i) for i in tails)
    at_calls = calls("family.at")

    return {
        "perron.pf_irreducible.calls": len(pf) / jobs,
        "perron.pf_irreducible.self_s": per_job_self("perron.pf_irreducible"),
        "perron.pf_irreducible.p50_us":
            float(np.median([dur(i) for i in pf])) * 1e6 if pf else 0.0,
        "perron.pf_irreducible.failed": sum(spans[i].failed for i in pf) / jobs,
        "perron.limit_matrix.calls": calls("perron.limit_matrix") / jobs,
        "family.at.calls": at_calls / jobs,
        "family.at.hit_ratio": 1.0 - len(at_solves) / at_calls if at_calls else 0.0,
        "family.lambda_second.calls": calls("family.lambda_second") / jobs,
        "family.lambda_second.self_s": per_job_self("family.lambda_second"),
        "family.theta_of_mean.calls": len(tom) / jobs,
        "family.theta_of_mean.self_s": per_job_self("family.theta_of_mean"),
        "family.theta_of_mean.solves_per_call": tom_solves / len(tom) if tom else 0.0,
        "family.rate_function.self_s": per_job_self("family.rate_function"),
        "bounds.constants.calls": calls("bounds.constants") / jobs,
        "bounds.constants.self_s": per_job_self("bounds.constants"),
        "bounds.grid_points": sum(spans[i].work for i in computed) / jobs,
        "bounds.solves_per_grid_point": cold_solves / cold_points if cold_points else 0.0,
        "bounds.converged_frac":
            sum(spans[i].converged for i in computed) / len(computed) if computed else 0.0,
        "assumptions.validate.calls": calls("assumptions.validate") / jobs,
        "assumptions.validate.self_s": per_job_self("assumptions.validate"),
        "sim.empirical_tail.self_s": per_job_self("sim.empirical_tail"),
        "sim.trial_steps": trial_steps / jobs,
        "sim.trial_steps_per_s": trial_steps / tail_time if tail_time else 0.0,
        "sim.lambda_n_exact.calls": calls("sim.lambda_n_exact") / jobs,
        "sim.lambda_n_exact.matvecs":
            sum(spans[i].work for i in by_name.get("sim.lambda_n_exact", ())) / jobs,
        "sim.lambda_n_exact.self_s": per_job_self("sim.lambda_n_exact"),
        "model.parse_model.self_s": per_job_self("model.parse_model"),
        "cli.run.self_s": per_job_self("cli.run"),
    }


def to_records(spans: list[Span]) -> list:
    return [[s.name, s.parent, s.start, s.end, s.failed, s.work, s.converged]
            for s in spans]


def from_records(records: list, offset: int) -> list[Span]:
    """Rebuild spans dumped by another process, shifting parent indices."""
    spans = [Span(name, parent + offset if parent >= 0 else -1, start, end,
                  failed, work, converged)
             for name, parent, start, end, failed, work, converged in records]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            spans[s.parent - offset].children.append(offset + i)
    return spans
