#!/usr/bin/env python3
"""chainbounds benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/chainbounds``; the
package is imported from that source tree.  BLAS is pinned to one thread.

--trace 0  runs jobs back to back for about S seconds (at least MIN_JOBS
           jobs), checks every output against numpy-only oracles, and
           prints the end-to-end metrics.
--trace 1  runs a fixed block of the workload's jobs, each once untraced
           and once with spans recorded around chainbounds' public
           functions, checks that both outputs are identical, and prints
           the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check or
an exception that is not a ChainboundsError aborts with exit status 1
and no result line; a missing source tree exits with status 2.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = BENCH / "fixtures"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402  (numpy only; scipy is imported in the checks)
import tracing  # noqa: E402

MIN_JOBS = 21            # the tail (10 samples beyond) then sits at or above p50
SETUP_REPEATS = 3
N_BOUND = 100            # horizon n of every bound query
FAILURE_CLASSES = ("ConvergenceError", "CrossCheckError", "AssumptionError",
                   "DomainError")
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class GateError(Exception):
    """An output disagreed with its oracle: the run is not valid."""


def gate(ok, what):
    if not ok:
        raise GateError(what)


def close(a, b, rel, abs_=0.0):
    a, b = float(a), float(b)
    return a == b or abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# what the benchmark process uses of the package; chainbounds.cli only
# runs in child processes
LIBRARY = ("chainbounds.errors", "chainbounds.model", "chainbounds.perron",
           "chainbounds.assumptions", "chainbounds.family", "chainbounds.bounds",
           "chainbounds.sim")


def release(lib, model):
    """Drop the model's tilt cache from the family registry, outside the
    timed region.

    ``family_of`` keeps every model alive (each TiltedFamily holds a strong
    reference to its own key in the WeakKeyDictionary it is stored in), so
    without this every job would add its model's tilts to peak_rss_mb.
    The traced run counts the models that outlive their job
    (``model.retained_per_job``) before dropping them.
    """
    if model is not None:
        getattr(lib["chainbounds.family"], "_FAMILIES", {}).pop(model, None)


def load_library(names=LIBRARY):
    if not (SRC / "chainbounds" / "__init__.py").is_file():
        print(f"bench: no chainbounds source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(name) for name in names}


# ---------------------------------------------------------------- inputs

def positive_chain(rng, S):
    """Dense chain with entries within a factor 1.5 of each other and an
    observable on an evenly spaced grid: every entry is positive, so A1-A4
    hold, and argmax/argmin are single states.  (Entries drawn from
    [0.05, 1.05) instead spread the per-model constant-search cost about
    twice as wide, which the per-run median cannot average out.)"""
    P = 1.0 + 0.5 * rng.random((S, S))
    P /= P.sum(axis=1, keepdims=True)
    f = rng.permutation(np.linspace(0.0, 1.0, S))
    return P, f


class Spec(dict):
    """Generated inputs of one job; ``model(lib)`` builds a fresh model."""

    def model(self, lib):
        S = len(self["f"])
        return lib["chainbounds.model"].MarkovModel(
            tuple(f"s{i}" for i in range(S)), self["P"], self["f"],
            np.full(S, 1.0 / S))


def _describe(spec):
    return f"S={len(spec['f'])}"


def _chain_spec(P, f, **extra):
    return Spec(P=P, f=f, pif=oracles.stationary_mean(P, f), **extra)


# ---------------------------------------------------------- bounds_dense

# 200-state chains are left out: their constant search costs 1-5 s and
# 400-900 MB depending on the model, which no 25 s run can average out.
DENSE_SIZES = (10, 50)
FRACTIONS = (0.2, 0.5, 0.8)


def dense_spec(seed, i):
    rng = np.random.default_rng([seed, i])
    return _chain_spec(*positive_chain(rng, DENSE_SIZES[i % len(DENSE_SIZES)]))


def dense_run(lib, spec, model):
    bounds = lib["chainbounds.bounds"]
    pif, f = spec["pif"], spec["f"]
    a, b = float(f.min()), float(f.max())
    reports = []
    for fr in FRACTIONS:
        reports.append(bounds.chernoff_bound(model, N_BOUND, pif + fr * (b - pif), "upper"))
        reports.append(bounds.chernoff_bound(model, N_BOUND, pif - fr * (pif - a), "lower"))
    reports.append(bounds.chernoff_bound(model, N_BOUND, b, "upper"))
    lo = pif + 0.65 * (b - pif)
    two = bounds.two_sided_bound(model, N_BOUND, (lo, b))
    K = (bounds.constants(model, "upper").K, bounds.constants(model, "lower").K)
    values = [(r.mu, r.side, r.rate, r.chernoff, r.hoeffding_sigma,
               r.hoeffding_range) for r in reports]
    return values, two, K


def _check_report(spec, value, K):
    mu, side, rate, chernoff, hs, hr = value
    gate(close(chernoff, K * math.exp(-N_BOUND * rate), 1e-12),
         f"chernoff != K exp(-n rate) at mu={mu}")
    gate(chernoff <= hs * (1 + 1e-12) + 1e-300 and hs <= hr * (1 + 1e-12) + 1e-300,
         f"bound ordering at mu={mu}")
    oracle = oracles.legendre_rate(spec["P"], spec["f"], mu, side)
    gate(close(rate, oracle, 1e-6, 1e-9),
         f"{side} rate at mu={mu}: {rate!r} vs Legendre {oracle!r}")


def _check_lambda(lib, spec, thetas):
    family = lib["chainbounds.family"]
    model = spec.model(lib)
    for theta in thetas:
        got = family.tilt(model, float(theta)).Lambda
        want = oracles.log_spectral_radius(spec["P"], spec["f"], float(theta))
        gate(close(got, want, 1e-9, 1e-10),
             f"Lambda({theta}) = {got!r} vs dense eig {want!r}")


def dense_check(lib, i, spec, out):
    values, two, (K_up, K_lo) = out
    gate(K_up >= 1.0 and K_lo >= 1.0, "K below 1")
    # one interior mean per job, rotating through the six, plus the extreme
    j = i % 6
    _check_report(spec, values[j], K_up if values[j][1] == "upper" else K_lo)
    extreme = values[-1]
    want = oracles.boundary_rate(spec["P"], spec["f"], "upper")
    gate(close(extreme[2], want, 1e-9, 1e-12),
         f"boundary rate {extreme[2]!r} vs limit-matrix eig {want!r}")
    gate(0.0 < two <= 2.0 * max(K_up, K_lo), "two-sided bound out of range")
    _check_lambda(lib, spec, (-1.5, 0.75))


# --------------------------------------------------------- simulate_tail

SIM_SIZES = (2, 10, 50)
PHILOX_BOUND, STEP_BOUND = (100_000, 50), (2_000, 5_000)
# One cycle holds the 1e5 x 50 job once per size (1.7-3.6 s) and nineteen
# 2e3 x 5000 jobs (0.9-1.8 s), six on 2, ten on 10 and three on 50 states:
# 22 jobs, so a run of one cycle has a tail with 10 samples beyond it, and
# its median falls in the middle of the 10-state jobs, not between two
# job types.
_STEPS = ((10, STEP_BOUND), (2, STEP_BOUND), (10, STEP_BOUND), (50, STEP_BOUND),
          (10, STEP_BOUND), (2, STEP_BOUND))
SIM_CYCLE = (((2, PHILOX_BOUND),) + _STEPS + ((10, PHILOX_BOUND),) + _STEPS
             + ((50, PHILOX_BOUND),) + _STEPS + ((10, STEP_BOUND),))


def full_replay(seed, i):
    """Whether job i's hit count is checked against a replay of all its
    trials (a replay costs about as much as the job): in the first cycle,
    the first job of each shape on the chain size the seed picks, so every
    run checks both shapes and the seeds rotate the size."""
    return (i < len(SIM_CYCLE) and SIM_CYCLE.index(SIM_CYCLE[i]) == i
            and SIM_CYCLE[i][0] == SIM_SIZES[seed % len(SIM_SIZES)])


def sim_spec(seed, i):
    rng = np.random.default_rng([seed, i])
    S, (trials, n) = SIM_CYCLE[i % len(SIM_CYCLE)]
    spec = _chain_spec(*positive_chain(rng, S), trials=trials, n=n,
                       sim_seed=int(rng.integers(0, 2**31)),
                       replay=full_replay(seed, i))
    # about half a standard deviation of the n-step mean above pi(f), so that
    # 25-40% of the trials hit and the hit count checks every trial's path
    spec["mu"] = spec["pif"] + 0.35 * (float(spec["f"].max()) - spec["pif"]) / math.sqrt(n)
    return spec


def sim_run(lib, spec, model):
    est = lib["chainbounds.sim"].empirical_tail(
        model, spec["n"], spec["mu"], "upper", spec["trials"], spec["sim_seed"])
    return est.hits, est.p_hat, est.ci_low, est.ci_high


def sim_check(lib, i, spec, out):
    hits, p_hat, low, high = out
    trials, n, seed = spec["trials"], spec["n"], spec["sim_seed"]
    gate(0 <= hits <= trials and p_hat == hits / trials, "hit count out of range")
    want = oracles.clopper_pearson(hits, trials)
    gate(close(low, want[0], 1e-12, 1e-300) and close(high, want[1], 1e-12, 1e-300),
         "Clopper-Pearson interval differs from scipy.stats.beta")
    q = np.full(len(spec["f"]), 1.0 / len(spec["f"]))
    path = lib["chainbounds.sim"].sample_trajectory(spec.model(lib), n, seed)
    gate(np.array_equal(path, oracles.replay_paths(spec["P"], q, n, [seed])[0]),
         "sample_trajectory differs from the Philox replay of trial 0")
    if spec["replay"]:
        replay = oracles.replay_hits(spec["P"], spec["f"], q, n, spec["mu"], "upper",
                                     trials, seed)
        gate(hits == replay, f"{hits} hits vs {replay} in a replay of all {trials} trials")


# -------------------------------------------------------------- cli_cold

CLI_FIXTURES = ("chain2.yaml", "chain10.yaml")
CLI_COMMANDS = ("validate", "spectrum", "rate", "constants", "bound",
                "simulate", "ergodic")
SIM_TRIALS, SIM_N, ERGODIC_N = 20_000, 50, 100


def verify_fixtures():
    for line in (FIXTURES / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        got = hashlib.sha256((FIXTURES / name).read_bytes()).hexdigest()
        gate(got == digest, f"fixture {name} does not match its SHA-256")


def cli_jobs(seed):
    """The 14 invocations (7 subcommands x 2 fixtures); the seed picks the
    means and intervals."""
    rng = np.random.default_rng([seed])
    jobs = []
    for name in CLI_FIXTURES:
        doc = yaml.safe_load((FIXTURES / name).read_text())
        P, f = np.array(doc["P"], dtype=float), np.array(doc["f"], dtype=float)
        pif, b = oracles.stationary_mean(P, f), float(f.max())
        fr = float(rng.uniform(0.3, 0.6))
        at = lambda x: repr(pif + x * (b - pif))  # noqa: E731
        path = str(Path("bench") / "fixtures" / name)
        args = {
            "validate": [],
            "spectrum": ["--theta=-4:4:81"],
            "rate": ["--mu", ",".join(at(fr * k) for k in (0.5, 1.0, 1.5))],
            "constants": ["--side", "upper"],
            "bound": ["--mu", at(fr), "--n", "50", "--interval", f"{at(fr)},{b!r}"],
            "simulate": ["--mu", at(0.5 * fr), "--n", str(SIM_N),
                         "--trials", str(SIM_TRIALS), "--seed", "1"],
            "ergodic": ["--theta", "1", "--n", f"1:{ERGODIC_N}"],
        }
        for cmd in CLI_COMMANDS:
            jobs.append(Spec(command=cmd, fixture=name, P=P, f=f,
                             argv=[cmd, "--model", path, *args[cmd],
                                   "--format", "machine"]))
    return jobs


def cli_invoke(argv, traced=False):
    """Run one CLI process; returns (stdout bytes, stderr text, wall s)."""
    if traced:
        cmd = [sys.executable, str(BENCH / "cli_traced.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "chainbounds.cli", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True)
    wall = time.perf_counter() - t0
    gate(proc.returncode == 0,
         f"cli {' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return proc.stdout, proc.stderr.decode(), wall


def cli_check(lib, spec, stdout):
    """Machine report against in-process library values and oracles."""
    fam, bnd, sim = (lib["chainbounds.family"], lib["chainbounds.bounds"],
                     lib["chainbounds.sim"])
    doc = json.loads(stdout)
    path = FIXTURES / spec["fixture"]
    gate(doc["model_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest(),
         "report hashes a different model file")
    model = lib["chainbounds.model"].load_model(path)
    P, f, q = spec["P"], spec["f"], model.q
    argv, cmd = spec["argv"], spec["command"]
    opt = lambda name: argv[argv.index(name) + 1]  # noqa: E731
    eq = lambda a, b, what: gate(close(a, b, 1e-12), f"{cmd}: {what} {a!r} vs {b!r}")  # noqa: E731

    if cmd == "validate":
        rep = lib["chainbounds.assumptions"].validate(model)
        got = doc["assumptions"]
        gate([got[k] for k in ("a1", "a2", "a3", "a4")] == [rep.a1, rep.a2, rep.a3, rep.a4]
             and got["S_a"] == list(rep.S_a) and got["S_b"] == list(rep.S_b),
             "validate: assumptions differ from the library")
    elif cmd == "spectrum":
        grid = np.linspace(-4.0, 4.0, 81)
        curve = fam.spectral_curve(model, grid)
        for k, row in enumerate(doc["spectrum"]):
            eq(row["Lambda"], curve.Lambda[k], "Lambda")
            eq(row["Lambda2"], curve.Lambda2[k], "Lambda''")
        for k in (0, 30, 80):
            want = oracles.log_spectral_radius(P, f, float(grid[k]))
            gate(close(doc["spectrum"][k]["Lambda"], want, 1e-9, 1e-10),
                 f"spectrum: Lambda({grid[k]}) vs dense eig {want!r}")
    elif cmd == "rate":
        for row in doc["rate"]:
            point = fam.rate_function(model, row["mu"], "upper")
            eq(row["value"], point.value, "rate")
            want = oracles.legendre_rate(P, f, row["mu"], "upper")
            gate(close(row["value"], want, 1e-6, 1e-9), f"rate vs Legendre {want!r}")
    elif cmd == "constants":
        c = bnd.constants(model, "upper")
        got = doc["constants"]
        for key in ("K", "L", "sigma2", "rho_inf"):
            eq(got[key], getattr(c, key), key)
        gate(got["grid_summary"]["n_points"] == c.grid_summary.n_points, "grid points")
    elif cmd == "bound":
        mu = float(opt("--mu"))
        r = bnd.chernoff_bound(model, 50, mu, "upper")
        for key in ("rate", "chernoff", "hoeffding_sigma", "hoeffding_range"):
            eq(doc["bound"][key], getattr(r, key), key)
        lo, hi = (float(x) for x in opt("--interval").split(","))
        eq(doc["two_sided"]["value"], bnd.two_sided_bound(model, 50, (lo, hi)), "two-sided")
    elif cmd == "simulate":
        est = sim.empirical_tail(model, SIM_N, float(opt("--mu")), "upper", SIM_TRIALS, 1)
        gate(doc["estimate"]["hits"] == est.hits, "simulate: hits differ")
        replay = oracles.replay_hits(P, f, q, SIM_N, float(opt("--mu")), "upper",
                                     SIM_TRIALS, 1)
        gate(est.hits == replay, f"simulate: {est.hits} hits vs {replay} in a replay")
    elif cmd == "ergodic":
        rows = doc["ergodic"]
        gate(len(rows) == ERGODIC_N, "ergodic: row count")
        lam = oracles.log_spectral_radius(P, f, 1.0)
        for row in rows:
            n = row["n"]
            check = sim.ergodic_check(model, 1.0, n)
            eq(row["Lambda_n"], check.Lambda_n, "Lambda_n")
            eq(row["bound"], check.bound, "bound")
            lam_n = oracles.lambda_n(P, f, q, 1.0, n)
            gate(abs(lam_n - lam) <= row["bound"] + 1e-9,
                 f"ergodic: |Lambda_n - Lambda| > log(K)/n at n={n}")
            gate(close(row["Lambda_n"], lam_n, 1e-10, 1e-12), f"ergodic: Lambda_n at n={n}")


# ------------------------------------------------------------- workloads

WORKLOADS = {
    "bounds_dense": dict(spec=dense_spec, run=dense_run, check=dense_check,
                         trace_jobs=2 * len(DENSE_SIZES),
                         imports=("chainbounds.model", "chainbounds.bounds")),
    # whole cycles only: the job types cost 1-4 s each, so a partial cycle
    # would move the median from one type to another
    "simulate_tail": dict(spec=sim_spec, run=sim_run, check=sim_check,
                          trace_jobs=len(SIM_CYCLE), cycle=len(SIM_CYCLE),
                          imports=("chainbounds.model", "chainbounds.sim")),
    "cli_cold": dict(trace_jobs=len(CLI_FIXTURES) * len(CLI_COMMANDS),
                     imports=("chainbounds.cli",)),
}


def tail_percentile(samples):
    """The highest percentile with at least 10 samples beyond it: the
    (n-10)-th smallest of n samples.  Returns (percentile, value)."""
    s = sorted(samples)
    k = max(1, len(s) - 10)
    return 100.0 * k / len(s), s[k - 1]


def setup_probe(workload, seed):
    """What a fresh process pays before its first job: interpreter start,
    import of the package modules the workload calls and building its
    first inputs."""
    w = WORKLOADS[workload]
    lib = load_library(w["imports"])
    if workload == "cli_cold":
        verify_fixtures()
        cli_jobs(seed)
    else:
        for i in range(w["trace_jobs"]):
            w["spec"](seed, i).model(lib)


def measure_setup(workload, seed):
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", workload,
                               "--seed", str(seed)],
                              cwd=ROOT, env=CHILD_ENV, capture_output=True)
        walls.append(time.perf_counter() - t0)
        gate(proc.returncode == 0, f"setup probe failed: {proc.stderr.decode()[-400:]}")
    return statistics.median(walls)


def timed_loop(one_job, seconds, cycle=1):
    """Call one_job(i) back to back until MIN_JOBS jobs have completed and
    the run is at the boundary of whole ``cycle``-job cycles closest to
    ``seconds``, so that a cycle ending just short of ``seconds`` does not
    double the run; hard stop at four times ``seconds``.  one_job returns
    whether its job completed.  Returns the number of jobs attempted."""
    start = boundary = time.perf_counter()
    attempted = completed = 0
    while True:
        now = time.perf_counter()
        if attempted and attempted % cycle == 0:
            last_cycle, boundary = now - boundary, now
            if completed >= MIN_JOBS and now - start + last_cycle / 2 >= seconds:
                return attempted
        if now - start >= 4 * seconds:
            return attempted
        completed += bool(one_job(attempted))
        attempted += 1


def e2e_metrics(latencies, busy, attempted, setup, rss_kb, name):
    p, tail = tail_percentile(latencies)
    print(f"{name}: {len(latencies)} completed of {attempted}; "
          f"job_tail_s is p{p:.1f} of {len(latencies)} samples")
    return {
        "setup_s": (setup, "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail, "s"),
        "jobs_per_s": (len(latencies) / busy, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run_job(lib, w, spec):
    """One job on a fresh model.  Returns (model, output or the class name
    of the ChainboundsError it raised, seconds); model is None if building
    it failed."""
    errors = lib["chainbounds.errors"]
    model = None
    t0 = time.perf_counter()
    try:
        model = spec.model(lib)
        out = w["run"](lib, spec, model)
    except errors.ChainboundsError as exc:
        out = type(exc).__name__
    return model, out, time.perf_counter() - t0


def run_library_timed(lib, name, seed, seconds):
    w = WORKLOADS[name]
    latencies, outcomes, failures = [], [], Counter()
    busy = 0.0

    def one(i):
        nonlocal busy
        spec = w["spec"](seed, i)
        model, out, dt = run_job(lib, w, spec)
        release(lib, model)
        busy += dt
        if isinstance(out, str):
            failures[out] += 1
            print(f"{name}: job {i} ({_describe(spec)}) failed: {out}")
            return False
        latencies.append(dt)
        outcomes.append((i, spec, out))
        return True

    attempted = timed_loop(one, seconds, w.get("cycle", 1))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    setup = measure_setup(name, seed)
    t1 = time.perf_counter()
    for i, spec, out in outcomes:
        w["check"](lib, i, spec, out)
    print(f"{name}: setup probes {t1 - t0:.1f} s, checks {time.perf_counter() - t1:.1f} s")
    if failures:
        print(f"{name}: typed failures by class: {dict(failures)}")
    gate(latencies, "no job completed")
    metrics = e2e_metrics(latencies, busy, attempted, setup, rss, name)
    return attempted, sum(failures.values()), metrics


def run_cli_timed(lib, seed, seconds):
    jobs = cli_jobs(seed)
    latencies, first = [], {}

    def one(i):
        spec = jobs[i % len(jobs)]
        stdout, _, wall = cli_invoke(spec["argv"])
        latencies.append(wall)
        key = i % len(jobs)
        if key in first:
            gate(first[key] == stdout, f"repeated {spec['command']} differs")
        else:
            first[key] = stdout
        return True

    attempted = timed_loop(one, seconds)
    # read before the setup probes run: they are children too
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    t0 = time.perf_counter()
    setup = measure_setup("cli_cold", seed)
    t1 = time.perf_counter()
    for key, stdout in first.items():
        cli_check(lib, jobs[key], stdout)
    print(f"cli_cold: setup probes {t1 - t0:.1f} s, checks {time.perf_counter() - t1:.1f} s")
    metrics = e2e_metrics(latencies, sum(latencies), attempted, setup, rss, "cli_cold")
    return attempted, 0, metrics


def _process_probe(code):
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                       check=True, capture_output=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def run_traced(lib, name, seed, seconds):
    """Untraced then traced execution of a fixed block of jobs."""
    w = WORKLOADS[name]
    tracer = tracing.Tracer()
    job_starts, plain, traced = [], [], []
    failures = Counter()
    retained = 0
    attempted = 0
    start = time.perf_counter()

    if name == "cli_cold":
        jobs = cli_jobs(seed)

        def pair(i):
            spec = jobs[i]
            out0, _, t0 = cli_invoke(spec["argv"])
            out1, err, t1 = cli_invoke(spec["argv"], traced=True)
            gate(out0 == out1, f"traced {spec['command']} output differs")
            records = json.loads(err.rsplit("SPANS ", 1)[1])
            job_starts.append(len(tracer.spans))
            tracer.spans.extend(tracing.from_records(records, len(tracer.spans)))
            plain.append(t0)
            traced.append(t1)
    else:
        def pair(i):
            nonlocal retained
            spec = w["spec"](seed, i)
            outcome = []
            for trace in (False, True):
                if trace:
                    job_starts.append(tracer.mark())
                    tracer.install(lib)
                try:
                    model, out, dt = run_job(lib, w, spec)
                finally:
                    tracer.restore()
                outcome.append(out)
                (traced if trace else plain).append(dt)
                if model is not None:
                    ref = weakref.ref(model)
                    del model
                    gc.collect()
                    retained += ref() is not None
                    release(lib, ref())
            gate(repr(outcome[0]) == repr(outcome[1]),
                 f"traced output differs from untraced for job {i}")
            if isinstance(outcome[0], str):
                failures[outcome[0]] += 1
                print(f"{name}: job {i} ({_describe(spec)}) failed: {outcome[0]}")

    block = w["trace_jobs"]
    while True:
        for i in range(block):
            attempted += 1
            pair(i)
        if time.perf_counter() - start >= seconds:
            break
    layer = tracing.summarize(tracer.spans, attempted, job_starts)
    failed = sum(failures.values())
    if failures:
        print(f"{name}: typed failures by class: {dict(failures)}")

    interp = _process_probe("pass")
    imp = _process_probe("import chainbounds.cli") - interp
    metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (imp, "s")
    # both passes of each job, so 1.0 while every model outlives its job
    metrics["model.retained_per_job"] = (retained / (2 * attempted), "count/job")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    for cls in FAILURE_CLASSES:
        metrics[f"failures.{cls}"] = (failures.get(cls, 0), "count")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return attempted, failed, metrics


def _unit(key):
    if key.endswith("p50_us"):
        return "us"
    if key.endswith(("hit_ratio", "converged_frac")):
        return "ratio"
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith(("solves_per_call", "solves_per_grid_point")):
        return "count"
    if key.endswith("_s"):
        return "s/job"
    return "count/job"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    lib = load_library()
    try:
        verify_fixtures()
        if args.trace:
            attempted, failed, metrics = run_traced(lib, args.workload, args.seed,
                                                    args.seconds)
        elif args.workload == "cli_cold":
            attempted, failed, metrics = run_cli_timed(lib, args.seed, args.seconds)
        else:
            attempted, failed, metrics = run_library_timed(
                lib, args.workload, args.seed, args.seconds)
    except GateError as exc:
        print(f"bench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
