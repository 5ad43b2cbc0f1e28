"""Benchmark of okbody: time to a certified Okounkov body, and the elliptic
single-point sweep.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --job CASE:KIND:M

Every job runs in a fresh interpreter (worker.py), one at a time: a closed
loop with one client and one thread.  A fixed reference computation, timed
in its own process before the first job and after each job, gives the unit
of job_median_ref (see worker.reference_s).  With --trace 0 the run starts
jobs while they fit in S seconds and prints the end-to-end metrics; with
--trace 1 it runs untraced and traced jobs (layers.py wraps okbody's
modules) and prints the per-layer metrics.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
metric names and units are those of BENCHMARK.json.

--job runs one Okounkov job untraced and once traced, and prints its step
times and per-layer metrics; NOTES.md records the baseline rows it gave.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ecgroup

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
# Workers may cache okbody's bytecode, as an installed package has it, so
# that set-up times the import rather than the compilation.
WORKER_ENV = {key: value for key, value in os.environ.items()
              if key != "PYTHONDONTWRITEBYTECODE"}

# The Okounkov workloads are fixed by (case, kind, M); the seed does not
# apply to them.  The digests of the canonical semigroup, body and fan text
# were taken from the seed commit; any change to the artifacts fails a job.
WORKLOADS = {
    "quadric_complete": {
        "family": "okounkov", "case": "quadric_surface", "kind": "complete",
        "M": 7, "n": 2, "d": 2, "generation_degree": 1,
        "sha256": {
            "semigroup":
                "7e27e8a0c820cf9dbcbc44071d5ea1fe83c5cea60f370706a4615cfdc6823d3d",
            "body":
                "3f2c988c911a7dc61188700c97e5e9afc5fa24099bd64740a54124ad438a9089",
            "fan":
                "6edf80e633fa8014dfa73224a4cb74892725a108f7018a73699fd6fd091749f5",
        }},
    "fermat_powers": {
        "family": "okounkov", "case": "fermat_cubic", "kind": "powers",
        "M": 6, "n": 2, "d": 3, "generation_degree": 1,
        "sha256": {
            "semigroup":
                "6b96a6575a9eb5bca5434826e16d5dd8e5e9d69625b4ef848d715f6b17b97287",
            "body":
                "0ccb714e0f0d07bbb2fbdd110fda5e2f2c12a621da201e40b479d13ac91d0083",
            "fan":
                "8b9c29a5b130f7b5946221a13fd42154393b746a30361b38519ba672653a82bc",
        }},
    "p3_complete": {
        "family": "okounkov", "case": "p3", "kind": "complete",
        "M": 7, "n": 3, "d": 1, "generation_degree": 1,
        "sha256": {
            "semigroup":
                "ff97238e0075f5cd69f3d9eb822a5da32029a1a1f1b2dc2086d564d7e19777fd",
            "body":
                "562497fa1cc4c390d418e5b8c7837f05c33518dcb08c4a60433e17f13107e5d7",
            "fan":
                "4cb3bc3129d86fe802a4ff96527741bc77a380ccfe3e133d09aa7b7f41c2a6b9",
        }},
    # y^2 = x^3 + 1 over F_1009 has 948 = 4*3*79 points: 5 is prime to the
    # order, so every degree-5 class has a witness and the search stops
    # early; 3*E has index 3, so two degree-3 classes in three have none and
    # the search scans all of E(F_p).
    "ec_sweep": {"family": "ec", "p": 1009, "a": 0, "b": 1,
                 "degrees": [3, 5]},
}

SETUP_SAMPLES = 21       # set-up is timed in at least this many processes
CHUNK_CLASSES = 200      # ec_sweep classes per job
TIME_LIMIT_S = 170       # no job starts later, and none runs past it


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns workers one at a time against a fixed time limit."""

    def __init__(self):
        self.start = monotonic()
        self.setup_samples: list[float] = []
        self.last_ref_s: float | None = None

    def elapsed(self) -> float:
        return monotonic() - self.start

    def spawn(self, spec: dict) -> dict | None:
        """Run one worker; its result, or None when it failed or timed
        out."""
        spec = dict(spec, spawned=monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(spec)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV,
                timeout=max(1.0, TIME_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            print(f"worker timed out: {spec}", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker failed with exit code {proc.returncode}: {spec}",
                  file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        if "setup_s" in result:
            self.setup_samples.append(result["setup_s"])
        return result

    def reference_s(self) -> float:
        result = self.spawn({"family": "reference"})
        if result is None:
            raise SystemExit("the reference computation failed")
        return result["ref_s"]

    def job(self, spec: dict) -> dict | None:
        """One job between two reference timings; ref_s in the result is
        their mean."""
        if self.last_ref_s is None:
            self.last_ref_s = self.reference_s()
        result = self.spawn(spec)
        ref_s = self.reference_s()
        if result is not None:
            result["ref_s"] = (self.last_ref_s + ref_s) / 2
        self.last_ref_s = ref_s
        return result

    def top_up_setup(self, spec: dict) -> None:
        while (len(self.setup_samples) < SETUP_SAMPLES
               and self.elapsed() < TIME_LIMIT_S):
            self.spawn(dict(spec, setup_only=True))


# -- checks -------------------------------------------------------------------


def simplex_text(n: int, d: int) -> str:
    """Canonical body text of the simplex 0, e_1, ..., e_{n-1}, d*e_n."""
    vertices = [[0] * n]
    for i in range(n):
        vertex = [0] * n
        vertex[i] = d if i == n - 1 else 1
        vertices.append(vertex)
    rendered = [[f"{c}/1" for c in v] for v in sorted(vertices)]
    return json.dumps({"dim": n, "vertices": rendered}, indent=2) + "\n"


def okounkov_problems(workload: dict, result: dict | None) -> list[str]:
    """What is wrong with one Okounkov job's outputs.  The simplex, the
    generation degree and the digests are checked when the workload pins
    them."""
    if result is None:
        return ["the job did not finish"]
    problems = []
    if not result["flag_verified"]:
        problems.append("verify_flag failed")
    if not result["body_equal"]:
        problems.append("the body differs from expected_body()")
    if not result["vertex_criterion"]:
        problems.append("vertex_criterion is false")
    if ("n" in workload and result["body_text"]
            != simplex_text(workload["n"], workload["d"])):
        problems.append("the body is not the expected simplex")
    if ("generation_degree" in workload
            and result["generation_degree"] != workload["generation_degree"]):
        problems.append(f"generation degree {result['generation_degree']}")
    for name, digest in workload.get("sha256", {}).items():
        if result["sha256"][name] != digest:
            problems.append(f"{name} digest {result['sha256'][name]}")
    return problems


class EcOracle:
    """d*E(F_p) for each degree, computed once, outside any timed region."""

    def __init__(self, workload: dict):
        self.curve = ecgroup.Curve(workload["p"], workload["a"],
                                   workload["b"])
        self.points = self.curve.points()
        self.degrees = workload["degrees"]
        self.images = {d: {self.curve.mul(d, P) for P in self.points}
                       for d in self.degrees}

    def wrong_answers(self, seed: int, skip: int, answers: list) -> int:
        stream = itertools.islice(
            ecgroup.divisors(self.points, self.degrees, seed), skip, None)
        wrong = 0
        for answer, divisor in zip(answers, stream):
            d = len(divisor)
            target = self.curve.total(divisor)
            if answer is None:
                wrong += target in self.images[d]
                continue
            witness = ecgroup.decode(answer)
            wrong += not (self.curve.on_curve(witness)
                          and self.curve.mul(d, witness) == target)
        return wrong


def job_spec(workload: dict, seed: int, index: int) -> dict:
    """The index-th job of a run; sweep jobs take consecutive chunks of the
    seed's divisor stream."""
    if workload["family"] == "okounkov":
        return {key: workload[key] for key in ("family", "case", "kind", "M")}
    return {key: workload[key]
            for key in ("family", "p", "a", "b", "degrees")} | {
                "seed": seed, "skip": index * CHUNK_CLASSES,
                "classes": CHUNK_CLASSES}


def checked(workload: dict, spec: dict, result: dict | None,
            oracle: EcOracle | None) -> tuple[int, int]:
    """(attempted, failed) for one job: Okounkov jobs count one each, the
    sweep counts divisor classes."""
    if oracle is None:
        problems = okounkov_problems(workload, result)
        for problem in problems:
            print(f"job failed: {problem}", file=sys.stderr)
        return 1, int(bool(problems))
    answers = [] if result is None else result["answers"]
    wrong = (oracle.wrong_answers(spec["seed"], spec["skip"], answers)
             + spec["classes"] - len(answers))
    if wrong:
        print(f"{wrong} wrong or missing single-point answers",
              file=sys.stderr)
    return spec["classes"], wrong


def check_all(workload: dict, jobs: list) -> tuple[int, int]:
    oracle = EcOracle(workload) if workload["family"] == "ec" else None
    attempted = failed = 0
    for spec, result in jobs:
        a, f = checked(workload, spec, result, oracle)
        attempted += a
        failed += f
    return attempted, failed


# -- metrics ------------------------------------------------------------------


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def in_ref_units(result: dict) -> list[float]:
    """A job's time, or each of its class times, over its reference time."""
    times = result.get("class_s", [result["job_s"]])
    return [t / result["ref_s"] for t in times]


def end_to_end(runner: Runner, workload: dict, seed: int, seconds: int
               ) -> tuple[int, int, dict]:
    jobs = []
    last = 0.0
    # start no job that the previous one says would end past the window
    while not jobs or runner.elapsed() + last <= seconds:
        before = runner.elapsed()
        spec = job_spec(workload, seed, len(jobs))
        jobs.append((spec, runner.job(spec)))
        # spread the set-up samples over the run, which the host's drift
        # would otherwise bias
        if len(runner.setup_samples) < SETUP_SAMPLES:
            runner.spawn(dict(spec, setup_only=True))
        last = runner.elapsed() - before
    runner.top_up_setup(jobs[0][0])
    attempted, failed = check_all(workload, jobs)
    done = [result for _spec, result in jobs if result is not None]
    if not done:
        raise SystemExit("no job finished")
    metrics = {
        "job_median_ref": statistics.median(
            t for result in done for t in in_ref_units(result)),
        "setup_s": statistics.median(runner.setup_samples),
        "peak_rss_mb": max(result["maxrss_kb"] for result in done) / 1024,
    }
    return attempted, failed, metrics


def per_layer(runner: Runner, workload: dict, seed: int, seconds: int
              ) -> tuple[int, int, dict]:
    """Untraced and traced jobs on the same input (the first job of a
    run); the traced jobs' counts must agree exactly, and their times are
    reported as medians.  The sweep's p90 class time comes from its
    untraced jobs."""
    spec = job_spec(workload, seed, 0)
    plain, traced = [], []

    def run(trace: bool) -> None:
        job = dict(spec, trace=trace)
        (traced if trace else plain).append((job, runner.job(job)))

    # one untraced and two traced jobs at least, then pairs while they fit
    run(False)
    run(True)
    pair = runner.elapsed()
    run(True)
    while runner.elapsed() + pair <= seconds:
        run(False)
        run(True)
    attempted, failed = check_all(workload, plain + traced)
    plain = [result for _job, result in plain if result is not None]
    traced = [result for _job, result in traced if result is not None]
    if not plain or not traced:
        raise SystemExit("no job finished")
    metrics = {}
    for name in traced[0]["layers"]:
        values = [result["layers"][name] for result in traced]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                print(f"nondeterminism: {name} reads {values} in traced "
                      "jobs on the same input", file=sys.stderr)
                failed += 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["elliptic.class_p90_s"] = (
        p90([t for result in plain for t in result["class_s"]])
        if workload["family"] == "ec" else 0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(in_ref_units(result)) for result in traced)
        / statistics.median(sum(in_ref_units(result)) for result in plain)
        - 1)
    return attempted, failed, metrics


# -- entry points ---------------------------------------------------------------


def run_workload(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics = measure(Runner(), workload, args.seed,
                                         args.seconds)
    if set(metrics) != set(units):
        raise SystemExit("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def run_single_job(text: str) -> int:
    try:
        case, kind, level = text.split(":")
        spec = {"family": "okounkov", "case": case, "kind": kind,
                "M": int(level)}
    except ValueError:
        raise SystemExit("--job takes CASE:KIND:M, for example "
                         "quadric_surface:complete:7")
    runner = Runner()
    plain = runner.job(spec)
    traced = runner.job(dict(spec, trace=True))
    if plain is None or traced is None:
        raise SystemExit("the job failed")
    problems = okounkov_problems({}, plain) + okounkov_problems({}, traced)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{text}: job {plain['job_s']:.3f} s untraced, "
          f"{traced['job_s']:.3f} s traced")
    for name, value in plain["steps"].items():
        print(f"  {name:<32}{value:>12.4f}")
    for name, value in traced["layers"].items():
        print(f"  {name:<32}{value:>12.4f}" if isinstance(value, float)
              else f"  {name:<32}{value:>12}")
    print(json.dumps({"job": text, "job_s": plain["job_s"],
                      "steps": plain["steps"], "body_equal": plain["body_equal"],
                      "vertex_criterion": plain["vertex_criterion"],
                      "generation_degree": plain["generation_degree"],
                      "sha256": plain["sha256"], "layers": traced["layers"]}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--job", metavar="CASE:KIND:M")
    args = parser.parse_args()
    if (args.workload is None) == (args.job is None):
        parser.error("give exactly one of --workload and --job")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be from 1 to 60")
    if not (ROOT / "src" / "okbody" / "__init__.py").is_file():
        print(f"no okbody sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.job is not None:
        return run_single_job(args.job)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
