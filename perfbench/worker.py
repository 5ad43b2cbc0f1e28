"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

The process imports okbody from the checkout's src/, sets up (make_case and
verify_flag, or the curve and its point enumeration), then runs the job and
prints one JSON line with its timings and outputs.  The parent process
checks the outputs.  A fresh process per job keeps every okbody cache cold,
as it is for a command-line user.

With family "reference" the process only times reference_s() and prints
it; the parent runs one before the first job and one after each job, and
reports job times in units of the mean of the two around each job.

SPEC_JSON keys: family ("okounkov", "ec" or "reference"); case, kind and M
for okounkov; p, a, b, degrees, seed, skip and classes for ec (classes
number skip to skip + classes - 1 of the seed's stream); trace (wrap
okbody's layers, see layers.py); setup_only (exit after set-up); spawned
(the parent's CLOCK_MONOTONIC reading just before it started this process).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import ecgroup
from layers import Tracer, layer_metrics

SRC = Path(__file__).resolve().parents[1] / "src"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s() -> float:
    """Wall time of a fixed computation shaped like okbody's inner loops:
    Fraction arithmetic on values held in a dict keyed by int tuples.  It
    does not use okbody, so no change to okbody moves it.  On a shared host
    whose speed for allocation-heavy code drifts by tens of percent from
    minute to minute, a job's time over this one is several times steadier
    than its wall time."""
    table: dict[tuple[int, int], Fraction] = {}
    start = time.perf_counter()
    for i in range(1, 90000):
        key = (i % 5000, i % 7)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 97 + 1,
                                                            i % 13 + 1)
    return time.perf_counter() - start


def import_okbody() -> None:
    sys.path.insert(0, str(SRC))
    import okbody
    if not Path(okbody.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"okbody imported from {okbody.__file__}, "
                         f"not from {SRC}")


def okounkov_setup(spec: dict, tracer: Tracer | None) -> dict:
    from okbody import varieties
    case = varieties.make_case(spec["case"])
    report = varieties.verify_flag(case)
    return {"case": case, "flag_verified": report.passed}


def okounkov_job(spec: dict, state: dict) -> dict:
    """Semigroup, body, comparison with the expected simplex, vertex
    criterion, generation degree, normal fan and canonical text, in the
    order a command-line user gets them."""
    from okbody import convex, okounkov
    case, kind, max_level = state["case"], spec["kind"], spec["M"]
    stamps = [time.perf_counter()]
    sg = okounkov.semigroup(case, kind, max_level)
    stamps.append(time.perf_counter())
    body = okounkov.body_estimate(sg)
    stamps.append(time.perf_counter())
    expected = case.expected_body()
    body_equal = convex.polytope_equal(body, expected)
    certified = okounkov.vertex_criterion(expected, sg.level(1))
    degree = okounkov.generation_degree(sg, kmax=max_level)
    stamps.append(time.perf_counter())
    rays = convex.normal_fan_rays(body)
    stamps.append(time.perf_counter())
    texts = {
        "semigroup": okounkov.semigroup_to_json(sg),
        "body": convex.polytope_to_json(body),
        "fan": json.dumps({"dim": body.dim, "rays": [list(r) for r in rays]},
                          indent=2) + "\n",
    }
    stamps.append(time.perf_counter())
    steps = dict(zip(("semigroup_s", "body_s", "certificate_s", "fan_s",
                      "serialize_s"),
                     (b - a for a, b in zip(stamps, stamps[1:]))))
    return {
        "job_s": stamps[-1] - stamps[0],
        "steps": steps,
        "flag_verified": state["flag_verified"],
        "body_equal": body_equal,
        "vertex_criterion": certified,
        "generation_degree": degree,
        "body_text": texts["body"],
        "sha256": {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in texts.items()},
    }


def ec_setup(spec: dict, tracer: Tracer | None) -> dict:
    from okbody import elliptic
    curve = elliptic.EllipticCurveFp(spec["p"], spec["a"], spec["b"])
    if tracer is not None:
        tracer.enter("points")
    curve.points
    if tracer is not None:
        tracer.exit()
    return {"curve": curve}


def ec_job(spec: dict, state: dict) -> dict:
    """Decide classes skip .. skip + classes - 1 of the seed's divisor
    stream, one at a time."""
    from okbody import elliptic
    curve = state["curve"]
    oracle = ecgroup.Curve(spec["p"], spec["a"], spec["b"])
    stream = itertools.islice(
        ecgroup.divisors(oracle.points(), spec["degrees"], spec["seed"]),
        spec["skip"], spec["skip"] + spec["classes"])
    class_s: list[float] = []
    answers = []
    for divisor in stream:
        points = [elliptic.INFINITY if P is None else P for P in divisor]
        start = time.perf_counter()
        witness = elliptic.single_point_member(curve, points)
        class_s.append(time.perf_counter() - start)
        if witness is None:
            answers.append(None)
        else:
            answers.append(ecgroup.encode(
                None if witness is elliptic.INFINITY else witness))
    return {"job_s": sum(class_s), "class_s": class_s, "answers": answers}


FAMILIES = {"okounkov": (okounkov_setup, okounkov_job),
            "ec": (ec_setup, ec_job)}


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["family"] == "reference":
        print(json.dumps({"ref_s": reference_s()}), flush=True)
        return
    setup, job = FAMILIES[spec["family"]]
    import_okbody()
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    state = setup(spec, tracer)
    result = {"setup_s": monotonic() - spec["spawned"]}
    if not spec.get("setup_only"):
        if tracer is not None:
            setup_spans = copy.copy(tracer)
            tracer.reset()
        result.update(job(spec, state))
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, setup_spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
