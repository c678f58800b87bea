"""Benchmark of oppograph's certified recognition, stdlib only.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client in one process sends requests in a closed loop: the next
request starts when the previous one has finished.  A request is one
decision -- `parse_graph6`, the recognizer of one class with the default
flip cap, `json.dumps(verdict_payload(...), sort_keys=True)`, which is
what `oppograph recognize --output json` does -- followed by its
certification, `verify.check_verdict` on the verdict.

The run makes one full pass over the corpus, then repeats requests for
`--seconds`.  Every timed sample is scaled to one host speed, measured
next to it by reference.py; a request's latency is the median of its
scaled samples, and percentiles (Harrell-Davis) are taken over the
corpus.  With `--trace 1` each request
runs once untraced and once traced, and the run prints per-layer metrics
instead of end-to-end ones.  bench/README.md describes the workloads and
metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import HostSpeed
from tracing import PACKAGE, TRACED, Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_REPS = 7
# member orientations and flip exhaustions are checked through an O(n^4)
# 4-subset scan; larger graphs are counted as uncertified instead
CERTIFY_MAX_N = 64
# a call shorter than this is timed as the mean of back-to-back calls, so
# that microsecond checks are not lost in timer and cache noise
MIN_SAMPLE_S = 0.002

RECOGNIZERS = {
    "opposition": "recognize_opposition",
    "generalized-opposition": "recognize_generalized_opposition",
    "coalition": "recognize_coalition",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "decide_per_s": "1/s",
    "decide_p50_ms": "ms",
    "decide_p90_ms": "ms",
    "certify_p50_ms": "ms",
    "certify_p90_ms": "ms",
    "payload_kb": "KiB",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

STAT_COUNTERS = {
    "p4_count": "p4.p4_count",
    "aux_vertices": "constraints.aux_vertices",
    "aux_components": "constraints.aux_components",
    "flips_tried": "recognize.flips_tried",
}
ROUTES = (
    "aux-odd-walk",
    "aux-bipartite",
    "dh-ptolemaic",
    "gem-house-free",
    "flip-search",
    "dh-transitive",
    "gem-house-hole-free",
    "flip-search-extension",
)
# (name, low, high) inclusive; decide medians per bucket show growth by size
SIZE_BUCKETS = (
    ("size.n0-63", 0, 63),
    ("size.n64-127", 64, 127),
    ("size.n128-255", 128, 255),
    ("size.n256-1023", 256, 1023),
    ("size.n1024-up", 1024, math.inf),
)
FLIP_BUCKETS = (
    ("flips.1-63", 1, 63),
    ("flips.64-255", 64, 255),
    ("flips.256-1023", 256, 1023),
    ("flips.1024-up", 1024, math.inf),
)


def per_layer_units() -> dict[str, str]:
    """Every metric printed by a traced run, with its unit."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in STAT_COUNTERS.values():
        units[name] = "count"
    for route in ROUTES:
        units[f"recognize.route.{route}"] = "count"
    units["verify.certified"] = "count"
    units["verify.uncertified"] = "count"
    for name, _, _ in SIZE_BUCKETS + FLIP_BUCKETS:
        units[f"{name}.decide_p50_ms"] = "ms"
    units["trace.untraced_s"] = "s"
    units["trace.traced_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import oppograph afresh from the checkout's src/ (never an installed copy)."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    og = importlib.import_module(PACKAGE)
    for sub in ("generate", "verify", "recognize", "graphs"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    if Path(og.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SetupError(f"imported {og.__file__}, not the checkout's copy")
    return og


def set_up(workload: str, seed: int, speed: HostSpeed):
    """Time import plus corpus building SETUP_REPS times; keep the last.

    Returns the package, the corpus, the (start, end) of every repeat and
    whether all repeats built the same corpus.
    """
    spans, corpora = [], []
    for _ in range(SETUP_REPS):
        speed.probe(spans[-1][1] - spans[-1][0] if spans else 0.0)
        t0 = perf_counter()
        og = import_package()
        corpora.append(WORKLOADS[workload](og, seed))
        spans.append((t0, perf_counter()))
    speed.probe(spans[-1][1] - spans[-1][0])
    same = all(c == corpora[0] for c in corpora)
    return og, corpora[-1], spans, same


# ---------------------------------------------------------------------------
# requests


@dataclass
class Result:
    """One corpus item: the outcome of its first execution, the timings of all."""

    # wall-clock seconds per call of each sample, and the sample's (start, end)
    decide_s: list[float] = field(default_factory=list)
    certify_s: list[float] = field(default_factory=list)
    decide_spans: list[tuple[float, float]] = field(default_factory=list)
    certify_spans: list[tuple[float, float]] = field(default_factory=list)
    # calls per timed sample, fixed after the first execution (see `_loops`)
    decide_loops: int = 1
    certify_loops: int = 1
    digest: str = ""
    payload_bytes: int = 0
    error: str | None = None  # the decision raised
    wrong: str | None = None  # rejected certificate, contradicted label, drift
    certified: bool = False
    decision: str | None = None
    method: str | None = None
    stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


def _needs_brute_force(og, v) -> bool:
    return v.decision == "member" or isinstance(v.certificate, og.recognize.FlipExhaustion)


def _loops(seconds: float) -> int:
    """Back-to-back calls per sample so that one sample lasts MIN_SAMPLE_S."""
    return max(1, math.ceil(MIN_SAMPLE_S / max(seconds, 1e-9)))


def decide(og, item):
    g = og.graphs.parse_graph6(item.graph6)
    v = getattr(og.recognize, RECOGNIZERS[item.graph_class])(g)
    return g, v, json.dumps(og.recognize.verdict_payload(v, g), sort_keys=True)


def run_request(og, item, res: Result, tracer: Tracer | None = None) -> None:
    """One decision and its certification, folded into the item's Result.

    The first execution sets the outcome, runs the output checks and fixes
    how many back-to-back calls later samples time; a repeat only adds
    timings (the mean over its calls) and must reproduce the first payload.
    """
    first = not res.decide_s
    payload = error = None
    if tracer:
        tracer.begin_request("decide")
    t0 = perf_counter()
    try:
        for _ in range(res.decide_loops):
            g, v, payload = decide(og, item)
    except Exception as exc:  # a failing decision is recorded; the run goes on
        error = f"{type(exc).__name__}: {str(exc)[:80]}"
    t1 = perf_counter()
    res.decide_s.append((t1 - t0) / res.decide_loops)
    res.decide_spans.append((t0, t1))
    if tracer:
        tracer.end_request()

    checked = None
    if error is None and (g.n <= CERTIFY_MAX_N or not _needs_brute_force(og, v)):
        if tracer:
            tracer.begin_request("certify")
        t0 = perf_counter()
        try:
            for _ in range(res.certify_loops):
                checked = og.verify.check_verdict(g, v)
        except Exception as exc:  # a crashing checker rejects the certificate
            checked = (False, f"check_verdict raised {type(exc).__name__}: {exc}")
        t1 = perf_counter()
        res.certify_s.append((t1 - t0) / res.certify_loops)
        res.certify_spans.append((t0, t1))
        if tracer:
            tracer.end_request()

    digest = hashlib.sha256((payload or f"error {error}").encode()).hexdigest()
    if not first:
        if digest != res.digest and res.wrong is None:
            res.wrong = "payload differs between repeats"
        return
    res.digest = digest
    res.error = error
    if error is not None:
        return
    res.decide_loops = _loops(res.decide_s[0])
    if res.certify_s:
        res.certify_loops = _loops(res.certify_s[0])
    res.payload_bytes = len(payload.encode())
    res.decision, res.method, res.stats = v.decision, v.method, v.stats
    res.certified = checked is not None
    if checked is not None and not checked[0]:
        res.wrong = f"certificate rejected: {checked[1]}"
    elif item.expected and v.decision not in (item.expected, "undecided"):
        res.wrong = f"decided {v.decision}, constructed as {item.expected}"


def _expected_s(res: Result) -> float:
    """How long the next execution of a request should take."""
    if not res.decide_s:
        return 0.0
    expected = res.decide_s[0] * res.decide_loops
    return expected + (res.certify_s[0] * res.certify_loops if res.certify_s else 0.0)


def measure(og, corpus, seconds: float, speed: HostSpeed) -> tuple[list[Result], int]:
    """Closed loop: one full pass, then repeats for `seconds`.

    The host's speed is probed before every request.  A repeat runs only
    if it is expected to end before the deadline.  A request that failed
    is not repeated.
    """
    results = [Result() for _ in corpus]
    for item, res in zip(corpus, results):
        speed.probe()
        run_request(og, item, res)
    deadline = perf_counter() + seconds
    passes = 1
    while True:
        ran = 0
        for item, res in zip(corpus, results):
            expected = _expected_s(res)
            if res.failed or perf_counter() + expected > deadline:
                continue
            ran += 1
            speed.probe(expected)
            run_request(og, item, res)
        if not ran:
            speed.probe()
            return results, passes
        passes += 1


def measure_traced(og, corpus, tracer: Tracer, speed: HostSpeed) -> tuple[list[Result], list[Result]]:
    """Each request once untraced, then once traced, back to back.

    Pairing the two, and probing the host's speed before each, keeps the
    host's speed drift out of the overhead.  The wrappers are installed
    only around the traced request.
    """
    untraced = [Result() for _ in corpus]
    traced = [Result() for _ in corpus]
    for item, u, t in zip(corpus, untraced, traced):
        speed.probe()
        run_request(og, item, u)
        speed.probe(_expected_s(u))
        with tracer:
            run_request(og, item, t, tracer)
        if t.digest != u.digest and t.wrong is None:
            t.wrong = u.wrong = "payload differs when traced"
    speed.probe()
    return untraced, traced


# ---------------------------------------------------------------------------
# metrics


def tail_quantile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it, p90 at most."""
    if count >= 100:
        return 0.9
    return max((count - 10) / count, 0.5) if count else 0.5


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of a non-empty sequence.

    A weighted mean of all order statistics, the i-th (of n) weighted by
    the Beta((n+1)q, (n+1)(1-q)) mass on ((i-1)/n, i/n].  Unlike a single
    order statistic it does not jump when one request near the quantile
    gets faster or slower.
    """
    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64  # midpoint rule per order statistic
    h = 1 / (n * steps)
    mass = [0.0] * n
    for j in range(n * steps):
        x = (j + 0.5) * h
        mass[j // steps] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    total = sum(mass)
    return sum(w * v for w, v in zip(mass, s)) / total


def item_latency(samples, spans, speed: HostSpeed) -> float:
    """Median over samples of the time per call, scaled to the reference host speed."""
    return statistics.median(s * speed.scale(a, b) for s, (a, b) in zip(samples, spans))


def end_to_end(results, setup_spans, speed: HostSpeed) -> tuple[dict, list[str]]:
    decide = [item_latency(r.decide_s, r.decide_spans, speed) for r in results]
    certify = [item_latency(r.certify_s, r.certify_spans, speed) for r in results if r.certify_s]
    ok = [d for d, r in zip(decide, results) if not r.failed]
    setup_times = [(b - a) * speed.scale(a, b) for a, b in setup_spans]
    qd, qc = tail_quantile(len(decide)), tail_quantile(len(certify))
    values = {
        "setup_s": statistics.median(setup_times),
        "decide_per_s": len(ok) / sum(ok),
        "decide_p50_ms": 1e3 * quantile(decide, 0.5),
        "decide_p90_ms": 1e3 * quantile(decide, qd),
        "certify_p50_ms": 1e3 * quantile(certify, 0.5),
        "certify_p90_ms": 1e3 * quantile(certify, qc),
        "payload_kb": sum(r.payload_bytes for r in results) / 1024,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": len(ok) / len(results),
    }
    notes = [
        f"decide_p90_ms is p{100 * qd:.0f} of {len(decide)} decisions",
        f"certify_p90_ms is p{100 * qc:.0f} of {len(certify)} certifications",
        f"setup_s is the median of {SETUP_REPS}: " + " ".join(f"{t:.3f}" for t in setup_times),
    ]
    wall_decide = [statistics.median(r.decide_s) for r in results]
    wall_certify = [statistics.median(r.certify_s) for r in results if r.certify_s]
    notes.append(
        f"unscaled wall clock: setup_s {statistics.median(b - a for a, b in setup_spans):.4f}, "
        f"decide_p50_ms {1e3 * quantile(wall_decide, 0.5):.4f}, decide_p90_ms {1e3 * quantile(wall_decide, qd):.4f}, "
        f"certify_p50_ms {1e3 * quantile(wall_certify, 0.5):.4f}, certify_p90_ms {1e3 * quantile(wall_certify, qc):.4f}"
    )
    return values, notes


def _bucket_medians(results, corpus, buckets, key) -> dict[str, tuple[float, int]]:
    """Median decide latency (ms) and decision count per bucket; 0.0 when empty."""
    out = {}
    for name, lo, hi in buckets:
        lat = [r.decide_s[0] for r, item in zip(results, corpus) if lo <= (key(r, item) or 0) <= hi]
        out[f"{name}.decide_p50_ms"] = (1e3 * statistics.median(lat) if lat else 0.0, len(lat))
    return out


def _scaled_total(results, speed: HostSpeed) -> float:
    return sum(
        s * speed.scale(a, b)
        for r in results
        for s, (a, b) in zip(r.decide_s + r.certify_s, r.decide_spans + r.certify_spans)
    )


def per_layer(corpus, untraced, traced, setup_tracer: Tracer, tracer: Tracer, speed: HostSpeed) -> tuple[dict, list[str]]:
    values = tracer.metrics()
    for name, v in setup_tracer.metrics().items():
        if name.startswith("generate."):
            values[name] = v
    for key, name in STAT_COUNTERS.items():
        values[name] = sum(r.stats.get(key) or 0 for r in untraced)
    for route in ROUTES:
        values[f"recognize.route.{route}"] = sum(r.method == route for r in untraced)
    values["verify.certified"] = sum(r.certified for r in untraced)
    values["verify.uncertified"] = sum(r.decision is not None and not r.certified for r in untraced)
    buckets = _bucket_medians(untraced, corpus, SIZE_BUCKETS, lambda r, item: item.n)
    buckets.update(_bucket_medians(untraced, corpus, FLIP_BUCKETS, lambda r, item: r.stats.get("flips_tried")))
    untraced_s, traced_s = _scaled_total(untraced, speed), _scaled_total(traced, speed)
    values.update(
        {
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
    )
    notes = [f"{name} = {ms:.3f} ms over {count} decisions" for name, (ms, count) in buckets.items() if count]
    values.update({name: ms for name, (ms, _) in buckets.items()})
    return values, notes


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    speed = HostSpeed()
    try:
        og, corpus, setup_spans, same_corpus = set_up(args.workload, args.seed, speed)
    except (SetupError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        units = per_layer_units()
        setup_tracer = Tracer()
        with setup_tracer:
            setup_tracer.begin_request("setup")
            WORKLOADS[args.workload](og, args.seed)
            setup_tracer.end_request()
        tracer = Tracer()
        results, traced = measure_traced(og, corpus, tracer, speed)
        values, notes = per_layer(corpus, results, traced, setup_tracer, tracer, speed)
        passes = 1
    else:
        units = END_TO_END_UNITS
        results, passes = measure(og, corpus, args.seconds, speed)
        values, notes = end_to_end(results, setup_spans, speed)
    notes.append(speed.summary())

    failed = [(item, r) for item, r in zip(corpus, results) if r.failed]
    correct = same_corpus and not any(r.wrong for _, r in failed)
    digest = hashlib.sha256("\n".join(r.digest for r in results).encode()).hexdigest()

    print(f"workload {args.workload} seed {args.seed}: {len(corpus)} decisions, {passes} pass(es), trace {args.trace}")
    print(f"payload sha256 {digest}")
    for item, r in failed:
        print(f"failed: {item.family} n={item.n} {item.graph_class}: {r.error or r.wrong}")
    if not same_corpus:
        print("set-up repeats built different corpora")
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(corpus),
                "failed": len(failed),
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
