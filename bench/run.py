"""Run one braidact benchmark workload and print its metrics.

    python3 bench/run.py --workload fingerprints --seed 1 --seconds 20 --trace 0

Run from the repository root.  With --trace 0 the workload's rounds run
untraced and the end-to-end metrics are printed; with --trace 1 half the
time goes to untraced rounds and half to rounds under the timing wrappers
of bench/tracing.py, and the per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A results file (and, when traced, a spans file) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, OperationFailed  # noqa: E402

SETUP_REPEATS = 9
# The probe's time when nothing else slows it, on a 2-core Intel Xeon with
# Python 3.11.7.  Every timing is scaled to the host speed at which
# the probe takes this long; see `quiet`.
PROBE_QUIET_S = 60e-6


# -- host speed ----------------------------------------------------------------


def probe() -> float:
    """Time a fixed stretch of pure-Python work (about 60 us when quiet)."""
    t0 = time.perf_counter()
    table = {}
    total = 0
    for i in range(400):
        item = (i, i & 7, -i)
        table[item[1]] = item
        total += item[2] * item[0] % 11
    return time.perf_counter() - t0


def quiet(seconds: float, before: float, after: float) -> float:
    """A timing scaled to the host's quiet speed.

    On a host whose cores are shared with other tenants, the speed of a
    core switches between levels up to twice apart, every few milliseconds
    to seconds.  The probe timed just before and just after a piece of work
    tells the speed at that moment; the work's time is scaled by the
    probe's quiet time over the mean of the two probes.
    """
    return seconds * PROBE_QUIET_S * 2 / (before + after)


# -- set-up --------------------------------------------------------------------


def fresh_import():
    """Import braidact from src/ anew, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "braidact" or m.startswith("braidact.")]:
        del sys.modules[name]
    ba = importlib.import_module("braidact")
    importlib.import_module("braidact.cli")
    if not Path(ba.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"braidact was imported from {ba.__file__}, not from {SRC}")
    return ba


def setup(workload: str, seed: int):
    """Import the package, build the group tables and the seeded inputs.

    Returns the package, the plan and the seconds it took (scaled to the
    quiet host speed).
    """
    before = probe()
    t0 = time.perf_counter()
    ba = fresh_import()
    plan = WORKLOADS[workload](ba, random.Random(seed))
    seconds = time.perf_counter() - t0
    return ba, plan, quiet(seconds, before, probe())


# -- rounds --------------------------------------------------------------------


def run_round(plan, tracer: Tracer | None, label: str) -> dict:
    """Run every operation once; refused or failed operations are counted.

    The probe runs before the first operation and after each one, so every
    latency is scaled by the probes on either side of it.
    """
    results, latencies, failures = [], [], []
    start = time.perf_counter()
    before = probe()
    probes = [before]
    for fn, args in plan.ops:
        t0 = time.perf_counter()
        try:
            result = tracer.op(label, fn, *args) if tracer else fn(*args)
        except (ValueError, OperationFailed) as exc:
            result = None
            failures.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        after = probe()
        probes.append(after)
        latencies.append(quiet(seconds, before, after))
        before = after
        results.append(result)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "latencies": latencies,
        "probes": probes,
        "results": results,
        "failures": failures,
        # Only the CLI operation returns text: what it printed.
        "output_bytes": sum(len(r.encode()) for r in results if isinstance(r, str)),
    }


def run_rounds(plan, seconds: float, tracer: Tracer | None, label: str, between=None) -> list[dict]:
    """Whole rounds until the budget is spent (at least one).

    A further round starts only if, at the mean pace so far, it would end
    within half a round of the budget.  Outputs are checked after each
    round, outside the timed region and with the tracer removed.  Before
    each further round, `between` (if given) is called with the share of
    the budget spent so far.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        if rounds and between:
            between((time.perf_counter() - start) / seconds)
        if tracer:
            tracer.install()
        try:
            rnd = run_round(plan, tracer, label)
        finally:
            if tracer:
                tracer.uninstall()
        rnd["problems"] = plan.check(rnd.pop("results"))
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds


# -- metrics -------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_latencies(rounds) -> list[float]:
    """Each operation's median (scaled) latency over the run's rounds.

    Every round runs the same operations in the same order.
    """
    return [statistics.median(times) for times in zip(*(r["latencies"] for r in rounds))]


def end_to_end(setup_times, rounds) -> dict:
    ops = op_latencies(rounds)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(ops), "s"),
        "op_p50_ms": (1000 * statistics.median(ops), "ms"),
        "op_p95_ms": (1000 * percentile(ops, 0.95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, setup_tracer: Tracer, traced, untraced) -> dict:
    """Per-round layer metrics from the traced rounds; groups from set-up."""
    n = len(traced)
    selfs = tracer.module_self_s()
    c = tracer.counters

    def calls(qual):
        return (tracer.calls(qual) / n, "count")

    def secs(qual):
        return (tracer.seconds(qual) / n, "s")

    bases = c["classify.bases"] / n
    quads = bases * bases
    catalog_in_outgoing = c["outgoing_cores.catalog"]
    traced_wall = sum(op_latencies(traced))
    m = {f"{mod}.self_s": (selfs[mod] / n, "s") for mod in selfs if mod != "groups"}
    m.update(
        {
            "words.substitute.calls": calls("words.Word.substitute"),
            "words.substitute.s": secs("words.Word.substitute"),
            "words.substitute.letters_out": (c["words.substitute.letters_out"] / n, "count"),
            "autf2.is_basis.calls": calls("autf2.is_basis"),
            "autf2.is_basis.s": secs("autf2.is_basis"),
            "autf2.inverse.calls": calls("autf2.AutF2.inverse"),
            "autf2.inverse.s": secs("autf2.AutF2.inverse"),
            "localrep.classify_search.s": secs("localrep.classify_search"),
            "localrep.classify.quads_examined": (quads, "count"),
            "localrep.classify.useful_ratio": (
                c["classify.canonicalize"] / n / quads if quads else 0.0,
                "ratio",
            ),
            "localrep.check_quad.calls": calls("localrep.check_quad"),
            "localrep.check_quad.s": secs("localrep.check_quad"),
            "localrep.canonicalize.calls": calls("localrep.canonicalize"),
            "localrep.canonicalize.s": secs("localrep.canonicalize"),
            "localrep.catalog.calls": calls("localrep.catalog"),
            "localrep.catalog.s": secs("localrep.catalog"),
            "localrep.outgoing_cores.calls": calls("localrep.outgoing_cores"),
            "localrep.outgoing_cores.s": secs("localrep.outgoing_cores"),
            "localrep.outgoing_cores.useful_ratio": (
                c["outgoing_cores.returned"] / catalog_in_outgoing if catalog_in_outgoing else 0.0,
                "ratio",
            ),
            "localrep.identify_quad.calls": calls("localrep.identify_quad"),
            "localrep.identify_quad.s": secs("localrep.identify_quad"),
            "braid.endo_of_braid.calls": calls("braid.endo_of_braid"),
            "braid.endo_of_braid.s": secs("braid.endo_of_braid"),
            "braid.local_endo.calls": calls("braid.local_endo"),
            "braid.local_endo.s": secs("braid.local_endo"),
            "braid.image_letters": (c["braid.image_letters"] / n, "count"),
            "braid.verify_braid_relations.s": secs("braid.verify_braid_relations"),
            "invariant.presentation.s": secs("invariant.presentation"),
            "invariant.relator_letters": (c["invariant.relator_letters"] / n, "count"),
            "invariant.tietze_simplify.s": secs("invariant.tietze_simplify"),
            "invariant.tietze.gens_out": (c["invariant.tietze.gens_out"] / n, "count"),
            "invariant.tietze.letters_out": (c["invariant.tietze.letters_out"] / n, "count"),
            "invariant.count_homs.calls": calls("invariant.count_homs"),
            "invariant.count_homs.s": secs("invariant.count_homs"),
            "invariant.count_homs.tuples": (c["invariant.count_homs.tuples"] / n, "count"),
            "invariant.abelianization.s": secs("invariant.abelianization"),
            "snf.smith_normal_form.calls": calls("snf.smith_normal_form"),
            "snf.smith_normal_form.s": secs("snf.smith_normal_form"),
            "groups.self_s": (setup_tracer.module_self_s()["groups"], "s"),
            "groups.builtin_group.s": (setup_tracer.seconds("groups.builtin_group"), "s"),
            "cli.main.s": secs("cli.main"),
            "cli.output_bytes": (traced[0]["output_bytes"], "bytes"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - sum(op_latencies(untraced)), "s"),
        }
    )
    return m


# -- run metadata --------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD's commit from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidact" / "__init__.py").is_file():
        print(f"error: no braidact sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ba, plan, first = setup(args.workload, args.seed)
    setup_times = [first]
    label = f"op:{args.workload}"

    def more_setups(progress: float) -> None:
        # Set-ups spread over the run rather than back to back, so their
        # median does not hang on one moment of a host whose speed drifts.
        # The package and plan of the first set-up are the ones measured.
        while len(setup_times) < min(SETUP_REPEATS, 1 + progress * (SETUP_REPEATS - 1)):
            setup_times.append(setup(args.workload, args.seed)[2])

    if args.trace:
        t0 = time.perf_counter()
        untraced = run_rounds(plan, args.seconds / 2, None, label)
        remaining = args.seconds - (time.perf_counter() - t0)
        setup_tracer = Tracer(ba)
        setup_tracer.install()
        try:
            WORKLOADS[args.workload](ba, random.Random(args.seed))
        finally:
            setup_tracer.uninstall()
        tracer = Tracer(ba)
        traced = run_rounds(plan, remaining, tracer, label)
        rounds = untraced + traced
    else:
        rounds = run_rounds(plan, args.seconds, None, label, more_setups)
        more_setups(1.0)

    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    if args.trace:
        metrics = per_layer(tracer, setup_tracer, traced, untraced)
    else:
        metrics = end_to_end(setup_times, rounds)

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "plan": plan.info,
        "setup_s": {"runs": setup_times, "median": statistics.median(setup_times)},
        # Unscaled, probes included: what the host gave each round.
        "round_s": {
            "runs": [r["wall_s"] for r in rounds],
            "median": statistics.median(r["wall_s"] for r in rounds),
        },
        "probe_s": {
            "quiet": PROBE_QUIET_S,
            "min": min(p for r in rounds for p in r["probes"]),
            "median": statistics.median(p for r in rounds for p in r["probes"]),
        },
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(f for r in rounds for f in r["failures"])),
        "problems": problems[:50],
        "metrics": reported,
    }
    if args.trace:
        t0 = min((s[3] for s in tracer.spans), default=0.0)
        spans = [[i, p, name, s - t0, e - t0] for i, p, name, s, e in sorted(tracer.spans)]
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s"],
                        "dropped": tracer.spans_dropped, "spans": spans})
        )
        record["calls"] = {
            q: {"calls": c, "s": t, "self_s": s} for q, (c, t, s) in sorted(tracer.stats.items())
        }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted = {attempted}  failed = {failed}")
    for f in record["failures"]:
        print(f"  failed: {f}")
    for p in problems[:10]:
        print(f"  WRONG: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
