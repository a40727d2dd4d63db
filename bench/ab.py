#!/usr/bin/env python3
"""A/B timing of the end-to-end benchmark: a base commit against this checkout.

    bench/ab.py BASE [--workload W]... [--pairs N] [--seconds S] [--first-seed K] [--trace]
    bench/ab.py --self-test

BASE (any commit git names) is exported with `git archive` into a
temporary directory, so nothing is written in the checkout for it. The
checkout is the change side. Both trees build `e2e/e2e.exe` as
`e2e/run.py` does (`dune build --root TREE ./e2e/e2e.exe`, shared dune
cache disabled), and each run starts in its own tree, as `run.py` runs it.

For each workload (default: every workload of BENCHMARK.json) it makes N
pairs of untraced runs, `--trace 0 --seconds S --seed k` with k = K, K+1,
..., one run of each side per pair, alternating which side goes first.
Before any run it prints the environment. Then, per workload and per
end-to-end metric of BENCHMARK.json (name, bound and `better` read from
there), it prints each side's median and quartiles, the pairs the change
won, whether the change's median is worse than the base's by more than
the bound, and whether it is better by more than the base's interquartile
range. Every run's value is printed per pair.

`--trace` runs the traced pass instead (`--trace 1`), which gives the
per-layer metrics. The traced pass drifts between runs more than a
change to one layer moves it, so it compares pair by pair: per
`per_layer` metric of BENCHMARK.json it prints the median of the
per-pair change/base ratios and the pairs the change improved. A pair
whose base value is missing or not positive has no ratio: the server
layers read 0 outside serve-churn, and the ledger's shares and
`trace.ns_per_event` can read below zero on a noisy host.

`--self-test` checks both summaries on canned result lines: no build,
no run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "e2e", "e2e.exe")


# --- the summary --------------------------------------------------------


def parse_result(stdout):
    """The JSON object on the last non-empty line of e2e's stdout, or None."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    return r if isinstance(r, dict) and "metrics" in r else None


def value(result, name):
    """A metric's value in a result (e2e writes {"value": v, "unit": u}), or None."""
    v = result["metrics"].get(name) if result else None
    return v.get("value") if isinstance(v, dict) else v


def quartiles(xs):
    """(q1, median, q3), inclusive method; a single value is all three."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec, pairs):
    """One row per end-to-end metric.

    spec: the `end_to_end` list of BENCHMARK.json.
    pairs: [(seed, base_first, base_result, change_result)], results as
    parse_result returns them (None for a run that gave no result).
    """
    rows = []
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        base, change, wins, both = [], [], 0, 0
        for _, _, b, c in pairs:
            bv, cv = value(b, name), value(c, name)
            if bv is not None:
                base.append(bv)
            if cv is not None:
                change.append(cv)
            if bv is not None and cv is not None:
                both += 1
                if (cv < bv) if lower else (cv > bv):
                    wins += 1
        row = {"name": name, "better": m["better"], "bound": m["bound"], "wins": wins, "pairs": both}
        if base and change:
            bq, cq = quartiles(base), quartiles(change)
            gain = (bq[1] - cq[1]) if lower else (cq[1] - bq[1])
            row.update(
                base=bq,
                change=cq,
                ratio=cq[1] / bq[1] if bq[1] else float("nan"),
                worse_beyond_bound=bq[1] != 0 and -gain / abs(bq[1]) > m["bound"],
                better_beyond_iqr=gain > bq[2] - bq[0],
            )
        rows.append(row)
    return rows


def summarize_trace(spec, pairs):
    """One row per per-layer metric that has a ratio in some pair.

    spec: the `per_layer` list of BENCHMARK.json; pairs as for summarize.
    """
    rows = []
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        ratios, wins = [], 0
        for _, _, b, c in pairs:
            bv, cv = value(b, name), value(c, name)
            if bv is None or cv is None or bv <= 0:
                continue
            ratios.append(cv / bv)
            if (cv < bv) if lower else (cv > bv):
                wins += 1
        if ratios:
            rows.append({"name": name, "better": m["better"], "ratio": statistics.median(ratios),
                         "wins": wins, "pairs": len(ratios)})
    return rows


def render_trace(workload, spec, pairs):
    out = [f"== {workload}: {len(pairs)} traced pairs =="]
    out.append(f"{'metric':<36}{'better':<8}{'median change/base':>19}  {'improved':>9}")
    for r in summarize_trace(spec, pairs):
        out.append(f"{r['name']:<36}{r['better']:<8}{r['ratio']:>19.3f}  "
                   f"{r['wins']:>4}/{r['pairs']:<4}")
    for side, i in (("base", 2), ("change", 3)):
        f, n = failure_share([p[i] for p in pairs])
        out.append(f"{side}: {f} of {n} operations failed")
    return "\n".join(out)


def failure_share(results):
    attempted = sum(r.get("attempted", 0) for r in results if r)
    failed = sum(r.get("failed", 0) for r in results if r)
    missing = sum(1 for r in results if r is None)
    return failed + missing, attempted + missing


def render(workload, spec, pairs):
    out = [f"== {workload}: {len(pairs)} pairs =="]
    out.append(
        f"{'metric':<14}{'better':<8}{'bound':>6}  {'base median [q1, q3]':<37}"
        f"{'change median [q1, q3]':<37}{'ratio':>7}  {'won':>6}  verdict"
    )
    for r in summarize(spec, pairs):
        if "base" not in r:
            out.append(f"{r['name']:<14}{r['better']:<8}  (no values on one side)")
            continue
        b, c = r["base"], r["change"]
        verdict = []
        if r["worse_beyond_bound"]:
            verdict.append("WORSE than base beyond the bound")
        if r["better_beyond_iqr"]:
            verdict.append("better than base by more than its IQR")
        out.append(
            f"{r['name']:<14}{r['better']:<8}{r['bound']:>6.0%}  "
            + f"{b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]".ljust(36) + " "
            + f"{c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}]".ljust(36) + " "
            + f"{r['ratio']:>7.3f}  {r['wins']:>2}/{r['pairs']:<3}  "
            + ("; ".join(verdict) or "within noise")
        )
    for side, i in (("base", 2), ("change", 3)):
        f, n = failure_share([p[i] for p in pairs])
        out.append(f"{side}: {f} of {n} operations failed")
    out.append("per pair, base -> change:")
    for seed, base_first, b, c in pairs:
        cells = []
        for m in spec:
            fmt = lambda v: "-" if v is None else f"{v:.7g}"
            cells.append(f"{m['name']} {fmt(value(b, m['name']))} -> {fmt(value(c, m['name']))}")
        first = "base" if base_first else "change"
        out.append(f"  seed {seed} ({first} first): " + ", ".join(cells))
    return "\n".join(out)


# --- environment, build and runs ----------------------------------------


def sh(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return "?"


def environment():
    model = family = "?"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                k, _, v = line.partition(":")
                k, v = k.strip(), v.strip()
                if k == "model name" and model == "?":
                    model = v
                elif k == "model" and family == "?":
                    family = v
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as f:
            l2 = f.read().strip()
    except OSError:
        l2 = "?"
    config = sh(["ocamlfind", "ocamlopt", "-config"]) or sh(["ocamlopt", "-config"])
    flambda = next(
        (l.split(":", 1)[1].strip() for l in config.splitlines() if l.startswith("flambda:")), "?"
    )
    return [
        f"cpu: {model} (model {family}), {os.cpu_count()} logical cores, L2 {l2}",
        f"os: {platform.system()} {platform.release()}",
        f"ocaml {sh(['ocamlfind', 'ocamlopt', '-version']) or '?'}, flambda {flambda}, "
        f"dune {sh(['dune', '--version'])}, profile {os.environ.get('DUNE_PROFILE', 'dev')} "
        "(e2e/run.py passes no --profile)",
    ]


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", tree, "./e2e/e2e.exe"],
        cwd=tree, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit(f"ab: build failed in {tree}")


def run_one(tree, workload, seconds, seed, trace):
    cmd = [os.path.join(tree, EXE), "--workload", workload, "--trace", "1" if trace else "0",
           "--seconds", f"{seconds:g}", "--seed", str(seed)]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    last = (r.stdout.strip().splitlines() or ["(no output)"])[-1]
    print(f"  {workload} seed {seed} {tree}: {last}", file=sys.stderr, flush=True)
    return parse_result(r.stdout)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", help="the base commit")
    ap.add_argument("--workload", action="append", help="repeatable; default all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--trace", action="store_true",
                    help="traced pairs, summarized per per-layer metric")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args(argv)
    if a.self_test:
        return self_test()
    if not a.base:
        ap.error("BASE is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = bench["per_layer" if a.trace else "end_to_end"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    seeds = list(range(a.first_seed, a.first_seed + a.pairs))
    for line in environment():
        print(line)
    print(f"base {a.base} against the checkout {ROOT}; {a.pairs} pairs of {seconds:g} s "
          f"{'traced' if a.trace else 'untraced'} runs per workload, "
          f"seeds {seeds[0]}..{seeds[-1]}")
    print("order: workloads in turn; within one, pair i (from 0) runs base first when i "
          "is even, the change first when odd; warm-up is e2e's own")
    sys.stdout.flush()
    tmp = tempfile.mkdtemp(prefix="ormp-ab-")
    try:
        base_tree = os.path.join(tmp, "base")
        os.mkdir(base_tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", a.base], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {a.base} failed")
        build(base_tree)
        build(ROOT)
        for w in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                base_first = i % 2 == 0
                order = [(base_tree, "b"), (ROOT, "c")]
                res = {}
                for tree, side in order if base_first else order[::-1]:
                    res[side] = run_one(tree, w, seconds, seed, a.trace)
                pairs.append((seed, base_first, res["b"], res["c"]))
            print((render_trace if a.trace else render)(w, spec, pairs), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


# --- self-test ------------------------------------------------------------


def self_test():
    spec = [
        {"name": "dilation", "better": "lower", "bound": 0.2},
        {"name": "events_per_s", "better": "higher", "bound": 0.2},
        {"name": "heap_mb", "better": "lower", "bound": 0.08},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]

    def line(d, e, h, s, failed=0):
        values = {"dilation": d, "events_per_s": e, "heap_mb": h, "setup_s": s}
        return json.dumps({"correct": failed == 0, "attempted": 4, "failed": failed, "metrics": {
            k: {"value": v, "unit": "-"} for k, v in values.items()}})

    base = [line(7.5, 100, 4.0, 0.3), line(7.6, 110, 4.0, 0.4), line(7.7, 90, 4.0, 0.5),
            line(7.55, 105, 4.0, 0.35)]
    change = [line(6.5, 70, 4.1, 0.31), line(6.4, 75, 4.1, 0.36), line(7.8, 80, 4.1, 0.39),
              line(6.45, 72, 4.1, 0.33, 1)]
    noise = "build output\n\n"
    pairs = [(s, s % 2 == 0, parse_result(noise + b), parse_result(c))
             for s, (b, c) in enumerate(zip(base, change))]
    pairs.append((9, False, None, parse_result("no result")))
    rows = {r["name"]: r for r in summarize(spec, pairs)}
    d, e, h, s = rows["dilation"], rows["events_per_s"], rows["heap_mb"], rows["setup_s"]
    checks = [
        (d["wins"], 3), (d["pairs"], 4),
        (d["base"], (7.5375, 7.575, 7.625)),
        (d["change"][1], 6.475),
        (d["worse_beyond_bound"], False), (d["better_beyond_iqr"], True),
        (e["wins"], 0), (e["worse_beyond_bound"], True), (e["better_beyond_iqr"], False),
        (h["wins"], 0), (h["worse_beyond_bound"], False), (h["better_beyond_iqr"], False),
        (s["wins"], 3), (s["worse_beyond_bound"], False), (s["better_beyond_iqr"], False),
        (failure_share([p[2] for p in pairs]), (1, 17)),
        (failure_share([p[3] for p in pairs]), (2, 17)),
        (parse_result("{\"metrics\": {}}\nnot json"), None),
    ]
    def same(got, want):
        if isinstance(want, float):
            return abs(got - want) < 1e-9
        if isinstance(want, tuple):
            return len(got) == len(want) and all(map(same, got, want))
        return got == want

    # Traced lines: a lower-is-better stage that fell in two of three
    # pairs, a higher-is-better rate, a layer the base never measured,
    # and a share that reads below zero in the base.
    layer_spec = [
        {"name": "sequitur.object.ns_per_symbol", "better": "lower"},
        {"name": "core.mru_hit_rate", "better": "higher"},
        {"name": "server.session_ms", "better": "lower"},
        {"name": "leap.ns_per_tuple", "better": "lower"},
        {"name": "ledger.unexplained_pct", "better": "lower"},
    ]

    def traced(obj, hit, server=0.0):
        values = {"sequitur.object.ns_per_symbol": obj, "core.mru_hit_rate": hit,
                  "server.session_ms": server, "ledger.unexplained_pct": -2.0}
        return json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {
            k: {"value": v, "unit": "-"} for k, v in values.items()}})

    layer_pairs = [
        (1, True, parse_result(traced(300.0, 0.5)), parse_result(traced(240.0, 0.5))),
        (2, False, parse_result(traced(250.0, 0.5)), parse_result(traced(200.0, 0.6))),
        (3, True, parse_result(traced(200.0, 0.5)), parse_result(traced(220.0, 0.4, 3.0))),
    ]
    layers = {r["name"]: r for r in summarize_trace(layer_spec, layer_pairs)}
    o, hit = layers["sequitur.object.ns_per_symbol"], layers["core.mru_hit_rate"]
    checks += [
        (o["ratio"], 0.8), (o["wins"], 2), (o["pairs"], 3),
        (hit["ratio"], 1.0), (hit["wins"], 1), (hit["pairs"], 3),
        ("server.session_ms" in layers, False), ("leap.ns_per_tuple" in layers, False),
        ("ledger.unexplained_pct" in layers, False),
    ]
    bad = [(i, got, want) for i, (got, want) in enumerate(checks) if not same(got, want)]
    text = render("canned", spec, pairs)
    for needle in ("WORSE than base beyond the bound", "better than base by more than its IQR",
                   "seed 9 (change first)", "change: 2 of 17 operations failed"):
        if needle not in text:
            bad.append(("render", needle, "missing"))
    trace_text = render_trace("canned", layer_spec, layer_pairs)
    for needle in ("3 traced pairs", "sequitur.object.ns_per_symbol", "2/3",
                   "change: 0 of 6 operations failed"):
        if needle not in trace_text:
            bad.append(("render_trace", needle, "missing"))
    text += "\n" + trace_text
    if bad:
        print(text)
        for b in bad:
            print("ab self-test: check", b, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
