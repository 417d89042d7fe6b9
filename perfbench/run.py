"""The gorhom benchmark: one workload, one seed, a closed loop of passes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gorenstein --seed 1 --seconds 10 --trace 0

The inputs are generated from the seed before any timing starts (see
workloads.py).  A pass runs every query of the workload once, one at a
time, in fresh interpreters: gorenstein and frobenius use one worker
process per pass, cli one ``python3 -m gorhom.cli`` process per command.
Passes repeat until ``--seconds`` have passed and enough queries were
timed for the 90th percentile.  Every answer is checked against expected
answers that do not come from the code under test.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_BEYOND = 10          # samples required above a reported percentile
HARD_STOP_S = 140.0      # start no pass that would likely end after this
SETUP_REPEATS = 5        # set-up-only spawns per run, besides one per pass
# gorenstein's many short queries carry more host-speed noise than the
# others' long ones: its median over two passes keeps the spread of wall_s
# across runs near 0.03 instead of 0.08.
MIN_PASSES = {"gorenstein": 2}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "query_p50_s": "s", "query_p90_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def percentile(values: list, q: int):
    """The q-th percentile with its sample count and the samples beyond it,
    or None when fewer than MIN_BEYOND samples lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100)[q - 1]
    beyond = sum(1 for v in values if v > cut)
    if beyond < MIN_BEYOND:
        return None
    return cut, len(values), beyond


# ---------------------------------------------------------------------------
# Inputs and expected answers
# ---------------------------------------------------------------------------


def materialize(inputs: dict, directory: Path):
    """Write every module document to a .mod file, and the manifest the
    worker reads (documents replaced by file names, so no expected answer
    reaches it); return the manifest's path."""
    directory.mkdir(parents=True, exist_ok=True)
    counter = [0]

    def strip(node):
        if isinstance(node, dict) and "doc" in node:
            name = f"m{counter[0]:03d}.mod"
            counter[0] += 1
            (directory / name).write_text(json.dumps(node["doc"], indent=1))
            return name
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    manifest = strip(inputs)
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def check_gorenstein(inputs: dict, label: str, answer: dict) -> list:
    name, mi = label.split("/")
    if name == "profile":
        d = workloads.GORENSTEIN_DIM[mi]
        if answer["dims"] != [d] * 6:
            return [f"profile and opposite profile {answer['dims']}, expected all {d}"]
        return []
    entry = next(a for a in inputs["algebras"] if a["name"] == name)
    expected = entry["modules"][int(mi)]["expected"]
    problems = []
    for key in ("gpd", "gid"):
        if answer[key] != expected[key]:
            problems.append(f"{key} {answer[key]}, expected {expected[key]} "
                            f"(the bundled-basis direct sum)")
    if answer["gp"] != ("yes" if expected["gpd"] == 0 else "no"):
        problems.append(f"Gorenstein projective verdict {answer['gp']} with gpd "
                        f"{expected['gpd']}")
    if answer["violated"] or answer["z0"] != "yes" or not answer["matches"]:
        problems.append(f"totalization: {answer['violated']} identities violated, "
                        f"Z0 verdict {answer['z0']}, bound matches {answer['matches']}")
    for i, (proj, inj) in enumerate(answer["ext"]):
        if proj != inj:
            problems.append(f"Ext^{i} unbalanced: {proj} vs {inj}")
    return problems


def check_frobenius(inputs: dict, label: str, answer: dict) -> list:
    kind, name, *rest = label.split("/")
    if kind == "certify":
        want = "no" if name == "f2_a2" else "yes"
        if answer["verdict"] != want or (want == "yes" and not answer["witness"]):
            return [f"verdict {answer['verdict']} (witness {answer['witness']}), "
                    f"expected certified {want}"]
        return []
    if kind == "induce":
        if answer["verdict"] != "yes" or not answer["witness"]:
            return [f"coinduced vs induced: {answer['verdict']}, expected certified yes"]
        return []
    if kind == "transfer":
        want = [m["expected"]["gpd"] for m in inputs["transfer"][name]]
        if not answer["all_equal"] or answer["gpd_total"] != want:
            return [f"transfer table equal {answer['all_equal']}, gpd {answer['gpd_total']}, "
                    f"expected {want}"]
        return []
    # triequiv.  The Morita pair is an equivalence: every condition holds.
    # Over A2 -> A2[x]/x^2 the unit cokernel at X is X and the counit kernel
    # at Y has the dimension of Y, because S = A2 + A2.x as A2-bimodules.
    problems = []
    if name == "morita_col" and not all(answer["conditions"]):
        problems.append(f"Morita pair conditions {answer['conditions']}, expected all true")
    if name == "a2_a2t2":
        for dim, got in answer["unit"] + answer["counit"]:
            if got != dim:
                problems.append(f"unit cokernel / counit kernel of dim {got} at a "
                                f"dim-{dim} module")
    return problems


def check_cli(expected_out: bytes, code: int, out: bytes) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if out != expected_out:
        problems.append("stdout differs from the expected file")
    return problems


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _env() -> dict:
    return dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")


def _spawn(args: list, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(args, env=_env(), capture_output=True, **kw)


def worker_pass(workload: str, manifest, work: Path, trace: bool,
                setup_only: bool = False) -> dict:
    result = work / "result.json"
    args = [sys.executable, str(HERE / "worker.py"), workload, "", str(result)]
    if manifest is not None:
        args.append(str(manifest))
    if trace:
        args += ["--trace", str(work / "spans.bin")]
    if setup_only:
        args.append("--setup-only")
    before = _probe()
    args[3] = repr(time.monotonic())
    proc = _spawn(args)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    out = json.loads(result.read_text())
    out["setup_slowdown"] = calibrate.slowdown(before + out["setup_samples"])
    return out


def _probe() -> list:
    return [calibrate.kernel_seconds() for _ in range(5)]


def cli_pass(inputs: dict, work: Path, trace: bool) -> dict:
    """Set-up (a bare import of the CLI), then every command in its own process."""
    out = worker_pass("cli", None, work, False)
    ref = HERE / "reference" / "cli"
    queries, traces, out["import_s"] = [], [], 0.0
    # The runner samples host speed while it waits for each command, on
    # the other CPU: the command process is the user's, untouched.
    with calibrate.Sampler() as sampler:
        sampler.probe()
        for i in inputs["order"]:
            command = inputs["commands"][i]
            if trace:
                args = [sys.executable, str(HERE / "worker.py"), "cli", repr(time.monotonic()),
                        str(work / "result.json"), "--trace", str(work / "spans.bin"), "--",
                        *command]
            else:
                args = [sys.executable, "-m", "gorhom.cli", *command]
            mark = len(sampler.samples)
            ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            t = time.perf_counter()
            proc = _spawn(args)
            s = time.perf_counter() - t
            ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            sampler.probe()
            if trace:
                result = json.loads((work / "result.json").read_text())
                traces.append(result["trace"])
                out["import_s"] += result["import_s"]
            queries.append({
                "label": f"{i:02d}", "s": s,
                "cpu": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
                "slowdown": calibrate.slowdown(sampler.samples[mark - 5:]),
                "answer": {"code": proc.returncode, "out": proc.stdout},
                "error": proc.stderr.decode()[-500:] if proc.returncode else None,
                "expected": (ref / f"{i:02d}.out").read_bytes()})
    out["queries"] = queries
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if trace:
        out["trace"] = merge_summaries(traces)
    return out


def merge_summaries(summaries: list) -> dict:
    """Sum the per-process summaries of one pass."""
    total = summaries[0]
    for s in summaries[1:]:
        for key in ("calls", "s", "self", "counts", "distinct"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for key in ("load_s", "cells", "inconclusive"):
            total[key] += s[key]
    return total


def run_pass(workload: str, inputs: dict, manifest, work: Path, trace: bool) -> dict:
    if workload == "cli":
        return cli_pass(inputs, work, trace)
    return worker_pass(workload, manifest, work, trace)


def judge(workload: str, inputs: dict, query: dict) -> list:
    if workload == "cli":
        a = query["answer"]
        return check_cli(query["expected"], a["code"], a["out"])
    if query["error"] is not None:
        return [query["error"]]
    check = check_gorenstein if workload == "gorenstein" else check_frobenius
    return check(inputs, query["label"], query["answer"])


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not (Path("src") / "gorhom" / "__init__.py").is_file():
        print("run from the root of a gorhom checkout: src/gorhom is missing", file=sys.stderr)
        return 2

    inputs = workloads.GENERATORS[opts.workload](opts.seed)
    digest = workloads.digest(inputs)
    work = HERE / ".work" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    try:
        manifest = None if opts.workload == "cli" else materialize(inputs, work)
        work.mkdir(parents=True, exist_ok=True)
        # Untimed: compile the package's bytecode once, as any installed copy has.
        _spawn([sys.executable, "-c", "import gorhom.cli"], check=True)
        passes = loop(opts, inputs, manifest, work)
        # Set-up is short and noisy: time it a few more times on its own.
        setups = [] if opts.trace else [
            worker_pass(opts.workload, manifest, work, False, setup_only=True)
            for _ in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(opts, inputs, digest, passes, setups)


def loop(opts, inputs, manifest, work) -> list:
    """Closed loop: one pass at a time until the time is up and the
    percentiles have their samples (traced: at least one pass of each kind)."""
    passes = []
    start = time.perf_counter()
    while True:
        trace = bool(opts.trace) and len(passes) % 2 == 1
        t = time.perf_counter()
        p = run_pass(opts.workload, inputs, manifest, work, trace)
        p["traced"] = trace
        p["elapsed"] = time.perf_counter() - t
        p["wall_s"] = sum(q["s"] / q["slowdown"] for q in p["queries"])
        p["cpu_s"] = sum(q["cpu"] / q["slowdown"] for q in p["queries"])
        p["raw_wall_s"] = sum(q["s"] for q in p["queries"])
        passes.append(p)
        elapsed = time.perf_counter() - start
        latencies = [q["s"] / q["slowdown"] for p in passes_of(passes, False)
                     for q in p["queries"]]
        enough = (len(passes) >= 2 if opts.trace
                  else percentile(latencies, 90) is not None
                  and len(passes) >= MIN_PASSES.get(opts.workload, 1))
        if elapsed >= opts.seconds and enough:
            return passes
        if elapsed + p["elapsed"] > HARD_STOP_S:
            return passes


def passes_of(passes: list, traced: bool) -> list:
    return [p for p in passes if p["traced"] == traced]


def failures(workload: str, inputs: dict, passes: list):
    """Every query of every pass judged: (failure lines, queries attempted)."""
    lines, attempted = [], 0
    for p in passes:
        for q in p["queries"]:
            attempted += 1
            problems = judge(workload, inputs, q)
            if problems:
                lines.append(f"{q['label']}: {'; '.join(problems)}")
    return lines, attempted


def report(opts, inputs, digest, passes, setups) -> int:
    failed, attempted = failures(opts.workload, inputs, passes)
    print(f"workload {opts.workload}, seed {opts.seed}, inputs sha256 {digest}")
    print(f"{len(passes)} passes, {attempted} queries, "
          f"failed_frac {len(failed) / max(attempted, 1):.4f}")
    for line in failed:
        print(f"  FAILED {line}")
    for i, p in enumerate(passes):
        print(f"  pass {i}{' (traced)' if p['traced'] else ''}: wall {p['wall_s']:.3f} s "
              f"({p['raw_wall_s']:.3f} s as timed), cpu {p['cpu_s']:.3f} s, "
              f"setup {p['setup_s'] / p['setup_slowdown']:.4f} s "
              f"({p['setup_s']:.4f} s as timed)")

    plain = passes_of(passes, False)
    if opts.trace:
        metrics = trace_metrics(plain, passes_of(passes, True))
    else:
        metrics = end_to_end_metrics(plain, setups)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def end_to_end_metrics(plain: list, setups: list) -> dict:
    latencies = [q["s"] / q["slowdown"] for p in plain for q in p["queries"]]
    p90 = percentile(latencies, 90)
    if p90 is None:
        raise RuntimeError(f"only {len(latencies)} query samples: too few for p90")
    values = {key: [p[key] for p in plain] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = [p["setup_s"] / p["setup_slowdown"] for p in plain + setups]
    for key, vals in values.items():
        print(f"  {key}: median over passes, {_spread(vals)}")
    print(f"  query latency: {len(latencies)} samples, {p90[2]} above p90")
    out = {key: statistics.median(vals) for key, vals in values.items()}
    out["query_p50_s"] = statistics.median(latencies)
    out["query_p90_s"] = p90[0]
    return {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END.items()}


def trace_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics from the traced passes: counts from the first one
    (they must repeat in every traced pass), times as medians."""
    first = traced[0]["trace"]
    for p in traced[1:]:
        if p["trace"]["calls"] != first["calls"] or p["trace"]["counts"] != first["counts"]:
            print("  WARNING: call counts differ between traced passes")
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1)
    per_pass = [layertrace.metrics(p["trace"], {"import_s": p["import_s"],
                                                "overhead_frac": overhead})
                for p in traced]
    out = {}
    for name, m in per_pass[0].items():
        vals = [pp[name]["value"] for pp in per_pass]
        value = vals[0] if m["unit"] == "count" else statistics.median(vals)
        out[name] = {"value": value, "unit": m["unit"]}
    layers = {layer: out[f"{layer}.self_s"]["value"] for layer in layertrace.LAYERS}
    layers["cli (import)"] = out["cli.import_s"]["value"]
    total = sum(layers.values()) or 1.0
    print("  layer self time shares: " + ", ".join(
        f"{layer} {v / total:.0%}" for layer, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    return out


if __name__ == "__main__":
    sys.exit(main())
