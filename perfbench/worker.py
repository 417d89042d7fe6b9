"""One measured pass of a workload, in a fresh interpreter.

run.py starts this script once per pass, from the root of the checkout
with PYTHONPATH=src:

    worker.py <workload> <spawned> <result.json> [<manifest.json>] [--trace <spans>]
              [--setup-only]
    worker.py cli <spawned> <result.json> [--trace <spans>] [-- <gorhom command>]

``spawned`` is the CLOCK_MONOTONIC reading taken just before the spawn, so
setup time covers interpreter start-up.  The pass writes its timings, the
host slowdown around each query (calibrate.py), its answers and, traced,
its layer summary to ``result.json``.  ``--setup-only`` stops after the
set-up; with no command, the cli mode only imports the CLI, which is the
cli set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import calibrate


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _gorenstein(manifest: dict, base: Path, data: Path):
    from gorhom.algebra import load_algebra
    from gorhom.homology import (ext_dim, ext_dim_injective, gid, gorenstein_profile, gpd,
                                 is_gorenstein_projective, totalize_quasi_bicomplex)
    from gorhom.modrep import load_module

    bound = manifest["bound"]
    algebras, modules = [], []
    for entry in manifest["algebras"]:
        a = load_algebra(data / f"{entry['name']}.alg")
        algebras.append(a)
        modules.append([load_module(base / f, algebra=a) for f in entry["modules"]])
    yield "setup"
    profiles = {}

    def profile(ai):
        a = algebras[ai]
        profiles[ai] = prof = gorenstein_profile(a, bound)
        op = gorenstein_profile(a.opposite(), bound)
        return {"dims": [_plain(x) for x in (prof.max_pd_injective, prof.max_id_projective,
                                             prof.gorenstein_dim, op.max_pd_injective,
                                             op.max_id_projective, op.gorenstein_dim)]}

    def module(ai, mi):
        # Ext balance against the next module of the same algebra
        mods, prof = modules[ai], profiles[ai]
        m, n = mods[mi], mods[(mi + 1) % len(mods)]
        tot = totalize_quasi_bicomplex(m, prof)
        return {
            "gpd": _plain(gpd(m, prof)), "gid": _plain(gid(m, prof)),
            "gp": is_gorenstein_projective(m, prof).verdict,
            "violated": len(tot.quasi_bicomplex.verify_identities()),
            "z0": tot.z0_verdict.verdict, "matches": bool(tot.gpd_bound_matches),
            "ext": [[ext_dim(m, n, i), ext_dim_injective(m, n, i)] for i in (0, 1)],
        }

    for kind, *args in manifest["order"]:
        name = manifest["algebras"][args[0]]["name"]
        if kind == "profile":
            yield f"profile/{name}", (lambda args=args: profile(*args))
        else:
            yield f"{name}/{args[1]}", (lambda args=args: module(*args))


def _frobenius(manifest: dict, base: Path, data: Path):
    from gorhom.algebra import load_algebra
    from gorhom.exactlin import Mat
    from gorhom.frobenius import (BimodulePair, ExtensionPair, RingExtension, coinduce,
                                  induce, is_frobenius_bimodule, is_frobenius_extension,
                                  load_bimodule, load_extension, tri_equiv_conditions,
                                  verify_gpd_transfer)
    from gorhom.modrep import is_isomorphic, load_module

    bound, seed = manifest["bound"], manifest["search_seed"]
    exts = {name: load_extension(data / f"{name}.ext") for name in manifest["extensions"]}
    bimod = load_bimodule(data / "morita_col.bimod")
    f2, a2 = load_algebra(data / "f2.alg"), load_algebra(data / "a2.alg")
    induce_mods = {name: [load_module(base / f, algebra=exts[name].base) for f in files]
                   for name, files in manifest["induce"].items()}
    transfer_mods = {name: [load_module(base / f, algebra=exts[name].total) for f in files]
                     for name, files in manifest["transfer"].items()}
    pairs = {name: BimodulePair(bimod) if name == "morita_col" else ExtensionPair(exts[name])
             for name in manifest["triequiv"]}
    tri_mods = {name: [[load_module(base / f, algebra=alg) for f in files]
                       for files, alg in zip(sides, (pairs[name].algebra_a,
                                                     pairs[name].algebra_b))]
                for name, sides in manifest["triequiv"].items()}
    yield "setup"

    def certify(name):
        if name == "morita_col":
            v = is_frobenius_bimodule(bimod, seed=seed)
        elif name == "f2_a2":
            v = is_frobenius_extension(RingExtension(f2, a2, Mat.from_cols(f2.field, [a2.unit])),
                                       seed=seed)
        else:
            v = is_frobenius_extension(exts[name], seed=seed)
        return {"verdict": v.verdict, "witness": v.witness is not None}

    def induce_iso(name, i):
        ext, x = exts[name], induce_mods[name][i]
        v = is_isomorphic(coinduce(ext, x), induce(ext, x), seed=seed)
        return {"verdict": v.verdict, "witness": v.witness is not None}

    def transfer(name):
        mods = transfer_mods[name]
        rep = verify_gpd_transfer(exts[name], mods, bound=bound, seed=seed)
        return {"all_equal": rep.all_equal,
                "gpd_total": [_plain(r["gpd_total"]) for r in rep.rows[:len(mods)]]}

    def triequiv(name):
        corpus_a, corpus_b = tri_mods[name]
        rep = tri_equiv_conditions(pairs[name], corpus_a, corpus_b, bound=bound)
        return {
            "conditions": [rep.stable_gp_condition, rep.singularity_condition,
                           rep.defect_condition, rep.both_projective_condition,
                           rep.stable_hom_f_match, rep.stable_hom_g_match],
            "unit": [[x.dim, r["cok_dim"]] for x, r in zip(corpus_a, rep.unit_rows)],
            "counit": [[y.dim, r["ker_dim"]] for y, r in zip(corpus_b, rep.counit_rows)],
        }

    tasks = {"certify": certify, "induce": induce_iso, "transfer": transfer,
             "triequiv": triequiv}
    for task in manifest["tasks"]:
        kind, *args = task
        yield "/".join(map(str, task)), (lambda kind=kind, args=args: tasks[kind](*args))


def _plain(value):
    return value if isinstance(value, int) else str(value)


def _cli(command: list):
    """Run one CLI command in this process; stdout is the command's stdout."""
    import gorhom.cli

    yield "setup"
    if command:
        def query():
            try:
                gorhom.cli.main.main(args=command, prog_name="gorhom")
            except SystemExit as exc:
                return exc.code
            return 0

        yield " ".join(command), query


def main(argv: list) -> int:
    command = []
    if "--" in argv:
        command = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    setup_only = "--setup-only" in argv
    if setup_only:
        argv.remove("--setup-only")
    spans = None
    if "--trace" in argv:
        spans = argv[argv.index("--trace") + 1]
        argv = argv[:argv.index("--trace")]
    workload, spawned, result_path = argv[0], float(argv[1]), Path(argv[2])
    manifest_path = Path(argv[3]) if len(argv) > 3 else None

    clock = time.perf_counter
    t0 = clock()
    import gorhom.algebra  # noqa: F401  (the package's layers; cli imports all of them)
    import gorhom.frobenius  # noqa: F401
    if workload == "cli":
        import gorhom.cli  # noqa: F401
    import_s = clock() - t0
    data = Path(gorhom.algebra.__file__).parent / "data"

    tracer = None
    if spans is not None:
        from layertrace import Tracer
        tracer = Tracer().install()

    if workload == "cli":
        steps = _cli(command)
    else:
        manifest = json.loads(manifest_path.read_text())
        make = _gorenstein if workload == "gorenstein" else _frobenius
        steps = make(manifest, manifest_path.parent, data)

    next(steps)  # load and validate every input
    setup_s = time.monotonic() - spawned

    # Host speed is sampled during every query and between queries; the
    # samples that fell inside a query are taken out of its time.
    queries = []
    with calibrate.Sampler() as sampler:
        sampler.probe()
        setup_samples = list(sampler.samples)
        for label, query in ([] if setup_only else steps):
            mark = len(sampler.samples)
            cpu0, t = _cpu(), clock()
            try:
                answer, error = query(), None
            except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            s, cpu = clock() - t, _cpu() - cpu0
            inside = sum(sampler.samples[mark:])
            sampler.probe()
            queries.append({"label": label, "s": s - inside, "cpu": cpu - inside,
                            "slowdown": calibrate.slowdown(sampler.samples[mark - 5:]),
                            "answer": answer, "error": error})

    result = {
        "setup_s": setup_s, "setup_samples": setup_samples, "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "queries": queries,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.dump(spans)
    result_path.write_text(json.dumps(result))
    if command:  # a traced CLI command exits as the command did
        code = queries[0]["answer"]
        return code if isinstance(code, int) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
