"""Command-line front end: file ingestion, verification suites, reports.

Exit codes: 0 when every asserted property in the run passed, 1 when a
property failed (the report names the violated law), 2 on input errors,
including an --out that cannot be written, and on usage errors.
`command` is the one place where this contract lives: each command's body
only returns its report.  Identical configurations (including the seed)
produce byte-identical reports: nothing here depends on time,
environment, or dict order.  Start-up is most of a short command's time,
so the package imports only the standard library, main builds the parser
of the one command it runs, and each command imports its layers in its
own body.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .errors import GorhomError, InputShapeError


def resolve_input(path: str) -> Path:
    """Find an input file on disk or among the bundled corpus files."""
    for p in (Path(path), Path(__file__).parent / "data" / path):
        if p.exists():
            return p
    raise InputShapeError(f"no such file: {path} (also not bundled)")


def emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=1, sort_keys=True, default=str) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "key", "value"])
        writer.writerows(["meta", key, value] for key, value in sorted(report.items())
                         if key != "rows")
        writer.writerows([f"row{i}", key, row[key]]
                         for i, row in enumerate(report.get("rows", [])) for key in sorted(row))
        text = buf.getvalue()
    else:
        lines = [str(report.get("title", "report"))]
        lines += [f"  {key}: {value}" for key, value in report.items()
                  if key not in ("title", "rows")]
        lines += ["  - " + "  ".join(f"{k}={row[k]}" for k in sorted(row))
                  for row in report.get("rows", [])]
        text = "\n".join(lines) + "\n"
    if out is not None:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def param(*names, **spec):
    """One parameter of a command: the arguments of argparse's add_argument."""
    return names, spec


def _bound(text: str) -> int:
    """The type of --bound: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return int(text)


PATH = param("path", help="the input file, on disk or among the bundled files")
COMMON_PARAMS = (
    param("--bound", default=20, type=_bound, help="resolution depth bound"),
    param("--seed", default=0, type=int, help="seed for randomized searches"),
    param("--format", dest="fmt", default="text", choices=("text", "csv", "json"),
          help="report format"),
    param("--out", help="write the report to a file"),
)

COMMANDS = {}  # name -> (runner, help, params), in registration order


def command(name: str, *params):
    """Register `body` as the command `name`, taking `params` and then the
    common options.  The body gets every parameter but --format and --out
    and returns its report; the runner emits it and exits 1 when the
    report's `passed` is False, 0 otherwise, and 2 with `input error: ...`
    on stderr when the body or the writing of --out raises an input error."""

    def register(body):
        def run(fmt, out, **kwargs):
            try:
                report = body(**kwargs)
                emit(report, fmt, out)
            except (GorhomError, OSError, json.JSONDecodeError) as exc:
                sys.stderr.write(f"input error: {exc}\n")
                sys.exit(2)
            sys.exit(1 if report.get("passed") is False else 0)

        COMMANDS[name] = (run, body.__doc__, (*params, *COMMON_PARAMS))
        return body

    return register


def main(args=None, prog_name: str = "gorhom"):
    """Run the command that `args` (by default sys.argv[1:]) names and exit
    with its code; a usage error exits 2 with argparse's message on stderr."""
    args = sys.argv[1:] if args is None else list(args)
    group = argparse.ArgumentParser(
        prog=prog_name, allow_abbrev=False,
        description="Exact-arithmetic workbench for Gorenstein homological algebra.",
        epilog="commands:\n" + "\n".join(f"  {name:24}{doc.splitlines()[0]}"
                                          for name, (_, doc, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    group.add_argument("command", choices=COMMANDS, metavar="COMMAND")
    name = group.parse_args(args[:1]).command
    run, doc, params = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"{prog_name} {name}", description=doc,
                                     allow_abbrev=False,
                                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    for names, spec in params:
        parser.add_argument(*names, **spec)
    run(**vars(parser.parse_args(args[1:])))


main.main = main  # click's spelling, main.main(args=..., prog_name=...): perfbench/worker.py


@command("algebra-info", PATH)
def algebra_info(path, bound, seed):
    """Validate an .alg file and print its basic structure."""
    from .algebra import load_algebra
    from .modrep import structural_modules

    a = load_algebra(resolve_input(path))
    rad = a.radical_basis()
    report = {
        "title": f"algebra {path}",
        "field": str(a.field),
        "dimension": a.dim,
        "basis": ", ".join(a.basis_labels),
        "radical_dimension": rad.cols,
        "local": a.is_local(),
        "idempotents": (len(a.idempotents) if a.idempotents is not None else "none"),
        "passed": True,
    }
    if a.idempotents is not None:
        s = structural_modules(a)
        report["simple_dimensions"] = [m.dim for m in s.simples]
        report["projective_dimensions"] = [m.dim for m in s.projectives]
        report["injective_dimensions"] = [m.dim for m in s.injectives]
    return report


@command("module-info", PATH)
def module_info(path, bound, seed):
    """Validate a .mod file and print dimensions and radical data."""
    from .modrep import load_module, radical_submodule_basis, socle_basis

    m = load_module(resolve_input(path))
    return {
        "title": f"module {path}",
        "dimension": m.dim,
        "algebra_dimension": m.algebra.dim,
        "radical_dimension": radical_submodule_basis(m).cols,
        "socle_dimension": socle_basis(m).cols,
        "passed": True,
    }


@command("profile", PATH)
def profile_cmd(path, bound, seed):
    """Gorenstein profile of the algebra in an .alg file."""
    from .algebra import load_algebra
    from .homology import gorenstein_profile

    prof = gorenstein_profile(load_algebra(resolve_input(path)), bound)
    return {
        "title": f"profile {path}",
        "max-pd-of-injectives": str(prof.max_pd_injective),
        "max-id-of-projectives": str(prof.max_id_projective),
        "gorenstein-dim": (prof.gorenstein_dim if prof.certified
                           else f"not certified within {bound}"),
        "passed": prof.certified,
    }


@command("gpd", PATH)
def gpd_cmd(path, bound, seed):
    """Gorenstein projective dimension of the module in a .mod file."""
    from .homology import gorenstein_profile, gpd
    from .modrep import load_module

    m = load_module(resolve_input(path))
    value = gpd(m, gorenstein_profile(m.algebra, bound))
    return {"title": f"gpd {path}", "gpd": value, "passed": isinstance(value, int)}


@command("gid", PATH)
def gid_cmd(path, bound, seed):
    """Gorenstein injective dimension of the module in a .mod file."""
    from .homology import gid, gorenstein_profile
    from .modrep import load_module

    m = load_module(resolve_input(path))
    value = gid(m, gorenstein_profile(m.algebra, bound))
    return {"title": f"gid {path}", "gid": value, "passed": isinstance(value, int)}


@command("resolve", PATH,
         param("--direction", default="projective", choices=("projective", "injective"),
               help="a projective resolution, or an injective coresolution"))
def resolve_cmd(path, direction, bound, seed):
    """Minimal (co)resolution of the module in a .mod file."""
    from .homology import resolve
    from .modrep import dual_module, load_module

    m = load_module(resolve_input(path))
    # the coresolution of m is D of the resolution of D(m): the same
    # term dimensions, completeness and length
    res = resolve(m if direction == "projective" else dual_module(m), bound)
    return {
        "title": f"{direction} resolution of {path}",
        "term_dimensions": [t.dim for t in res.terms],
        "complete": res.complete,
        "length": (res.depth() if res.complete else f">= {bound}"),
        "passed": True,
    }


@command("totalize", PATH)
def totalize_cmd(path, bound, seed):
    """Run the quasi-bicomplex totalization pipeline on a .mod file."""
    from .homology import gorenstein_profile, totalize_quasi_bicomplex
    from .modrep import load_module

    m = load_module(resolve_input(path))
    result = totalize_quasi_bicomplex(m, gorenstein_profile(m.algebra, bound))
    bad = result.quasi_bicomplex.verify_identities()
    qb = result.quasi_bicomplex
    return {
        "title": f"totalization of {path}",
        "window_columns": qb.max_column + 1,
        "window_rows": qb.max_row + 1,
        "identities_violated": len(bad),
        "witness": f"0 -> B0(dim {result.witness.left.dim}) -> "
                   f"Z0(dim {result.witness.middle.dim}) -> M(dim {m.dim}) -> 0",
        "b0_pd": str(result.b0_pd),
        "z0_gorenstein_projective": result.z0_verdict.verdict,
        "gpd_bound_matches": result.gpd_bound_matches,
        "passed": (not bad and result.z0_verdict.verdict == "yes"
                   and result.gpd_bound_matches),
    }


@command("frobenius-verify", PATH)
def frobenius_verify(path, bound, seed):
    """Certify an .ext or .bimod file as Frobenius (or not)."""
    from .frobenius import (is_frobenius_bimodule, is_frobenius_extension, load_bimodule,
                            load_extension)

    p = resolve_input(path)
    if p.suffix == ".bimod":
        verdict = is_frobenius_bimodule(load_bimodule(p), seed=seed)
    else:
        verdict = is_frobenius_extension(load_extension(p), seed=seed)
    return {
        "title": f"frobenius verification of {path}",
        "verdict": verdict.verdict,
        "obstruction": verdict.obstruction or "",
        "witness": "isomorphism found" if verdict.witness is not None else "",
        "passed": verdict.verdict != "inconclusive",
    }


@command("transfer-check", PATH)
def transfer_check(path, bound, seed):
    """Dimension-transfer table across the extension in an .ext file."""
    from . import corpus as corpus_mod
    from .frobenius import load_extension, verify_gpd_transfer

    ext = load_extension(resolve_input(path))
    mods = corpus_mod.module_corpus(ext.total, minimum=8)
    report = verify_gpd_transfer(ext, mods, bound=bound, seed=seed)
    return {
        "title": f"transfer check {path}",
        "law": "gpd is preserved by restriction along a Frobenius extension",
        "all_equal": report.all_equal,
        "induction_direction_checked": report.ind_checked,
        "rows": [{k: str(v) for k, v in row.items()} for row in report.rows],
        "passed": report.all_equal,
    }


@command("glgdim-check", PATH)
def glgdim_check(path, bound, seed):
    """Global Gorenstein dimensions on both sides of an .ext file agree."""
    from .frobenius import global_gdim_transfer, load_extension

    ext = load_extension(resolve_input(path))
    g_base, g_total, equal = global_gdim_transfer(ext, bound=bound)
    return {
        "title": f"global dimension comparison {path}",
        "law": "faithful pairs preserve the global Gorenstein dimension",
        "base": g_base,
        "total": g_total,
        "passed": equal,
    }


@command("counterexample-product",
         param("--block", default="f2", help="bundled name of the harmless factor"))
def counterexample_cmd(block, bound, seed):
    """Certify the product-projection counterexample on bundled data."""
    from . import corpus as corpus_mod
    from .frobenius import counterexample_product

    bad = corpus_mod.bad_module_for_counterexample()  # over a2, the other factor
    report = counterexample_product(corpus_mod.corpus_algebra(block), bad.algebra, bad, bound=bound)
    return {
        "title": f"product counterexample ({block} x a2)",
        "law": "faithfulness is necessary for reflecting Gorenstein projectives",
        "pair_verified": report.pair_verified,
        "projected_is_gp": report.projected_is_gp,
        "object_is_gp": report.object_is_gp,
        "unit_mono_at_object": report.unit_mono_at_object,
        "notes": "; ".join(report.notes),
        "passed": report.passed,
    }


@command("triequiv-check", PATH)
def triequiv_check(path, bound, seed):
    """Unit/counit conditions for the pair in an .ext or .bimod file."""
    from . import corpus as corpus_mod
    from .frobenius import (BimodulePair, ExtensionPair, load_bimodule, load_extension,
                            tri_equiv_conditions)

    p = resolve_input(path)
    if p.suffix == ".bimod":
        pair = BimodulePair(load_bimodule(p))
    else:
        pair = ExtensionPair(load_extension(p))
    corpus_a = corpus_mod.module_corpus(pair.algebra_a, minimum=4)[:4]
    corpus_b = corpus_mod.module_corpus(pair.algebra_b, minimum=4)[:4]
    rep = tri_equiv_conditions(pair, corpus_a, corpus_b, bound=bound)
    return {
        "title": f"stable-category conditions for {path}",
        "law": "unit cokernels and counit kernels govern the induced equivalences",
        "stable_gp_condition": rep.stable_gp_condition,
        "singularity_condition": rep.singularity_condition,
        "defect_condition": rep.defect_condition,
        "both_projective_condition": rep.both_projective_condition,
        "stable_hom_match_forward": rep.stable_hom_f_match,
        "stable_hom_match_backward": rep.stable_hom_g_match,
        "rows": [{k: str(v) for k, v in r.items()} for r in rep.unit_rows + rep.counit_rows],
        "passed": True,
    }


@command("complex-check", param("path", nargs="?", help="a .cpx file; the bundled suite if none"))
def complex_check(path, bound, seed):
    """Componentwise verdicts for a .cpx file, or the bundled complex suite."""
    if path is None:
        from . import suite as suite_mod

        result = suite_mod.check_complex_pair(bound=bound, seed=seed)
        return {
            "title": "bundled complex suite",
            "law": result.law,
            "details": "; ".join(result.details),
            "passed": result.passed,
        }
    from .dgcplx import componentwise_gp_check
    from .homology import gorenstein_profile, load_complex

    c = load_complex(resolve_input(path))
    rep = componentwise_gp_check(c, gorenstein_profile(c.algebra, bound))
    return {
        "title": f"componentwise check {path}",
        "per_degree": {str(k): v for k, v in sorted(rep.per_degree.items())},
        "all_gorenstein_projective": rep.all_gp,
        "note": rep.note,
        "passed": rep.passed,
    }


@command("suite")
def suite_cmd(bound, seed):
    """Run every acceptance property over the bundled corpus."""
    from . import suite as suite_mod

    results = suite_mod.run_all(bound=bound, seed=seed)
    rows = [{"check": r.name, "law": r.law, "result": "pass" if r.passed else "FAIL"}
            for r in results]
    failed = [r for r in results if not r.passed]
    report = {
        "title": f"verification suite (bound={bound}, seed={seed})",
        "checks": len(results),
        "failures": len(failed),
        "rows": rows,
        "passed": not failed,
    }
    if failed:
        report["violated"] = "; ".join(f"{r.name}: {r.law}" for r in failed)
    return report


if __name__ == "__main__":
    main()
