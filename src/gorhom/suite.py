"""The bundled verification suite: every acceptance property over the corpus.

Each check returns a CheckResult whose `law` field names the mathematical
statement being exercised in neutral language, so a failure is traceable
to the exact property that broke.  All checks are deterministic given
(bound, seed).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, NamedTuple

from . import corpus
from .dgcplx import check_frobenius_pair_FU, componentwise_gp_check
from .exactlin import FieldSpec, Mat, fraction_free_rank, rref, solve
from .frobenius import (
    BimodulePair,
    ExtensionPair,
    RingExtension,
    coinduce,
    counterexample_product,
    faithfulness_report,
    induce,
    is_frobenius_extension,
    product_pairs,
    restriction_bimodule,
    triangles_hold,
    tri_equiv_conditions,
    verify_gpd_transfer,
)
from .homology import (
    ext_dim,
    ext_dim_injective,
    gid,
    gorenstein_profile,
    gpd,
    projective_dimension,
    totalize_quasi_bicomplex,
)
from .modrep import Module, is_isomorphic, regular_module, structural_modules


class CheckResult(NamedTuple):
    name: str
    law: str
    passed: bool
    details: List[str]


def check_gorenstein_balance(bound: int = 20, seed: int = 0) -> CheckResult:
    """Equality of the two dimension suprema, with attained bounds.

    For every Gorenstein corpus algebra: the max projective dimension of
    injectives equals the max injective dimension of projectives; every
    corpus module has Gorenstein projective and injective dimension at
    most that value; some indecomposable injective attains it as gpd and
    some indecomposable projective attains it as gid; and gpd = pd on
    every injective with finite pd.
    """
    details = []
    passed = True
    for name in corpus.GORENSTEIN_NAMES:
        a = corpus.corpus_algebra(name)
        prof = gorenstein_profile(a, bound)
        if not prof.certified or prof.max_pd_injective != prof.max_id_projective:
            passed = False
            details.append(f"{name}: profile not balanced: {prof}")
            continue
        d = prof.gorenstein_dim
        s = structural_modules(a)
        mods = corpus.module_corpus(a)
        bad = [
            m.dim for m in mods
            if not (isinstance(gpd(m, prof), int) and gpd(m, prof) <= d
                    and isinstance(gid(m, prof), int) and gid(m, prof) <= d)
        ]
        if bad:
            passed = False
            details.append(f"{name}: modules above the bound: dims {bad}")
        inj_gpds = [gpd(i_mod, prof) for i_mod in s.injectives]
        proj_gids = [gid(p_mod, prof) for p_mod in s.projectives]
        if max(inj_gpds, default=0) != d or max(proj_gids, default=0) != d:
            passed = False
            details.append(f"{name}: suprema not attained: {inj_gpds}, {proj_gids}")
        for i_mod in s.injectives:
            pd_i = projective_dimension(i_mod, bound)
            if gpd(i_mod, prof) != pd_i:
                passed = False
                details.append(f"{name}: gpd != pd on an injective")
        details.append(f"{name}: gorenstein dimension {d}, "
                       f"{len(mods)} modules within bounds")
    return CheckResult("gorenstein-balance", "two-sided dimension suprema coincide",
                       passed, details)


def check_gpd_transfer(bound: int = 20, seed: int = 0) -> CheckResult:
    """Gorenstein projective dimension is preserved across the corpus extensions."""
    details = []
    passed = True
    saw_nonzero = False
    for name in corpus.TRANSFER_EXTENSIONS:
        ext = corpus.corpus_extension(name)
        mods = corpus.module_corpus(ext.total, minimum=8)
        report = verify_gpd_transfer(ext, mods, bound=bound, seed=seed)
        if not report.all_equal:
            passed = False
            unequal = [r for r in report.rows if not r["equal"]]
            details.append(f"{name}: unequal rows {unequal}")
        if any(isinstance(r["gpd_total"], int) and r["gpd_total"] > 0 for r in report.rows):
            saw_nonzero = True
        details.append(f"{name}: {len(report.rows)} rows, all equal: {report.all_equal}")
    if not saw_nonzero:
        passed = False
        details.append("no extension exhibited a nonzero value")
    return CheckResult("gpd-transfer", "restriction along a Frobenius extension "
                       "preserves Gorenstein projective dimension", passed, details)


def check_totalization(bound: int = 20, seed: int = 0) -> CheckResult:
    """The quasi-bicomplex totalization succeeds on every corpus pair."""
    details = []
    passed = True
    count = 0
    for name in corpus.GORENSTEIN_NAMES:
        a = corpus.corpus_algebra(name)
        prof = gorenstein_profile(a, bound)
        if not prof.certified:
            passed = False
            details.append(f"{name}: profile not certified")
            continue
        for m in corpus.module_corpus(a):
            result = totalize_quasi_bicomplex(m, prof)
            count += 1
            bad = result.quasi_bicomplex.verify_identities()
            if bad or result.z0_verdict.verdict != "yes" or not result.gpd_bound_matches:
                passed = False
                details.append(f"{name}: failure on a dim-{m.dim} module")
    details.append(f"{count} totalizations verified")
    return CheckResult("totalization", "the total complex of the bigraded resolution "
                       "array bounds the Gorenstein projective dimension",
                       passed, details)


def check_adjunction_diagnostics(bound: int = 20, seed: int = 0) -> CheckResult:
    """Triangle identities and faithfulness characterizations agree everywhere."""
    details = []
    passed = True
    for name in corpus.EXTENSION_NAMES:
        ext = corpus.corpus_extension(name)
        pair = ExtensionPair(ext)
        mods = (corpus.module_corpus(ext.base, minimum=3)[:3]
                + corpus.module_corpus(ext.total, minimum=3)[:3])
        report = faithfulness_report(pair, mods)
        agree = (report.flags["unit_mono_matches_add_generation"]
                 and report.flags["counit_epi_matches_add_generation"]
                 and report.flags["triangle_identities"]
                 and report.flags["unit_naturality"]
                 and report.flags["exactness_on_covers"])
        if not agree:
            passed = False
            details.append(f"{name}: {report.flags}")
        rc = BimodulePair(restriction_bimodule(ext))
        try:
            rc.check_triangles(regular_module(ext.total), regular_module(ext.base))
        except Exception as exc:  # noqa: BLE001 - report any identity failure
            passed = False
            details.append(f"{name}: coinduction triangles failed: {exc}")
    # the product pair, including the non-faithful projection
    f2 = corpus.corpus_algebra("f2")
    bad = corpus.bad_module_for_counterexample()  # over a2, the other factor
    pr, inc = product_pairs(f2, bad.algebra)
    bad_prod = Module(pr.algebra_a,
                      [Mat.zeros(f2.field, bad.dim, bad.dim)] + list(bad.action))
    prod_modules = list(structural_modules(pr.algebra_a).projectives) + [bad_prod]
    report = faithfulness_report(pr, prod_modules + [regular_module(f2)])
    inc_triangles = triangles_hold(inc, [regular_module(f2)], prod_modules)
    if not (report.flags["unit_mono_matches_add_generation"]
            and report.flags["counit_epi_matches_add_generation"]
            and report.flags["triangle_identities"] and inc_triangles):
        passed = False
        details.append(f"product pair: {report.flags}, inclusion triangles: {inc_triangles}")
    if report.flags["unit_mono_all"] or report.flags["add_generation_g_side"]:
        passed = False
        details.append("product projection unexpectedly looks faithful")
    details.append(f"{len(corpus.EXTENSION_NAMES)} extensions and the product pair checked")
    return CheckResult("adjunction-diagnostics",
                       "triangle identities hold and the unit-mono and "
                       "add-generation faithfulness tests agree", passed, details)


def check_frobenius_certification(bound: int = 20, seed: int = 0) -> CheckResult:
    """Certified verdicts, with induced/coinduced comparison witnesses."""
    details = []
    passed = True
    for name in corpus.FROBENIUS_YES_EXTENSIONS:
        ext = corpus.corpus_extension(name)
        verdict = is_frobenius_extension(ext, seed=seed)
        if verdict.verdict != "yes":
            passed = False
            details.append(f"{name}: verdict {verdict.verdict}")
            continue
        base_mods = corpus.module_corpus(ext.base, minimum=2)[:2]
        for x in base_mods:
            iso = is_isomorphic(coinduce(ext, x), induce(ext, x), seed=seed)
            if iso.verdict != "yes":
                passed = False
                details.append(f"{name}: induced and coinduced modules differ "
                               f"({iso.verdict})")
        details.append(f"{name}: yes, with witnesses")
    f2, a2 = corpus.corpus_algebra("f2"), corpus.corpus_algebra("a2")
    bad_ext = RingExtension(f2, a2, Mat.from_cols(f2.field, [a2.unit]))
    verdict = is_frobenius_extension(bad_ext, seed=seed)
    if verdict.verdict != "no":
        passed = False
        details.append(f"embedding of the field into the arrow algebra: {verdict.verdict}")
    else:
        details.append("field into hereditary arrow algebra: certified no")
    return CheckResult("frobenius-certification",
                       "self-dual bimodule witnesses decide the Frobenius property",
                       passed, details)


def check_counterexample(bound: int = 20, seed: int = 0) -> CheckResult:
    """Faithfulness is necessary: the product projection kills a non-GP object."""
    f2 = corpus.corpus_algebra("f2")
    bad = corpus.bad_module_for_counterexample()  # over a2, the other factor
    report = counterexample_product(f2, bad.algebra, bad, bound=bound)
    details = list(report.notes)
    details.append(f"pair verified: {report.pair_verified}; "
                   f"projected GP: {report.projected_is_gp}; "
                   f"object GP: {report.object_is_gp}")
    return CheckResult("faithfulness-necessity",
                       "a non-faithful Frobenius functor need not reflect "
                       "Gorenstein projectives", report.passed, details)


def check_tri_equiv(bound: int = 20, seed: int = 0) -> CheckResult:
    """Unit/counit conditions for the induced stable-category comparisons."""
    details = []
    passed = True
    # identity extension on the self-injective Nakayama algebra: all conditions
    nak = corpus.corpus_algebra("nak2")
    pair = ExtensionPair(corpus.corpus_extension("id_nak2"))
    nmods = corpus.module_corpus(nak, minimum=4)[:4]
    rep = tri_equiv_conditions(pair, nmods, nmods, bound=bound)
    if not (rep.both_projective_condition and rep.stable_gp_condition
            and rep.singularity_condition and rep.defect_condition
            and rep.stable_hom_f_match and rep.stable_hom_g_match):
        passed = False
        details.append("identity pair failed a condition")
    else:
        details.append("identity extension: all conditions hold, stable dimensions match")
    # the Morita matrix pair
    col = corpus.corpus_bimodule("morita_col")
    bpair = BimodulePair(col)
    r_alg = corpus.corpus_algebra("f2x2")
    s_alg = corpus.corpus_algebra("m2f2x2")
    corpus_a = corpus.module_corpus(r_alg, minimum=3)[:3]
    corpus_b = corpus.module_corpus(s_alg, minimum=3)[:3]
    rep = tri_equiv_conditions(bpair, corpus_a, corpus_b, bound=bound)
    if not (rep.both_projective_condition and rep.stable_hom_f_match
            and rep.stable_hom_g_match):
        passed = False
        details.append("matrix pair failed a condition")
    else:
        details.append("matrix pair: units and counits vanish, stable dimensions match")
    # the group extension fails the projectivity condition at the trivial module
    ext = corpus.corpus_extension("f2_f2c2")
    gpair = ExtensionPair(ext)
    f2c2 = corpus.corpus_algebra("f2c2")
    k = structural_modules(f2c2).simples[0]
    rep = tri_equiv_conditions(gpair, [regular_module(ext.base)],
                               [k, regular_module(f2c2)], bound=bound)
    krow = next(r for r in rep.counit_rows if r["ker_dim"] > 0)
    if krow["ker_projective"] or rep.both_projective_condition or rep.stable_hom_g_match:
        passed = False
        details.append("group extension unexpectedly passed")
    else:
        details.append("group extension: counit kernel at the trivial module is "
                       "not projective and stable dimensions genuinely differ")
    return CheckResult("stable-category-conditions",
                       "unit cokernel and counit kernel conditions govern the "
                       "induced equivalences", passed, details)


def check_complex_pair(bound: int = 20, seed: int = 0) -> CheckResult:
    """The complexes/graded pair, contractibility, componentwise verdicts."""
    details = []
    passed = True
    complexes = corpus.complex_corpus()
    report = check_frobenius_pair_FU(corpus.graded_corpus(), complexes[:6])
    if not report.passed:
        passed = False
        details.append(f"pair report flags: {report.flags}")
    for c in complexes:
        rep = componentwise_gp_check(c, gorenstein_profile(c.algebra, bound))
        if not rep.passed:
            passed = False
            details.append(f"inconclusive componentwise verdicts: {rep.per_degree}")
    details.append(f"{len(complexes)} complexes checked componentwise")
    return CheckResult("complex-pair",
                       "the forgetful functor from complexes is Frobenius and "
                       "Gorenstein projectivity is componentwise", passed, details)


def check_oracles(bound: int = 20, seed: int = 0) -> CheckResult:
    """Independent-oracle cross-checks: Ext balance and elimination ranks."""
    details = []
    passed = True
    pairs = 0
    for name in ["a2", "f2c2", "nak2", "f2x2", "a3"]:
        a = corpus.corpus_algebra(name)
        s = structural_modules(a)
        mods = list(s.simples) + list(s.projectives) + [regular_module(a)]
        for m in mods:
            for n in mods:
                for i in range(0, 2):
                    if ext_dim(m, n, i) != ext_dim_injective(m, n, i):
                        passed = False
                        details.append(f"{name}: Ext balance broken at degree {i}")
                    pairs += 1
    if pairs < 50:
        passed = False
        details.append(f"only {pairs} pairs sampled")
    details.append(f"{pairs} Ext balance comparisons")

    rng = random.Random(seed)
    fields = [FieldSpec(2), FieldSpec(101), FieldSpec(0)]
    for trial in range(100):
        field = fields[trial % 3]
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        if field.characteristic:
            data = [[rng.randrange(field.characteristic) for _ in range(cols)]
                    for _ in range(rows)]
        else:
            data = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                     for _ in range(cols)] for _ in range(rows)]
        m = Mat(field, data)
        if rref(m).rank != fraction_free_rank(m):
            passed = False
            details.append(f"rank mismatch on trial {trial}")
        b = m * Mat(field, [[field.coerce(rng.randrange(-2, 3))] for _ in range(cols)])
        res = solve(m, b)
        if res.particular is None or m * res.particular != b:
            passed = False
            details.append(f"solve failed on trial {trial}")
    details.append("100 elimination cross-checks")
    return CheckResult("oracle-cross-checks",
                       "independent elimination and balance oracles agree",
                       passed, details)


ALL_CHECKS: List[Callable[..., CheckResult]] = [
    check_gorenstein_balance, check_gpd_transfer, check_totalization,
    check_adjunction_diagnostics, check_frobenius_certification, check_counterexample,
    check_tri_equiv, check_complex_pair, check_oracles,
]


def run_all(bound: int = 20, seed: int = 0) -> List[CheckResult]:
    return [check(bound=bound, seed=seed) for check in ALL_CHECKS]
