"""Acceptance suite: every bundled property at its stated tolerance.

Each criterion prints one pass/fail line.  All comparisons are exact
integer or exact matrix equalities; nothing here is approximate.
"""

from pathlib import Path

import gorhom
from gorhom import suite
from gorhom.corpus import export_data
from gorhom.cli import main as cli_main


def report(number, result):
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] criterion {number}: {result.name} - {result.law}")
    if not result.passed:
        for line in result.details:
            print("      ", line)
    assert result.passed, f"criterion {number} failed: {result.details}"


def test_criterion_1_dimension_balance():
    # exact integer equality of the two suprema, bounds and attainment
    report(1, suite.check_gorenstein_balance(bound=20, seed=0))


def test_criterion_2_transfer_tables():
    # identical columns over >= 8 modules per extension, a nonzero value present
    report(2, suite.check_gpd_transfer(bound=20, seed=0))


def test_criterion_3_totalization_pipeline():
    # all window identities exactly zero, square-zero total differential,
    # correct cohomology, witness sequence, and the independent bound
    report(3, suite.check_totalization(bound=20, seed=0))


def test_criterion_4_adjunction_diagnostics():
    # bit-exact triangle identities, unit-mono <=> add-generation agreement
    report(4, suite.check_adjunction_diagnostics(bound=20, seed=0))


def test_criterion_5_frobenius_certification():
    # yes with witness for identity/truncated/group, no for the hereditary
    # embedding, no inconclusive at seed 0
    report(5, suite.check_frobenius_certification(bound=20, seed=0))


def test_criterion_6_faithfulness_necessity(runner):
    report(6, suite.check_counterexample(bound=20, seed=0))
    # the CLI check exits 0
    result = runner.invoke(cli_main, ["counterexample-product"])
    assert result.exit_code == 0


def test_criterion_7_stable_category_conditions():
    report(7, suite.check_tri_equiv(bound=20, seed=0))


def test_criterion_8_complex_pair():
    report(8, suite.check_complex_pair(bound=20, seed=0))


def test_criterion_9_oracle_cross_checks():
    report(9, suite.check_oracles(bound=20, seed=0))


def test_bundled_data_is_what_the_constructors_export(tmp_path):
    # the shipped files must not drift from the corpus constructors
    data = Path(gorhom.__file__).parent / "data"
    written = export_data(tmp_path)
    assert sorted(written) == sorted(p.name for p in data.iterdir() if p.is_file())
    for name in written:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name
