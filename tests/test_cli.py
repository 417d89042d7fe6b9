import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gorhom
from gorhom import cli
from gorhom.cli import main


def test_profile_bundled_a2(runner):
    result = runner.invoke(main, ["profile", "a2.alg"])
    assert result.exit_code == 0
    assert "max-pd-of-injectives: 1" in result.output
    assert "max-id-of-projectives: 1" in result.output
    assert "gorenstein-dim: 1" in result.output


def test_malformed_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text('{"nonsense": 1}')
    result = runner.invoke(main, ["algebra-info", str(bad)])
    assert result.exit_code == 2


@pytest.mark.parametrize("scalar", ["x", "1/0", "1/3", 1.5, True, None])
def test_bad_scalar_exits_2(runner, tmp_path, scalar):
    # f3.alg is the field F_3, whose one structure constant is "1"; "1/3"
    # has a denominator that vanishes mod 3.
    doc = json.loads((Path(gorhom.__file__).parent / "data" / "f3.alg").read_text())
    doc["table"][0][0][0] = scalar
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["algebra-info", str(bad)])
    assert result.exit_code == 2
    assert "input error" in result.output


WRONG_TYPES = (
    [("f2x2.alg", f, v) for f in ("basis", "table", "unit") for v in (5, None, 1.5, True)]
    + [("f2x2.alg", f, v) for f in ("idempotents", "provenance") for v in (5, 1.5, True, "1")]
    + [("f2.alg", "basis", "1"), ("f2x2.alg", "field", {"char": 2.0})]
    + [("a2_s1.mod", "dim", v) for v in (1.5, True, "1")]
    + [("a2_stalk.cpx", "support", v) for v in ([0.5, 0], [0, 3], [0, -1], [0, 0, 0])]
    + [("f2_f2c2.ext", "embedding", v) for v in (["1", "0", "0"], ["1"], "10", 5)]
    + [("f2.alg", "idempotents", [["1", "1"]])]
)

# the commands that read each kind of bundled document, the validating one first
READERS = {".alg": ["algebra-info", "profile"],
           ".mod": ["module-info", "gpd", "gid", "resolve", "totalize"],
           ".ext": ["frobenius-verify", "transfer-check", "glgdim-check", "triequiv-check"],
           ".bimod": ["frobenius-verify", "triequiv-check"],
           ".cpx": ["complex-check"]}


def _bundled_copy(tmp_path) -> Path:
    """The bundled files in a scratch directory, so algebra references resolve."""
    shutil.copytree(Path(gorhom.__file__).parent / "data", tmp_path, dirs_exist_ok=True)
    return tmp_path


@pytest.mark.parametrize("name, field, value", WRONG_TYPES)
def test_wrong_typed_field_exits_2(runner, tmp_path, name, field, value):
    bad = _bundled_copy(tmp_path) / name
    doc = json.loads(bad.read_text())
    doc[field] = value
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [READERS[bad.suffix][0], str(bad)])
    assert result.exit_code == 2
    assert "input error" in result.output


# (file, field, value, what the input error says): each names the field, not
# the Python type that met the wrong value
NAMED_FIELDS = (
    [("a2.alg", "field", v, "field must be an object") for v in (2, True, 1.5, None, [], "2")]
    + [("a2.alg", "field", {}, "missing field 'char'")]
    + [(name, key, v, f"{key} must be an algebra document or the path of one")
       for name, key in (("a2_s1.mod", "algebra"), ("f2_f2c2.ext", "base"),
                         ("f2_f2c2.ext", "total"), ("morita_col.bimod", "left"),
                         ("a2_stalk.cpx", "algebra"))
       for v in (5, 1.5, [])]
    + [("a2_s1.mod", "action", 1.5, "action must be a list"),
       ("morita_col.bimod", "rightAction", 2, "rightAction must be a list"),
       ("a2_stalk.cpx", "components", 1, "components must be a list"),
       ("a2_stalk.cpx", "support", [0, 0, 0], "support must be a pair"),
       ("a2_stalk.cpx", "differentials", [[]], "too many differentials: 1 for 1 components"),
       ("a2_s1.mod", "dim", -1, "dim must be at least 0, got -1"),
       ("morita_col.bimod", "dim", -1, "dim must be at least 0, got -1")]
)


@pytest.mark.parametrize("name, field, value, message", NAMED_FIELDS)
def test_a_wrong_field_exits_2_naming_it(runner, tmp_path, name, field, value, message):
    bad = _bundled_copy(tmp_path) / name
    doc = json.loads(bad.read_text())
    doc[field] = value
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [READERS[bad.suffix][0], str(bad)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert message in result.stderr


@pytest.mark.parametrize("name, field", [("a2.alg", "field"), ("a2_s1.mod", "dim"),
                                         ("f2_f2c2.ext", "total"),
                                         ("morita_col.bimod", "leftAction"),
                                         ("a2_stalk.cpx", "differentials")])
def test_a_missing_field_exits_2_naming_it(runner, tmp_path, name, field):
    bad = _bundled_copy(tmp_path) / name
    doc = json.loads(bad.read_text())
    del doc[field]
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [READERS[bad.suffix][0], str(bad)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert f"document: missing field '{field}'" in result.stderr


@pytest.mark.parametrize("name, field", [("a2_s1.mod", "algebra"), ("f2_f2c2.ext", "base"),
                                         ("f2_f2c2.ext", "total"), ("morita_col.bimod", "left"),
                                         ("morita_col.bimod", "right"),
                                         ("a2_stalk.cpx", "algebra")])
def test_a_missing_algebra_file_exits_2_naming_its_field(runner, tmp_path, name, field):
    bad = _bundled_copy(tmp_path) / name
    doc = json.loads(bad.read_text())
    doc[field] = "no_such.alg"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [READERS[bad.suffix][0], str(bad)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (f"input error: {field}: cannot read {tmp_path / 'no_such.alg'}: "
                             "No such file or directory\n")


# (file, path to a flat row-major matrix list inside the document)
FLAT_MATRICES = [
    ("a2_s1.mod", ("action", 1)),
    ("a2_stalk.cpx", ("components", 0, "action", 0)),
    ("a2_f.cpx", ("differentials", 0)),
    ("f2_f2c2.ext", ("embedding",)),
    ("morita_col.bimod", ("leftAction", 2)),
    ("morita_col.bimod", ("rightAction", 0)),
]


@pytest.mark.parametrize("name, path", FLAT_MATRICES)
def test_extra_matrix_entry_exits_2(runner, tmp_path, name, path):
    from gorhom.corpus import complex_corpus
    from gorhom.homology import save_complex

    target = _bundled_copy(tmp_path) / name
    if name == "a2_f.cpx":   # F of a simple over a2: components in degrees 0 and 1
        save_complex(complex_corpus()[4], target, algebra_ref="a2.alg")
    assert runner.invoke(main, [READERS[target.suffix][0], str(target)]).exit_code == 0
    doc = json.loads(target.read_text())
    flat = doc
    for key in path:
        flat = flat[key]
    flat.append("0")
    target.write_text(json.dumps(doc))
    result = runner.invoke(main, [READERS[target.suffix][0], str(target)])
    assert result.exit_code == 2
    assert "input error" in result.output


# (file, action matrix, flat entry flipped, the law the message names); a2's
# generators are e1 and a, so e2's matrix is checked only through products
CORRUPTED_ACTIONS = [
    ("a2_s1.mod", 1, 0, "the unit does not act as the identity"),
    ("a2_s1.mod", 2, 0, "structure constants violated at (e1, a)"),
    ("a2_regular.mod", 2, 4, "structure constants violated at (a, e1)"),
]


@pytest.mark.parametrize("name, index, entry, law", CORRUPTED_ACTIONS)
@pytest.mark.parametrize("command", ["module-info", "gpd"])
def test_a_wrong_action_entry_exits_2_naming_the_law(runner, tmp_path, command, name, index,
                                                      entry, law):
    bad = _bundled_copy(tmp_path) / name
    doc = json.loads(bad.read_text())
    flat = doc["action"][index]
    flat[entry] = "1" if flat[entry] == "0" else "0"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, str(bad)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"input error: {law}" in result.output


# (cell (i, j) of a2's table, coordinate flipped, the law the message names);
# every cell with e1 or e2 on a side moves a product with the unit e1 + e2,
# so only a*a is caught by associativity alone
CORRUPTED_TABLE_ENTRIES = [
    ((0, 0), 0, "unit law fails at basis element e1"),
    ((1, 2), 2, "unit law fails at basis element a"),
    ((2, 2), 0, "associativity fails at (e1, a, a)"),
    ((2, 2), 1, "associativity fails at (a, e1, a)"),
]


@pytest.mark.parametrize("cell, entry, law", CORRUPTED_TABLE_ENTRIES)
@pytest.mark.parametrize("command", ["algebra-info", "profile"])
def test_a_wrong_table_entry_exits_2_naming_the_law(runner, tmp_path, command, cell, entry,
                                                     law):
    bad = _bundled_copy(tmp_path) / "a2.alg"
    doc = json.loads(bad.read_text())
    flat = doc["table"][cell[0]][cell[1]]
    flat[entry] = "1" if flat[entry] == "0" else "0"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, str(bad)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"input error: {law}" in result.output


# one cheap valid invocation of every command: the arguments after its name
# (a command missing here fails the tests below with a KeyError)
CHEAP_INVOCATIONS = {
    "algebra-info": ["f2.alg"], "module-info": ["a2_s1.mod"], "profile": ["a2.alg"],
    "gpd": ["a2_s1.mod"], "gid": ["a2_s1.mod"], "resolve": ["a2_s1.mod"],
    "totalize": ["a2_s1.mod"], "frobenius-verify": ["id_f2.ext"],
    "transfer-check": ["id_f2.ext"], "glgdim-check": ["id_f2.ext"],
    "counterexample-product": [], "triequiv-check": ["id_f2.ext"],
    "complex-check": ["a2_stalk.cpx"], "suite": ["--bound", "1"],
}
PATH_COMMANDS = sorted(name for name, (_run, _help, params) in cli.COMMANDS.items()
                       if ("path",) in [names for names, _spec in params])


@pytest.mark.parametrize("name", PATH_COMMANDS)
def test_a_missing_file_exits_2_with_nothing_on_stdout(runner, name):
    result = runner.invoke(main, [name, "definitely_not_there.dat"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("input error: no such file: definitely_not_there.dat")
    assert result.stdout == ""


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_an_unwritable_out_exits_2(runner, tmp_path, name):
    target = tmp_path / "no_such_directory" / "report.txt"
    result = runner.invoke(main, [name, *CHEAP_INVOCATIONS[name], "--out", str(target)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("input error:")
    assert result.stdout == ""
    assert not target.parent.exists()


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_the_exit_code_is_1_exactly_when_the_report_failed(runner, name):
    result = runner.invoke(main, [name, *CHEAP_INVOCATIONS[name], "--format", "json"])
    report = json.loads(result.stdout)
    assert result.exit_code == (1 if report["passed"] is False else 0)


def test_an_uncertified_profile_exits_1(runner, tmp_path):
    # k<x,y>/(all paths of length 2) is not Gorenstein: no bound certifies it
    from gorhom.algebra import Quiver, path_algebra, save_algebra
    from gorhom.exactlin import FieldSpec

    q = Quiver(1, arrows=((0, 0, "x"), (0, 0, "y")),
               relations=tuple(((pair, 1),) for pair in
                               (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"))))
    save_algebra(path_algebra(q, FieldSpec(2)), tmp_path / "two_loops.alg")
    result = runner.invoke(main, ["profile", str(tmp_path / "two_loops.alg"), "--bound", "3",
                                  "--format", "json"])
    assert json.loads(result.stdout)["passed"] is False
    assert result.exit_code == 1
    assert result.stderr == ""


def test_byte_identical_reports(runner):
    a = runner.invoke(main, ["profile", "f2c2.alg", "--format", "json", "--seed", "7"])
    b = runner.invoke(main, ["profile", "f2c2.alg", "--format", "json", "--seed", "7"])
    assert a.output == b.output
    assert a.exit_code == 0


def test_json_format_parses(runner):
    result = runner.invoke(main, ["algebra-info", "nak2.alg", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["dimension"] == 4
    assert doc["radical_dimension"] == 2


def test_csv_format(runner):
    result = runner.invoke(main, ["module-info", "a2_s1.mod", "--format", "csv"])
    assert result.exit_code == 0
    assert "meta,dimension,1" in result.output


def test_gpd_and_gid_commands(runner):
    result = runner.invoke(main, ["gpd", "a2_s1.mod"])
    assert result.exit_code == 0
    assert "gpd: 1" in result.output
    result = runner.invoke(main, ["gid", "a2_s1.mod"])
    assert result.exit_code == 0
    assert "gid: 0" in result.output


def test_resolve_command_reports_periodicity(runner):
    result = runner.invoke(main, ["resolve", "f2c2_simple.mod", "--bound", "4"])
    assert result.exit_code == 0
    assert "complete: False" in result.output
    assert ">= 4" in result.output


@pytest.mark.parametrize("path, extra, dims, complete, length", [
    ("a2_s1.mod", [], "[1]", "True", "0"),
    ("a2_regular.mod", [], "[4, 1]", "True", "1"),
    ("f2c2_simple.mod", ["--bound", "6"], "[2, 2, 2, 2, 2, 2, 2]", "False", ">= 6"),
])
def test_injective_resolve_command(runner, path, extra, dims, complete, length):
    # the coresolution is read off the projective resolution of the dual
    result = runner.invoke(main, ["resolve", path, "--direction", "injective", *extra])
    assert result.exit_code == 0
    assert result.output == (f"injective resolution of {path}\n"
                             f"  term_dimensions: {dims}\n"
                             f"  complete: {complete}\n"
                             f"  length: {length}\n"
                             f"  passed: True\n")


# the whole stdout of triequiv-check, every unit and counit row of each pair
TRIEQUIV_OUTPUTS = [
    ("f2_f2c2.ext",
     "stable-category conditions for f2_f2c2.ext\n"
     "  law: unit cokernels and counit kernels govern the induced equivalences\n"
     "  stable_gp_condition: False\n"
     "  singularity_condition: False\n"
     "  defect_condition: True\n"
     "  both_projective_condition: False\n"
     "  stable_hom_match_forward: True\n"
     "  stable_hom_match_backward: False\n"
     "  passed: True\n"
     "  - cok_dim=1  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 1  x_gp=yes\n"
     "  - cok_dim=1  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 1  x_gp=yes\n"
     "  - cok_dim=1  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 1  x_gp=yes\n"
     "  - cok_dim=1  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 1  x_gp=yes\n"
     "  - ker_dim=1  ker_gpd=0  ker_pd=>= 20  ker_projective=False  object=B dim 1  y_gp=yes\n"
     "  - ker_dim=2  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 2  y_gp=yes\n"
     "  - ker_dim=2  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 2  y_gp=yes\n"
     "  - ker_dim=2  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 2  y_gp=yes\n"),
    ("id_nak2.ext",
     "stable-category conditions for id_nak2.ext\n"
     "  law: unit cokernels and counit kernels govern the induced equivalences\n"
     "  stable_gp_condition: True\n"
     "  singularity_condition: True\n"
     "  defect_condition: True\n"
     "  both_projective_condition: True\n"
     "  stable_hom_match_forward: True\n"
     "  stable_hom_match_backward: True\n"
     "  passed: True\n"
     "  - cok_dim=0  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 1  x_gp=yes\n"
     "  - cok_dim=0  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 1  x_gp=yes\n"
     "  - cok_dim=0  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 2  x_gp=yes\n"
     "  - cok_dim=0  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 2  x_gp=yes\n"
     "  - ker_dim=0  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 1  y_gp=yes\n"
     "  - ker_dim=0  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 1  y_gp=yes\n"
     "  - ker_dim=0  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 2  y_gp=yes\n"
     "  - ker_dim=0  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 2  y_gp=yes\n"),
    ("morita_col.bimod",
     "stable-category conditions for morita_col.bimod\n"
     "  law: unit cokernels and counit kernels govern the induced equivalences\n"
     "  stable_gp_condition: True\n"
     "  singularity_condition: True\n"
     "  defect_condition: True\n"
     "  both_projective_condition: True\n"
     "  stable_hom_match_forward: True\n"
     "  stable_hom_match_backward: True\n"
     "  passed: True\n"
     "  - cok_dim=0  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 1  x_gp=yes\n"
     "  - cok_dim=0  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 2  x_gp=yes\n"
     "  - cok_dim=0  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 2  x_gp=yes\n"
     "  - cok_dim=0  cok_gpd=0  cok_pd=0  cok_projective=True  object=A dim 2  x_gp=yes\n"
     "  - ker_dim=0  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 2  y_gp=yes\n"
     "  - ker_dim=0  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 2  y_gp=yes\n"
     "  - ker_dim=0  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 4  y_gp=yes\n"
     "  - ker_dim=0  ker_gpd=0  ker_pd=0  ker_projective=True  object=B dim 4  y_gp=yes\n"),
]


@pytest.mark.parametrize("path, expected", TRIEQUIV_OUTPUTS)
def test_triequiv_check_command(runner, path, expected):
    result = runner.invoke(main, ["triequiv-check", path])
    assert result.exit_code == 0
    assert result.output == expected


def test_totalize_command(runner):
    result = runner.invoke(main, ["totalize", "a2_s1.mod"])
    assert result.exit_code == 0
    assert "identities_violated: 0" in result.output
    assert "z0_gorenstein_projective: yes" in result.output


def test_bundled_complex_check_report(runner):
    result = runner.invoke(main, ["complex-check"])
    assert result.exit_code == 0
    assert result.output == (
        "bundled complex suite\n"
        "  law: the forgetful functor from complexes is Frobenius and "
        "Gorenstein projectivity is componentwise\n"
        "  details: 24 complexes checked componentwise\n"
        "  passed: True\n"
    )


def test_frobenius_verify_yes_and_no(runner, tmp_path):
    result = runner.invoke(main, ["frobenius-verify", "f2_f2x2.ext"])
    assert result.exit_code == 0
    assert "verdict: yes" in result.output
    # build an extension that is certified non-Frobenius
    from gorhom.algebra import save_algebra
    from gorhom.corpus import corpus_algebra
    from gorhom.exactlin import Mat
    from gorhom.frobenius import RingExtension, save_extension

    f2 = corpus_algebra("f2")
    a2 = corpus_algebra("a2")
    ext = RingExtension(f2, a2, Mat.from_cols(f2.field, [a2.unit]))
    save_algebra(f2, tmp_path / "f2.alg")
    save_algebra(a2, tmp_path / "a2.alg")
    save_extension(ext, tmp_path / "f2_a2.ext", base_ref="f2.alg", total_ref="a2.alg")
    result = runner.invoke(main, ["frobenius-verify", str(tmp_path / "f2_a2.ext")])
    assert result.exit_code == 0
    assert "verdict: no" in result.output


def test_counterexample_product_exits_zero(runner):
    result = runner.invoke(main, ["counterexample-product"])
    assert result.exit_code == 0
    assert "passed: True" in result.output


@pytest.mark.parametrize("option", ["--block"])
def test_an_unknown_corpus_name_exits_2(runner, option):
    result = runner.invoke(main, ["counterexample-product", option, "zz"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == "input error: unknown corpus algebra 'zz'\n"
    assert result.stdout == ""


def test_the_other_factor_is_not_an_option(runner):
    # the designated module is an a2 simple, so the other factor is a2
    result = runner.invoke(main, ["counterexample-product", "--other", "zz"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "unrecognized arguments: --other zz" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_glgdim_check(runner):
    result = runner.invoke(main, ["glgdim-check", "f3_f3c3.ext"])
    assert result.exit_code == 0
    assert "base: 0" in result.output and "total: 0" in result.output


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "report.json"
    result = runner.invoke(main, ["profile", "f2.alg", "--format", "json",
                                  "--out", str(target)])
    assert result.exit_code == 0
    doc = json.loads(target.read_text())
    assert doc["gorenstein-dim"] == 0


def _newly_loaded_modules(argv) -> set:
    """The modules a fresh process loads from the import of gorhom.cli on,
    running main(argv); a site hook's imports are older."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from gorhom.cli import main\n"
              "try:\n"
              f"    main({argv!r})\n"
              "except SystemExit as exc:\n"
              "    assert exc.code == 0, exc.code\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gorhom.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_algebra_info_loads_only_the_layers_it_uses():
    # each command imports its own layers, so a fresh process running
    # algebra-info never loads the homological or Frobenius layers
    loaded = _newly_loaded_modules(["algebra-info", "f2.alg"])
    assert "gorhom.algebra" in loaded and "gorhom.modrep" in loaded
    for layer in ("frobenius", "homology", "dgcplx", "corpus", "suite"):
        assert f"gorhom.{layer}" not in loaded


def test_complex_check_of_a_file_loads_neither_the_suite_nor_the_corpus():
    loaded = _newly_loaded_modules(["complex-check", "a2_stalk.cpx"])
    assert "gorhom.dgcplx" in loaded and "gorhom.homology" in loaded
    assert "gorhom.suite" not in loaded and "gorhom.corpus" not in loaded


@pytest.mark.parametrize("argv", [["algebra-info", "f2.alg"], ["gpd", "a2_s1.mod"],
                                  ["frobenius-verify", "f2_f2c2.ext"]])
def test_a_command_imports_neither_click_nor_dataclasses_nor_inspect(argv):
    # start-up is most of a short command's time: the package and its
    # command line load no third-party module and no dataclasses, whose
    # import pulls in inspect
    loaded = _newly_loaded_modules(argv)
    assert "gorhom.cli" in loaded
    assert not {"click", "dataclasses", "inspect"} & loaded


@pytest.mark.parametrize("name", [None, *cli.COMMANDS])
def test_help_exits_0_and_names_every_parameter(runner, name):
    result = runner.invoke(main, ["--help"] if name is None else [name, "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    if name is None:
        assert all(command in result.stdout for command in cli.COMMANDS)
    else:
        _run, _help, params = cli.COMMANDS[name]
        assert all(names[0] in result.stdout for names, _spec in params)


@pytest.mark.parametrize("argv", [
    ["bogus"], [], ["gpd", "a2_s1.mod", "--bogus"], ["gpd", "a2_s1.mod", "--bound", "0"],
    ["gpd", "a2_s1.mod", "--bound", "x"], ["gpd", "a2_s1.mod", "--format", "xml"],
    ["gpd", "a2_s1.mod", "--format", "xml", "--format", "json"],
    ["resolve", "a2_s1.mod", "--direction", "sideways"], ["gpd"],
])
def test_a_usage_error_exits_2_with_nothing_on_stdout(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "usage: gorhom" in result.stderr
    assert "Traceback" not in result.stderr


def test_main_keeps_the_keyword_spelling_the_benchmark_worker_calls(capsys):
    # perfbench/worker.py runs its traced cli commands as
    # main.main(args=[...], prog_name="gorhom")
    with pytest.raises(SystemExit) as done:
        main.main(args=["gpd", "a2_s1.mod", "--format", "json"], prog_name="gorhom")
    assert done.value.code == 0
    assert json.loads(capsys.readouterr().out)["gpd"] == 1


# --- seeded document fuzz ---------------------------------------------------------

FUZZ_VALUES = [None, -1, 0, 1.5, True, "x", "1/0", [], {}, 10 ** 6]
PYTHON_WORDING = "object is not|indices must be|Errno"


def mutated(doc, rng):
    """A copy of a JSON document with one slot changed: a key dropped, its
    value swapped for one of FUZZ_VALUES, or a list entry dropped or
    duplicated.  The slot is found by walking down from the root, going on
    into a nonempty container with even odds."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and rng.random() < 0.5):
            break
        node = child
    edit = rng.choice(["drop", "swap"] + (["duplicate"] if isinstance(node, list) else []))
    if edit == "drop":
        del node[key]
    elif edit == "swap":
        node[key] = rng.choice(FUZZ_VALUES)
    else:
        node.insert(key, node[key])
    return doc


@pytest.mark.parametrize("suffix", sorted(READERS))
def test_a_mutated_document_exits_0_1_or_2_without_a_traceback(runner, tmp_path, suffix):
    # 1-3 mutants of each bundled document, written next to the bundled
    # files so that their algebra references resolve, through every command
    # that reads them; an input error writes nothing on stdout
    rng, data, faults = random.Random(0), _bundled_copy(tmp_path), []
    for path in sorted(data.glob("*" + suffix)):
        doc = json.loads(path.read_text())
        for k in range(rng.randint(1, 3)):
            mutant = data / f"mutant{k}_{path.name}"
            mutant.write_text(json.dumps(mutated(doc, rng)))
            for command in READERS[suffix]:
                case = f"{command} {mutant.name}"
                try:
                    result = runner.invoke(main, [command, str(mutant), "--bound", "4"])
                except Exception as exc:  # noqa: BLE001 - every escape is a finding
                    faults.append(f"{case}: {exc!r}")
                    continue
                if result.exit_code not in (0, 1, 2) or (result.exit_code == 2 and result.stdout):
                    faults.append(f"{case}: exit {result.exit_code}, stdout {result.stdout!r}")
                # an input error names the field, not the Python type it met
                if result.exit_code == 2 and re.search(PYTHON_WORDING, result.stderr):
                    faults.append(f"{case}: {result.stderr.strip()}")
    assert faults == []
