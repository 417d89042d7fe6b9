"""Tests of the benchmark harness itself (not of gorhom).

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest(workload):
    gen = workloads.GENERATORS[workload]
    assert workloads.digest(gen(3)) == workloads.digest(gen(3))
    assert workloads.digest(gen(3)) != workloads.digest(gen(4))


def test_recorded_digests():
    recorded = json.loads((HERE / "reference" / "digests.json").read_text())
    for workload, by_seed in recorded.items():
        for seed, digest in by_seed.items():
            assert workloads.digest(workloads.GENERATORS[workload](int(seed))) == digest


def test_seed_changes_bases_not_sizes():
    a, b = workloads.gorenstein_inputs(1), workloads.gorenstein_inputs(2)
    for ea, eb in zip(a["algebras"], b["algebras"]):
        count, cap, _ = workloads.GORENSTEIN_PLAN[ea["name"]]
        assert len(ea["modules"]) == len(eb["modules"]) == count
        for m in ea["modules"] + eb["modules"]:
            assert 1 <= m["doc"]["dim"] <= cap


def _originals():
    out = {}
    for _, module, attr in layertrace.SPANS + layertrace.COUNTERS:
        owner, name = layertrace._resolve(module, attr)
        out[id(getattr(owner, name))] = (module, attr)
    return out


def _bindings():
    """Every (namespace, attribute, value) in gorhom modules and classes."""
    import gorhom.cli  # noqa: F401  (loads every layer)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gorhom" or mod_name.startswith("gorhom."):
            for attr, value in vars(mod).items():
                yield mod_name, attr, value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in vars(value).items():
                        yield f"{mod_name}.{attr}", cattr, cvalue


def test_no_unwrapped_target_after_install():
    originals = _originals()
    before = [b for b in _bindings() if id(b[2]) in originals]
    assert before, "the targets must be bound somewhere"
    with layertrace.Tracer():
        left = [(ns, attr) for ns, attr, value in _bindings() if id(value) in originals]
        assert left == []
    restored = [b for b in _bindings() if id(b[2]) in originals]
    assert [(ns, attr) for ns, attr, _ in restored] == [(ns, attr) for ns, attr, _ in before]


def test_trace_counts_calls_through_every_binding_site():
    from gorhom import algebra, homology

    data = Path(homology.__file__).parent / "data"
    with layertrace.Tracer() as tracer:  # names are looked up after patching
        a = algebra.load_algebra(data / "a2.alg")
        homology.gorenstein_profile(a, 5)
    summary = tracer.summary()
    assert summary["calls"]["algebra.load"] == 1
    assert summary["calls"]["homology.gorenstein_profile"] == 1
    # homology calls rref through its own `from .exactlin import rref` binding
    assert summary["calls"]["exactlin.rref"] > 0
    assert summary["counts"]["exactlin.Mat.new"] > 0


def test_self_time_from_spans():
    # root (0..10) in modrep, child (2..5) in exactlin, grandchild (3..4) in
    # exactlin, and a nested call of the root's own function (6..8).
    names = ["modrep.hom_space", "exactlin.rref"]
    s = layertrace.summarize(
        names, span_name=[0, 1, 1, 0], start=[0, 2, 3, 6], end=[10, 5, 4, 8],
        parent=[-1, 0, 1, 0], nested=[0, 0, 1, 1], extra={})
    assert s["calls"] == {"modrep.hom_space": 2, "exactlin.rref": 2}
    assert s["s"] == {"modrep.hom_space": 10, "exactlin.rref": 3}
    assert s["self"]["modrep"] == (10 - 3 - 2) + 2
    assert s["self"]["exactlin"] == (3 - 1) + 1


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile([float(i) for i in range(50)], 90) is None
    value, count, beyond = run.percentile([float(i) for i in range(200)], 90)
    assert count == 200 and beyond >= run.MIN_BEYOND
    assert 178 < value < 181


def _pass(queries):
    return {"queries": queries}


def test_wrong_answer_counts_as_failed():
    inputs = workloads.gorenstein_inputs(1)
    entry = inputs["algebras"][-1]
    expected = entry["modules"][0]["expected"]
    good = {"gpd": expected["gpd"], "gid": expected["gid"],
            "gp": "yes" if expected["gpd"] == 0 else "no",
            "violated": 0, "z0": "yes", "matches": True, "ext": [[1, 1], [0, 0]]}
    wrong = dict(good, gpd=expected["gpd"] + 1)
    label = f"{entry['name']}/0"
    passes = [_pass([{"label": label, "answer": good, "error": None},
                     {"label": label, "answer": wrong, "error": None},
                     {"label": label, "answer": None, "error": "PropertyViolation: x"}])]
    lines, attempted = run.failures("gorenstein", inputs, passes)
    assert attempted == 3 and len(lines) == 2
    assert run.check_gorenstein(inputs, "profile/a2", {"dims": [1] * 6}) == []
    assert run.check_gorenstein(inputs, "profile/a2", {"dims": [1] * 5 + [0]})


def test_frobenius_and_cli_checks_reject_wrong_answers():
    inputs = workloads.frobenius_inputs(1)
    yes = {"verdict": "yes", "witness": True}
    assert run.check_frobenius(inputs, "certify/f2_f2c2", yes) == []
    assert run.check_frobenius(inputs, "certify/f2_a2", yes)
    assert run.check_frobenius(inputs, "induce/f2_f2c2/0",
                               {"verdict": "inconclusive", "witness": False})
    assert run.check_cli(b"ok\n", 0, b"ok\n") == []
    assert run.check_cli(b"ok\n", 0, b"no\n")
    assert run.check_cli(b"ok\n", 1, b"ok\n")


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(layertrace.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == layertrace.PER_LAYER[m["name"]][0]


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "cli", "--seed", "1",
                                      "--seconds", "1"])
    assert run.main() != 0
    assert capsys.readouterr().out == ""

