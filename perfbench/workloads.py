"""Workload definitions and the seeded input generator.

The generator is plain Python over the frozen summand library in
``reference/summands.json``; it never imports the package being measured.
The same seed therefore gives byte-identical input files on every commit,
and ``digest`` names them.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

BOUND = 20  # the CLI's default resolution bound

# Hand-written Gorenstein dimensions of the corpus algebras.  Fields, the
# truncated polynomial rings, the p-group algebras, the self-injective
# Nakayama algebra and M_2(F_2[x]/x^2) are self-injective (dimension 0);
# the hereditary quiver algebras, A2[x]/x^2 and F_2 x A2 have dimension 1.
GORENSTEIN_DIM = {
    "f2": 0, "f3": 0, "f7": 0, "q": 0, "f2x2": 0, "f2x3": 0, "f2c2": 0,
    "f3c3": 0, "nak2": 0, "m2f2x2": 0,
    "a2": 1, "a3": 1, "a2t2": 1, "prod_f2_a2": 1,
}

# gorenstein: per algebra, the number of modules, the largest module
# dimension and the most summands in one module.  With the module shapes
# (_shapes) they fix the amount of work, whatever the seed.  A non-projective
# module over a2t2 or m2f2x2 costs seconds, growing steeply with its
# dimension, so those two take single summands of dimension 1 (a2t2) and 2
# (m2f2x2, where all of them are the simple module).
GORENSTEIN_PLAN = {
    "f2": (7, 3, 3), "f3": (7, 3, 3), "f7": (7, 3, 3), "q": (7, 3, 3),
    "f2x2": (7, 4, 3), "f2x3": (7, 4, 3), "f2c2": (7, 4, 3), "f3c3": (7, 4, 3),
    "a2": (10, 4, 3), "a3": (10, 3, 3), "nak2": (10, 3, 3), "prod_f2_a2": (10, 4, 3),
    "a2t2": (2, 1, 1), "m2f2x2": (2, 2, 1),
}

# frobenius: the bundled extensions and the bimodule, plus seeded modules
# for the induce/coinduce, transfer and stable-condition tasks.
EXTENSIONS = ["id_f2", "id_nak2", "f2_f2c2", "f3_f3c3", "f2_f2x2", "f2_f2x3", "a2_a2t2"]
EXTENSION_ALGEBRAS = {
    "id_f2": ("f2", "f2"), "id_nak2": ("nak2", "nak2"), "f2_f2c2": ("f2", "f2c2"),
    "f3_f3c3": ("f3", "f3c3"), "f2_f2x2": ("f2", "f2x2"), "f2_f2x3": ("f2", "f2x3"),
    "a2_a2t2": ("a2", "a2t2"),
}
# The transfer table over a2_a2t2 (7 s: it certifies the extension again and
# computes gpd over a2t2) is left out; certify/a2_a2t2 and the gorenstein
# workload's a2t2 modules carry that work.
TRANSFER_EXTENSIONS = ["f2_f2c2", "f3_f3c3", "f2_f2x3"]
INDUCE_MODULES = 14     # seeded base modules per extension
INDUCE_DIM_CAP = 2
TRANSFER_MODULES = 2    # seeded total-algebra modules per transfer extension
TRANSFER_DIM_CAP = 4
TRIEQUIV = {"morita_col": ("f2x2", "m2f2x2"), "a2_a2t2": ("a2", "a2t2")}
TRIEQUIV_MODULES = 1    # seeded modules on each side
TRIEQUIV_DIM_CAP = 4

# cli: short commands on bundled files, each run as its own process.  The
# slow commands (transfer-check a2_a2t2, frobenius-verify a2_a2t2 and
# morita_col) are left out: their work is in the frobenius workload.
CLI_COMMANDS = (
    [["algebra-info", f"{n}.alg"] for n in
     ["f2", "f3", "f7", "q", "f2x2", "f2x3", "f2c2", "f3c3", "f7s3", "a2", "a3",
      "nak2", "a2t2", "m2f2x2", "prod_f2_a2"]]
    + [[cmd, mod] for mod in ["a2_s1.mod", "a2_regular.mod", "f2c2_simple.mod"]
       for cmd in ["module-info", "gpd", "gid", "totalize"]]
    + [["resolve", "f2c2_simple.mod", "--bound", "8"],
       ["profile", "a2t2.alg"], ["profile", "m2f2x2.alg"], ["profile", "prod_f2_a2.alg"],
       ["glgdim-check", "f3_f3c3.ext"],
       ["frobenius-verify", "f2_f2x3.ext"], ["frobenius-verify", "f2_f2c2.ext"],
       ["counterexample-product"],
       ["complex-check", "a2_stalk.cpx"]]
)

WORKLOADS = ("gorenstein", "frobenius", "cli")


# ---------------------------------------------------------------------------
# Exact arithmetic for the change of basis (F_p for p > 0, Q for p = 0)
# ---------------------------------------------------------------------------


def _parse(text: str, p: int):
    if "/" in text:
        num, den = text.split("/")
        value = Fraction(int(num), int(den))
    else:
        value = Fraction(int(text))
    if p:
        return value.numerator * pow(value.denominator, -1, p) % p
    return value


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)


def _matmul(a, b, p):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = sum(a[i][t] * b[t][j] for t in range(k))
            row.append(s % p if p else s)
        out.append(row)
    return out


def _inverse(a, p):
    """Gauss-Jordan inverse, or None when singular."""
    n = len(a)
    one = 1 if p else Fraction(1)
    rows = [list(r) + [one if i == j else 0 * one for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        inv = pow(rows[c][c], -1, p) if p else 1 / rows[c][c]
        rows[c] = [(x * inv) % p if p else x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [((x - f * y) % p if p else x - f * y)
                           for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def _random_invertible(n, p, rng):
    while True:
        if p:
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        else:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        inv = _inverse(m, p)
        if inv is not None:
            return m, inv


# ---------------------------------------------------------------------------
# Modules: seeded direct sums of library summands in a seeded basis
# ---------------------------------------------------------------------------


def load_library() -> dict:
    return json.loads((REFERENCE / "summands.json").read_text())


def _shapes(dims: list, count: int, cap: int, most: int) -> list:
    """Fixed summand lists, independent of the seed: module j takes j % most
    + 1 summands, walking cyclically through the summands of dimension <=
    cap and stopping early at the cap."""
    eligible = [i for i, d in enumerate(dims) if d <= cap]
    shapes, pos = [], 0
    for j in range(count):
        group, total = [], 0
        while len(group) < j % most + 1:
            card = eligible[pos % len(eligible)]
            if group and total + dims[card] > cap:
                break
            group.append(card)
            total += dims[card]
            pos += 1
        shapes.append(group)
    return shapes


def make_module(library: dict, algebra: str, picked: list, rng: random.Random) -> dict:
    """The direct sum of the picked summands, conjugated by a seeded basis change.

    Returns the .mod document plus the expected gpd and gid: both are the
    maxima over the summands (Gorenstein dimensions of a direct sum), and
    neither depends on the basis.
    """
    entry = library[algebra]
    p, adim = entry["char"], entry["algebra_dim"]
    parts = [entry["summands"][i] for i in picked]
    n = sum(s["dim"] for s in parts)
    zero = 0 if p else Fraction(0)
    actions = []
    for k in range(adim):
        block = [[zero] * n for _ in range(n)]
        off = 0
        for s in parts:
            d = s["dim"]
            flat = s["action"][k]
            for i in range(d):
                for j in range(d):
                    block[off + i][off + j] = _parse(flat[i * d + j], p)
            off += d
        actions.append(block)
    basis, basis_inv = _random_invertible(n, p, rng)
    doc = {
        "algebra": f"{algebra}.alg",
        "dim": n,
        "action": [[_fmt(x) for row in _matmul(_matmul(basis_inv, act, p), basis, p)
                    for x in row] for act in actions],
    }
    expected = {"gpd": max(s["gpd"] for s in parts), "gid": max(s["gid"] for s in parts),
                "summands": picked}
    return {"doc": doc, "expected": expected}


def _module_set(library: dict, algebra: str, count: int, cap: int, most: int,
                rng: random.Random) -> list:
    """Modules of a fixed shape in seeded bases.  The seed picks among
    identical copies of a summand (the library repeats some, such as k over
    a field) and picks the basis; the work does not depend on it."""
    summands = library[algebra]["summands"]
    kind = [json.dumps(s["action"]) for s in summands]
    copies = {k: [i for i, other in enumerate(kind) if other == k] for k in kind}
    return [make_module(library, algebra, [rng.choice(copies[kind[i]]) for i in shape], rng)
            for shape in _shapes([s["dim"] for s in summands], count, cap, most)]


# ---------------------------------------------------------------------------
# Inputs per workload
# ---------------------------------------------------------------------------


def gorenstein_inputs(seed: int) -> dict:
    rng = random.Random(f"gorenstein:{seed}")
    library = load_library()
    algebras = []
    for name, (count, cap, most) in GORENSTEIN_PLAN.items():
        mods = _module_set(library, name, count, cap, most, rng)
        algebras.append({"name": name, "modules": mods})
    # Each algebra's profile (and its opposite's, which gid needs) is its
    # own query, asked before the algebra's first module, so that no module
    # query carries the algebra's one-off work.
    modules = [[a, m] for a in range(len(algebras)) for m in range(len(algebras[a]["modules"]))]
    rng.shuffle(modules)
    order, seen = [], set()
    for a, m in modules:
        if a not in seen:
            seen.add(a)
            order.append(["profile", a])
        order.append(["module", a, m])
    return {"workload": "gorenstein", "seed": seed, "bound": BOUND,
            "algebras": algebras, "order": order}


def frobenius_inputs(seed: int) -> dict:
    rng = random.Random(f"frobenius:{seed}")
    library = load_library()
    induce = {name: _module_set(library, EXTENSION_ALGEBRAS[name][0], INDUCE_MODULES,
                                INDUCE_DIM_CAP, 2, rng) for name in EXTENSIONS}
    transfer = {name: _module_set(library, EXTENSION_ALGEBRAS[name][1], TRANSFER_MODULES,
                                  TRANSFER_DIM_CAP, 3, rng) for name in TRANSFER_EXTENSIONS}
    triequiv = {name: [_module_set(library, side, TRIEQUIV_MODULES, TRIEQUIV_DIM_CAP, 3, rng)
                       for side in sides] for name, sides in TRIEQUIV.items()}
    tasks = ([["certify", name] for name in EXTENSIONS + ["morita_col", "f2_a2"]]
             + [["induce", name, i] for name in EXTENSIONS for i in range(INDUCE_MODULES)]
             + [["transfer", name] for name in TRANSFER_EXTENSIONS]
             + [["triequiv", name] for name in TRIEQUIV])
    rng.shuffle(tasks)
    return {"workload": "frobenius", "seed": seed, "bound": BOUND, "search_seed": seed,
            "extensions": EXTENSIONS, "induce": induce, "transfer": transfer, "triequiv": triequiv, "tasks": tasks}


def cli_inputs(seed: int) -> dict:
    rng = random.Random(f"cli:{seed}")
    order = list(range(len(CLI_COMMANDS)))
    rng.shuffle(order)
    return {"workload": "cli", "seed": seed, "commands": CLI_COMMANDS, "order": order}


GENERATORS = {"gorenstein": gorenstein_inputs, "frobenius": frobenius_inputs,
              "cli": cli_inputs}


def digest(inputs: dict) -> str:
    """sha256 of the canonical JSON encoding: equal digests mean identical inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()
