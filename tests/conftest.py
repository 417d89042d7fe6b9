import gc
import io
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest

from gorhom.algebra import field_algebra, truncated_extension
from gorhom.exactlin import FieldSpec, Mat
from gorhom.modrep import Module


@pytest.fixture()
def retained_bytes():
    """measure(call, repeats): the bytes still allocated per call after
    `repeats` calls of a warmed-up call and a garbage collection: the
    median such figure over three consecutive batches of `repeats` calls.
    A one-off, such as the first growth of a long-lived memo table or a
    call that finds its module already interned, lands in one batch only,
    which the median ignores; a per-call leak shows in all three.

    Before the calls, modules of 2048 new contents are built and dropped
    while traced.  Each takes a new slot of the module intern table, whose
    size follows every module alive in the process, so the table
    reallocates its storage then, unless over 1365 modules are alive.  A
    reallocation during the calls then frees a traced block and counts what
    the table grew, not the whole size of a block allocated before tracing."""
    dual = truncated_extension(field_algebra(FieldSpec(65521)), 2)[0]
    one = Mat.identity(dual.field, 2)

    def measure(call, repeats: int) -> float:
        call()
        tracemalloc.start()
        try:
            for c in range(1, 2049):
                Module(dual, [one, Mat(dual.field, [[0, 0], [c, 0]])])
            gc.collect()
            totals = [tracemalloc.get_traced_memory()[0]]
            for _ in range(3):
                for _ in range(repeats):
                    call()
                gc.collect()
                totals.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        batches = sorted(after - before for before, after in zip(totals, totals[1:]))
        return batches[1] / repeats

    return measure


@pytest.fixture()
def in_new_basis():
    """rebase(m, seed=0): (T^-1·rho·T, T^-1) for the first seeded random
    invertible T that changes some action matrix, so a module of new content
    (a new object, with no memos, since modules are interned by content)
    and the isomorphism from m to it.  Raises when no such T is found: when
    every action is a scalar, as on a 1-dimensional module over F_2, every
    basis gives m itself."""

    def rebase(m, seed=0):
        field, rng = m.algebra.field, random.Random(seed)
        p = field.characteristic
        for _ in range(100):
            t = Mat(field, [[rng.randrange(p) if p else rng.randint(-2, 2)
                             for _ in range(m.dim)] for _ in range(m.dim)])
            if not t.is_invertible():
                continue
            tinv = t.inverse()
            acts = [tinv * a * t for a in m.action]
            if acts != list(m.action):
                return Module(m.algebra, acts), tinv
        raise AssertionError(f"no basis gives {m!r} new content")

    return rebase


class _Tee(io.StringIO):
    """A captured stream that also writes into `mixed`, the two streams
    interleaved as a terminal shows them."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self._mixed = mixed

    def write(self, text: str) -> int:
        self._mixed.write(text)
        return super().write(text)


class CliRunner:
    """Runs a command-line entry point in this process.  The result holds
    its exit code, stdout, stderr, both interleaved (`output`), and the
    SystemExit of a nonzero exit (`exception`, None on exit 0)."""

    def invoke(self, main, args) -> SimpleNamespace:
        mixed = io.StringIO()
        out, err = _Tee(mixed), _Tee(mixed)
        code, exception = 0, None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                if exc.code:
                    code, exception = exc.code, exc
        return SimpleNamespace(exit_code=code, exception=exception, stdout=out.getvalue(),
                               stderr=err.getvalue(), output=mixed.getvalue())


@pytest.fixture()
def runner():
    return CliRunner()
