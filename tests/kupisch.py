"""The module category of a Nakayama algebra from its Kupisch series alone.

An oracle for pd, gpd and Gorenstein projectivity that shares no code with
gorhom and does no linear algebra: every statement below is arithmetic on
pairs of integers.

Over a Nakayama algebra every indecomposable module is uniserial, fixed by
its top i and its length l: P_i/rad^l P_i with 1 <= l <= c_i, where c_i is
the length of P_i (the Kupisch series) and sigma(i) is the top of rad P_i
(Assem–Simson–Skowroński, Elements of the Representation Theory of
Associative Algebras, vol. 1, ch. V).  The projective cover of (i, l) is
P_i = (i, c_i), so its syzygy is the uniserial (sigma^l(i), c_i - l), zero
when l = c_i.  (i, l) is injective exactly when it is not the radical
(sigma(j), c) of a longer uniserial (j, c + 1).

Over a d-Gorenstein algebra the Gorenstein projective modules are the
projectives and the d-th syzygies, up to projective summands (Enochs and
Jenda, Relative Homological Algebra, ch. 10-11), so the indecomposable GP
modules are the projectives and the nonzero Omega^d(X), and
gpd(X) = min{n : Omega^n(X) is GP or zero}.
"""

from typing import List, Optional, Sequence, Tuple

Uniserial = Tuple[int, int]   # (top, length)


class Kupisch:
    def __init__(self, lengths: Sequence[int], sigma: Sequence[int]):
        self.lengths = tuple(lengths)
        self.sigma = tuple(sigma)

    def modules(self) -> List[Uniserial]:
        """Every indecomposable, by top and then by length."""
        return [(i, l) for i, c in enumerate(self.lengths) for l in range(1, c + 1)]

    def is_projective(self, x: Uniserial) -> bool:
        return x[1] == self.lengths[x[0]]

    def is_injective(self, x: Uniserial) -> bool:
        i, l = x
        return not any(self.sigma[j] == i and self.lengths[j] >= l + 1
                       for j in range(len(self.lengths)))

    def syzygy(self, x: Optional[Uniserial]) -> Optional[Uniserial]:
        """Omega(x); None is the zero module."""
        if x is None or self.is_projective(x):
            return None
        i, l = x
        top = i
        for _ in range(l):
            top = self.sigma[top]
        return (top, self.lengths[i] - l)

    def pd(self, x: Uniserial, bound: int) -> Optional[int]:
        """The projective dimension, or None when it exceeds bound."""
        for n in range(bound + 1):
            if self.is_projective(x):
                return n
            x = self.syzygy(x)
        return None

    def gorenstein_dimension(self, bound: int = 20) -> int:
        """max pd over the indecomposable injectives; it must be finite."""
        pds = [self.pd(x, bound) for x in self.modules() if self.is_injective(x)]
        assert None not in pds, "not Gorenstein within the bound"
        return max(pds)

    def gorenstein_projectives(self) -> set:
        d = self.gorenstein_dimension()
        gp = {x for x in self.modules() if self.is_projective(x)}
        for x in self.modules():
            y = x
            for _ in range(d):
                y = self.syzygy(y)
            if y is not None:
                gp.add(y)
        return gp

    def gpd(self, x: Uniserial) -> int:
        gp = self.gorenstein_projectives()
        n = 0
        while x is not None and x not in gp:
            x, n = self.syzygy(x), n + 1
        return n
