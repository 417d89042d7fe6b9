"""gorhom: exact-arithmetic Gorenstein homological algebra workbench.

Submodules:

* exactlin   - dense exact linear algebra over F_p and Q
* algebra    - structure-constant algebras and their constructors
* modrep     - modules as representations, hom spaces, covers, duality
* homology   - resolutions, Ext, Gorenstein profiles, totalization
* frobenius  - bimodule tensor pairs, Frobenius certification
* dgcplx     - the complexes/graded-modules Frobenius pair
* corpus     - the bundled test corpus
* suite      - the bundled verification suite
* cli        - the command-line front end
"""

from .exactlin import FieldSpec, Mat, rref, solve

__all__ = ["FieldSpec", "Mat", "rref", "solve"]

__version__ = "0.1.0"
