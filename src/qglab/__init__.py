"""qglab: numerical laboratory for critical-contrast periodic quantum graphs.

Fiber operators on three reference periodicity cells, their Weyl M-matrices
and closed-form resolvents, effective (homogenised) models with out-of-space
dilations, dispersion functions and limiting band structure, and the
time-dispersive models on the real line — together with the experiment
harness that certifies the O(eps^2) convergence rates connecting them.

``import qglab`` loads no module; import each layer from its module
(``from qglab.graphs import build_example``).  The closed-form layers
(``graphs``, ``mmatrix``, ``triples``, ``dispersion``, ``realline``) need only
numpy.  scipy is imported inside the calls that use it, which are those of
the FEM oracle (``fdsolver.DiscretizedOperator``: ``scipy.sparse`` and
``scipy.sparse.linalg``).  ``band_roots`` refines its roots by its own false
position in ``dispersion``, so no module loads ``scipy.optimize``.
"""

__version__ = "0.1.0"
