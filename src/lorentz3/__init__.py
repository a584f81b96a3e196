"""lorentz3: 3-dimensional homogeneous Lorentzian plane waves.

From a derivation of the Heisenberg algebra this package builds the
4-dimensional extension algebra and its invariant Lorentz metric, decides
the isometry class of the resulting homogeneous space (with the exact
rational invariant b), realizes it in Brinkmann or Rosen coordinates, and
verifies curvature, Killing, completeness, and compact-model claims both
in closed form and against finite-difference oracles.

Submodules are not imported here, so that commands which never integrate a
geodesic do not load the geodesic layer; import the one you need.  The
only runtime dependency is numpy.
"""

__version__ = "0.1.0"

__all__ = ["classifier", "geodesics", "geometry", "lie_core", "metric_builder", "__version__"]
