"""s3flow: curvature-driven flows of surfaces immersed in the unit 3-sphere.

Subpackages
-----------
s3core     quaternion algebra, great-circle geometry, Hopf projection
mesh       immersed triangle meshes, test-surface generators, curvature
speeds     speed functions, the (H, G) decomposition, admissibility
flow       explicit time integration, pinching monitor, stop detection
gaussmaps  left/right translation Gauss maps and degeneracy measure
s2curves   closed curves on S2, curve-shortening flow, Weiner conditions
cli        config-driven scenario runner and exporters
"""

# cli is not imported here: ``python -m s3flow.cli`` would then find it
# imported already and warn (RuntimeWarning) before running it
from . import flow, gaussmaps, mesh, s2curves, s3core, speeds

__all__ = ["s3core", "mesh", "speeds", "flow", "gaussmaps", "s2curves", "cli"]
__version__ = "0.1.0"
