"""Which speeds preserve positive intrinsic curvature?

Writing G = (k1 - k2)^2 - phi(H)^2 with phi = sqrt(4 + H^2) puts the zero
set of the intrinsic curvature 1 + k1 k2 on the boundary {G = 0}.  A flow
with speed f(H) preserves the good side exactly when f''/f' sits between
two bounds built from phi; for this phi both bounds collapse onto the
single curve -2H/(4 + H^2), forcing f = C1 + C2 arctan(H/2).  Mean
curvature flow itself fails the test: its ratio is identically zero.
"""

import numpy as np

from s3flow.speeds import (
    Profile,
    admissibility_bounds,
    candidate_affine_arctan,
    check_admissible,
    phi_pinch,
)

phi = phi_pinch()
H = np.array([-10.0, -2.0, 0.0, 2.0, 10.0])
lower, upper = admissibility_bounds(phi, H)
print("bounds for phi = sqrt(4 + H^2):")
print(f"{'H':>6}  {'lower':>10}  {'upper':>10}  {'-2H/(4+H^2)':>12}")
for h, lo, up in zip(H, lower, upper):
    print(f"{h:6.1f}  {lo:10.6f}  {up:10.6f}  {-2 * h / (4 + h * h):12.6f}")

grid = np.linspace(-10, 10, 2001)
candidates = [
    candidate_affine_arctan(0.0, 1.0),
    candidate_affine_arctan(0.3, 2.5),
    Profile(lambda h: h, lambda h: np.ones_like(h), lambda h: np.zeros_like(h),
            "H (mean curvature)"),
    Profile(lambda h: h ** 3 + h, lambda h: 3 * h * h + 1, lambda h: 6 * h, "H^3 + H"),
    Profile(np.exp, np.exp, np.exp, "exp(H)"),
]
print("\ncandidate speeds on H in [-10, 10]:")
for cand in candidates:
    rep = check_admissible(cand, phi, grid)
    verdict = "admissible" if rep.verdict else "rejected"
    print(f"  {cand.name:24s} {verdict:12s} worst margin {rep.worst_margin:+.3f}")
