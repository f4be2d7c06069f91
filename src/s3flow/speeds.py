"""Speed functions F(kappa1, kappa2) and the admissibility analysis.

A speed is a symmetric function of the principal curvatures, monotone
increasing in each argument.  The distinguished flow of this package uses

    F = arctan(kappa1) + arctan(kappa2)            on kappa1*kappa2 < 1,
    F = sign(H) * (pi/4) * (kappa1*kappa2 + 1)     on kappa1*kappa2 > 1,

which is Lipschitz, monotone, odd, stationary on minimal surfaces, and
preserves positive intrinsic curvature G = 1 + kappa1*kappa2 > 0.  (On the
product branch with both curvatures negative the formula carries the odd
reflection; without it the branch would be neither continuous against the
arctan branch nor monotone.)

The admissibility machinery works in the variables (H, G) with

    G(kappa1, kappa2) = (kappa1 - kappa2)^2 - phi(H)^2,

so that phi(H) = sqrt(4 + H^2) makes G = -4 (1 + kappa1*kappa2): the zero
sets coincide with the vanishing of the intrinsic curvature.  A flow
F = f(H) preserves {G <= 0} iff the gradient-term coefficients alpha and
beta are non-negative on the boundary, which reduces to the double
inequality

    (1 - phi')/phi - phi''/(1 - phi')
        <= f''/f' <=
    phi''/(1 + phi') - (1 + phi')/phi .

For phi = sqrt(4 + H^2) both sides equal -2H/(4 + H^2) and the admissible
speeds are exactly f = C1 + C2 * arctan(H/2).
"""

from __future__ import annotations

import ast
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class PhiDegenerateWarning(UserWarning):
    """|phi'| = 1: one admissibility bound is unbounded."""


# ---------------------------------------------------------------------------
# speed functions
# ---------------------------------------------------------------------------


FD_STEP = 1e-5  # step of the central differences of Profile.from_callable


@dataclass(frozen=True)
class Profile:
    """A function of the mean curvature H with its first two derivatives:
    a speed f(H) or a profile phi(H)."""

    f: Callable
    d1: Callable
    d2: Callable
    name: str = "f"

    @classmethod
    def from_callable(cls, f, name="f"):
        """``f`` with both derivatives by central differences of step FD_STEP."""

        def d1(h):
            return (f(h + FD_STEP) - f(h - FD_STEP)) / (2.0 * FD_STEP)

        def d2(h):
            return (f(h + FD_STEP) - 2.0 * f(h) + f(h - FD_STEP)) / FD_STEP ** 2

        return cls(f, d1, d2, name)


class SpeedFunction:
    """A symmetric monotone normal speed with derivative access.

    Parameters
    ----------
    name : str
    func : callable (k1, k2) -> F, vectorized
    partials : callable (k1, k2) -> (dF/dk1, dF/dk2), vectorized
    params : tuple, optional
        Constructor arguments, shown in the repr.
    """

    def __init__(self, name, func, partials, params=()):
        self.name = name
        self.params = tuple(params)
        self._func = func
        self._partials = partials

    def __repr__(self):
        return f"SpeedFunction({self.name}{self.params if self.params else ''})"

    def eval(self, k1, k2):
        k1 = np.asarray(k1, dtype=float)
        k2 = np.asarray(k2, dtype=float)
        return self._func(k1, k2)

    __call__ = eval

    def partials(self, k1, k2):
        k1 = np.asarray(k1, dtype=float)
        k2 = np.asarray(k2, dtype=float)
        return self._partials(k1, k2)


def _speed_of_H(profile: Profile, name, params):
    """F(k1, k2) = f(k1 + k2), whose partials are both f'(H)."""

    def val(k1, k2):
        return np.asarray(profile.f(k1 + k2), dtype=float)

    def parts(k1, k2):
        d = np.asarray(profile.d1(k1 + k2), dtype=float)
        return d, d.copy()

    return SpeedFunction(name, val, parts, params)


def _arctan_value(k1, k2):
    prod = k1 * k2
    s = np.where(k1 + k2 >= 0.0, 1.0, -1.0)
    return np.where(
        prod > 1.0,
        s * (np.pi / 4.0) * (prod + 1.0),
        np.arctan(k1) + np.arctan(k2),
    )


def _arctan_partials(k1, k2):
    prod = k1 * k2
    s = np.where(k1 + k2 >= 0.0, 1.0, -1.0)
    branch = prod > 1.0
    d1 = np.where(branch, s * (np.pi / 4.0) * k2, 1.0 / (1.0 + k1 * k1))
    d2 = np.where(branch, s * (np.pi / 4.0) * k1, 1.0 / (1.0 + k2 * k2))
    return d1, d2


def mcf():
    """Mean curvature flow, F = H = kappa1 + kappa2."""
    return _speed_of_H(Profile(lambda h: h, np.ones_like, np.zeros_like, "H"), "mcf", ())


def arctan_speed():
    """The piecewise arctan speed (odd reflection on the negative branch)."""
    return SpeedFunction("arctan", _arctan_value, partials=_arctan_partials)


def affine_arctan(c1, c2):
    """F = C1 + C2 arctan(H / 2), the admissible family for the pinch phi;
    ValueError unless C1 and C2 are finite and C2 > 0 (F increases in H)."""
    if not (np.isfinite(c1) and np.isfinite(c2) and c2 > 0.0):
        raise ValueError(f"affine_arctan needs finite C1 and C2 > 0, got ({c1}, {c2})")
    return _speed_of_H(candidate_affine_arctan(c1, c2), "affine_arctan", (c1, c2))


_FH_FUNCTIONS = {
    "arctan": np.arctan, "atan": np.arctan, "tanh": np.tanh, "exp": np.exp,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "sqrt": np.sqrt,
    "log": np.log, "abs": np.abs,
}
_FH_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
}


def _fH_function(expr):
    """f as a function of the array H, from the expression ``expr``.

    The grammar: numbers, ``H`` and ``pi``; the operators + - * / ** and
    unary + and -; and calls, with one argument, of the functions named in
    ``_FH_FUNCTIONS``.  Python's operators act on the same values in the
    same order as ``eval`` of the expression would, so the result is the
    same to the bit.  Raises ValueError naming the first part outside the
    grammar.
    """
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"custom_fH: cannot parse {expr!r}: {exc.msg}") from None

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda h, c=node.value: c
        if isinstance(node, ast.Name) and node.id in ("H", "pi"):
            return (lambda h: h) if node.id == "H" else (lambda h: np.pi)
        if isinstance(node, ast.BinOp) and type(node.op) in _FH_OPERATORS:
            op, left, right = _FH_OPERATORS[type(node.op)], build(node.left), build(node.right)
            return lambda h: op(left(h), right(h))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _FH_OPERATORS:
            op, arg = _FH_OPERATORS[type(node.op)], build(node.operand)
            return lambda h: op(arg(h))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FH_FUNCTIONS and len(node.args) == 1
                and not node.keywords):
            fn, arg = _FH_FUNCTIONS[node.func.id], build(node.args[0])
            return lambda h: fn(arg(h))
        raise ValueError(f"custom_fH: {ast.unparse(node)!r} is not allowed")

    return build(tree.body)


def custom_fH(expr):
    """Speed f(H) given as an expression in the variable H (grammar in
    :func:`_fH_function`), its derivative by central differences; raises
    ValueError for anything else."""
    return _speed_of_H(Profile.from_callable(_fH_function(expr)), "custom_fH", (expr,))


@dataclass
class ConditionFlags:
    """Pointwise curvature-condition booleans.

    simons:    |A|^2 < 2            (minimal-surface gap condition, n = 2)
    huisken2d: |A|^2 < 3 H^2/4 + 4/3
    okumura:   |A|^2 < H^2 + 2, equivalently G = 1 + kappa1 kappa2 > 0
    """

    simons: np.ndarray
    huisken2d: np.ndarray
    okumura: np.ndarray


def speed_huisken_monitor(k1, k2) -> ConditionFlags:
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    a2 = k1 * k1 + k2 * k2
    h = k1 + k2
    return ConditionFlags(
        simons=a2 < 2.0,
        huisken2d=a2 < 0.75 * h * h + 4.0 / 3.0,
        okumura=a2 < h * h + 2.0,
    )


# ---------------------------------------------------------------------------
# the (H, G) decomposition
# ---------------------------------------------------------------------------


def phi_pinch() -> Profile:
    """phi(H) = sqrt(4 + H^2), the profile whose zero set is G_intrinsic = 0."""
    return Profile(
        f=lambda h: np.sqrt(4.0 + np.asarray(h, dtype=float) ** 2),
        d1=lambda h: np.asarray(h, dtype=float) / np.sqrt(4.0 + np.asarray(h, dtype=float) ** 2),
        d2=lambda h: 4.0 / np.sqrt(4.0 + np.asarray(h, dtype=float) ** 2) ** 3,
        name="sqrt(4+H^2)",
    )


def phi_constant(c) -> Profile:
    """phi(H) = c; ValueError unless c > 0."""
    if not c > 0:
        raise ValueError("phi must be positive")
    return Profile(
        f=lambda h: np.full_like(np.asarray(h, dtype=float), float(c)),
        d1=lambda h: np.zeros_like(np.asarray(h, dtype=float)),
        d2=lambda h: np.zeros_like(np.asarray(h, dtype=float)),
        name=f"const({c})",
    )


def z_term(f: Profile, phi: Profile, k1, k2, f_G=None):
    """The reaction term of the evolution of G under the speed f(H), in its
    two printed routes.

    Route A contracts the curvature tensor expression

        Z = F (G1 (1 + k1^2) + G2 (1 + k2^2))
            + (1 + k1 k2)(k2 - k1)(G1 F2 - F1 G2),

    with Gi = dG/dki = +-2(k1 - k2) - 2 phi phi' and Fi = f_H + f_G Gi, where
    f_G is 0 unless ``f_G(H, G)`` is given.

    Route B evaluates the closed-form reduction in (H, lambda = k1 - k2):

        Z = F (2 lambda^2 H - phi phi' (4 + H^2 + lambda^2))
            + lambda^2 (lambda^2 - 4 - H^2) f_H,

    which for phi = sqrt(4 + H^2) equals G (F H + f_H (phi^2 + G)) and in
    particular vanishes identically on {G = 0}, i.e. wherever the intrinsic
    curvature 1 + k1 k2 is zero.  Both routes agree to round-off everywhere.

    Raises ValueError where the (H, G) chart is singular (k1 = k2 together
    with phi'(H) = 0, where dG vanishes identically).
    """
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    lam = k1 - k2
    h = k1 + k2
    ph = np.asarray(phi.f(h), dtype=float)
    dp = np.asarray(phi.d1(h), dtype=float)
    if np.any((np.abs(lam) < 1e-12) & (np.abs(dp) < 1e-12)):
        raise ValueError(
            "singular (H, G) chart: kappa1 = kappa2 with phi'(H) = 0 makes "
            "the gradient of G vanish identically"
        )
    fv = np.asarray(f.f(h), dtype=float)
    fh = np.asarray(f.d1(h), dtype=float)
    fg = np.asarray(f_G(h, lam * lam - ph * ph), dtype=float) if f_G is not None else 0.0

    g1 = 2.0 * lam - 2.0 * ph * dp
    g2 = -2.0 * lam - 2.0 * ph * dp
    f1 = fh + fg * g1
    f2 = fh + fg * g2
    z_a = fv * (g1 * (1.0 + k1 * k1) + g2 * (1.0 + k2 * k2)) + (
        (1.0 + k1 * k2) * (k2 - k1) * (g1 * f2 - f1 * g2)
    )

    lam2 = lam * lam
    z_b = fv * (2.0 * lam2 * h - ph * dp * (4.0 + h * h + lam2)) + (
        lam2 * (lam2 - 4.0 - h * h) * fh
    )
    return z_a, z_b


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def admissibility_bounds(phi: Profile, h):
    """Endpoints of the preservation condition on f''/f' at mean curvature h.

    Returns (lower, upper) with

        lower = (1 - phi')/phi - phi''/(1 - phi'),
        upper = phi''/(1 + phi') - (1 + phi')/phi,

    the sign conditions of the two gradient-term coefficients.  Where
    phi' = +-1 the corresponding bound degenerates and is reported as an
    infinity (with a :class:`PhiDegenerateWarning`).  For
    phi = sqrt(4 + H^2) both bounds equal -2H / (4 + H^2).
    """
    h = np.asarray(h, dtype=float)
    ph = np.asarray(phi.f(h), dtype=float)
    if not np.all(ph > 0.0):
        raise ValueError("phi must be positive")
    p = np.asarray(phi.d1(h), dtype=float)
    pp = np.asarray(phi.d2(h), dtype=float)
    if not np.all(np.abs(p) <= 1.0 + 1e-12):
        raise ValueError("admissibility bounds assume |phi'| <= 1")
    if np.any(np.abs(np.abs(p) - 1.0) < 1e-14):
        warnings.warn(
            "|phi'| = 1: the corresponding bound is unbounded",
            PhiDegenerateWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore"):
        lower = (1.0 - p) / ph - pp / (1.0 - p)
        upper = pp / (1.0 + p) - (1.0 + p) / ph
    return lower, upper


def candidate_affine_arctan(c1, c2) -> Profile:
    """f(H) = C1 + C2 arctan(H / 2), the admissible family for the pinch phi."""
    return Profile(
        f=lambda h: c1 + c2 * np.arctan(0.5 * np.asarray(h, dtype=float)),
        d1=lambda h: 2.0 * c2 / (4.0 + np.asarray(h, dtype=float) ** 2),
        d2=lambda h: -4.0 * c2 * np.asarray(h, dtype=float) / (4.0 + np.asarray(h, dtype=float) ** 2) ** 2,
        name=f"{c1} + {c2} arctan(H/2)",
    )


@dataclass
class AdmissibilityReport:
    """Sampled verdict for the double inequality lower <= f''/f' <= upper."""

    H: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ratio: np.ndarray
    verdict: bool
    worst_margin: float
    pinched_ratio_dev: float = field(default=np.nan)

    @property
    def matches_pinched_family(self):
        return bool(self.pinched_ratio_dev <= 1e-9)


def check_admissible(f: Profile, phi: Profile, h_samples, tol=1e-9):
    """Evaluate the preservation inequality for a candidate speed f(H).

    Requires f' > 0 on the samples.  The verdict passes iff
    lower - tol <= f''/f' <= upper + tol at every sample.  The report also
    records the deviation of f''/f' from -2H/(4+H^2); for
    phi = sqrt(4 + H^2) a passing candidate must sit on that curve (the
    affine arctan family).
    """
    h = np.asarray(h_samples, dtype=float)
    fp = np.asarray(f.d1(h), dtype=float)
    if not np.all(fp > 0.0):
        raise ValueError(f"candidate '{f.name}' is not strictly monotone (f' > 0 fails)")
    ratio = np.asarray(f.d2(h), dtype=float) / fp
    lower, upper = admissibility_bounds(phi, h)
    margin = np.minimum(ratio - lower, upper - ratio)
    worst = float(np.min(margin))
    dev = float(np.max(np.abs(ratio + 2.0 * h / (4.0 + h * h))))
    return AdmissibilityReport(
        H=h,
        lower=lower,
        upper=upper,
        ratio=ratio,
        verdict=bool(worst >= -tol),
        worst_margin=worst,
        pinched_ratio_dev=dev,
    )


# ---------------------------------------------------------------------------
# registry (used by the scenario runner)
# ---------------------------------------------------------------------------


def make_speed(spec: str) -> SpeedFunction:
    """Build a speed from a selector like ``mcf``, ``arctan``,
    ``affine_arctan(0.3, 2.5)`` or ``custom_fH(H**3 + H)``."""
    s = spec.strip()
    if s == "mcf":
        return mcf()
    if s == "arctan":
        return arctan_speed()
    if s.startswith("affine_arctan(") and s.endswith(")"):
        c1, c2 = (float(t) for t in s[len("affine_arctan("):-1].split(","))
        return affine_arctan(c1, c2)
    if s.startswith("custom_fH(") and s.endswith(")"):
        return custom_fH(s[len("custom_fH("):-1])
    raise ValueError(f"unknown speed selector: {spec!r}")
