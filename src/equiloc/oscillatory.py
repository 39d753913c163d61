"""Generalized stationary-phase engine with independent quadrature oracles.

For a clean critical manifold of transversal rank l the integral
int e^{i psi/mu} a expands as

    e^{i psi0/mu} e^{i pi sigma/4} (2 pi mu)^{l/2} sum_j mu^j Q_j + O(mu^{l/2+N}),

where each Q_j integrates, over the base with weight 1/|det psi''|^{1/2},
the terms

    1/(r! k! 2^r i^{r-k}) <D_s, psi''(x,0)^{-1} D_s>^r (H^k f)(x, 0)

over pairs r - k = j with 3k <= 2r, D_s = -i d/ds and
H(x,s) = psi(x,s) - psi0 - <psi''(x,0) s, s>/2.  Terms with 3k > 2r vanish
identically because H vanishes to third order; the symbolic path asserts
that.  A nested central finite-difference path covers non-polynomial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .mpoly import MPoly
from .quadrature import (QuadResult, oscillatory_quad_1d, pairwise_sum,
                         tensor_oscillatory)
from .scalars import CRat, i_power
from .symmat import SymMat, ldlt


class PhaseError(ValueError):
    pass


@dataclass
class BaseNode:
    weight: float
    psi_poly: Optional[MPoly] = None     # polynomial in the s-variables
    amp_poly: Optional[MPoly] = None
    psi_num: Optional[Callable] = None   # s (l,) -> float
    amp_num: Optional[Callable] = None

    @property
    def symbolic(self) -> bool:
        return self.psi_poly is not None and self.amp_poly is not None


@dataclass
class CleanPhase:
    rank: int                   # transversal rank l
    psi0: float
    nodes: List[BaseNode]

    def validate(self):
        """Check the cleanness data: vanishing gradient on the base (to
        1e-8), nonsingular transversal Hessian, and H = psi - psi0 -
        <s, Hess s>/2 vanishing to third order."""
        for node in self.nodes:
            hess = node_hessian(node, self.rank)
            res = ldlt(hess)
            if res.singular:
                raise PhaseError("transversal Hessian singular at a node")
            small = _eval_h(node, hess, np.full(self.rank, 1e-4), self.psi0)
            if abs(small) > 1e-10:
                raise PhaseError("H does not vanish to third order")
            g = _grad_at_zero(node, self.rank)
            if np.linalg.norm(g) > 1e-8:
                raise PhaseError("gradient does not vanish on the base")
        return self


@dataclass
class SPExpansion:
    psi0: float
    signature: int
    rank: int
    coefficients: List[complex]
    order: int

    def evaluate(self, mu: float) -> complex:
        pref = (complex(math.cos(self.psi0 / mu), math.sin(self.psi0 / mu))
                * complex(math.cos(math.pi * self.signature / 4),
                          math.sin(math.pi * self.signature / 4))
                * (2 * math.pi * mu) ** (self.rank / 2))
        return pref * sum(c * mu ** j
                          for j, c in enumerate(self.coefficients))


def node_hessian(node: BaseNode, rank: Optional[int] = None) -> SymMat:
    if node.symbolic:
        return _poly_hessian(node.psi_poly)
    if rank is None:
        raise PhaseError("numeric node needs an explicit rank")
    return _fd_hessian(node.psi_num, rank)


def _fd_hessian(psi: Callable, l: int) -> SymMat:
    h = [[Fraction(0)] * l for _ in range(l)]
    for a in range(l):
        for b in range(a, l):
            alpha = [0] * l
            alpha[a] += 1
            alpha[b] += 1
            v = Fraction(fd_partial(lambda s: float(psi(s)), alpha)
                         ).limit_denominator(10 ** 9)
            h[a][b] = v
            h[b][a] = v
    return SymMat(h)


def _poly_hessian(psi: MPoly) -> SymMat:
    l = psi.dim
    h = [[Fraction(0)] * l for _ in range(l)]
    for e, c in psi.terms.items():
        if sum(e) != 2:
            continue
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        a, b = idx[0], idx[1]
        if a == b:
            h[a][a] = 2 * Fraction(c)
        else:
            h[a][b] += Fraction(c)
            h[b][a] += Fraction(c)
    return SymMat(h)


def _grad_at_zero(node: BaseNode, rank: int):
    if node.symbolic:
        l = node.psi_poly.dim
        return np.array([float(node.psi_poly.terms.get(
            tuple(1 if j == i else 0 for j in range(l)), 0))
            for i in range(l)])
    l = rank
    h = 1e-6
    g = np.zeros(l)
    for i in range(l):
        e = np.zeros(l)
        e[i] = h
        g[i] = (node.psi_num(e) - node.psi_num(-e)) / (2 * h)
    return g


def _eval_h(node: BaseNode, hess: SymMat, s, psi0: float) -> float:
    q = 0.5 * float(np.dot(s, [[float(x) for x in row]
                               for row in hess.entries] @ np.asarray(s)))
    if node.symbolic:
        val = float(node.psi_poly.eval_float(list(s)).real)
    else:
        val = float(node.psi_num(np.asarray(s)))
    return val - psi0 - q


# ---------------------------------------------------------------------------
# symbolic coefficient path


def _apply_operator(poly: MPoly, ainv) -> MPoly:
    """<D, A D> = - sum A_ab d_a d_b applied once."""
    l = poly.dim
    out = MPoly.zero(l)
    for a in range(l):
        da = poly.diff(a)
        for b in range(l):
            c = ainv[a][b]
            if c == 0:
                continue
            out = out + da.diff(b).scale(-Fraction(c))
    return out


def term_value_symbolic(psi: MPoly, amp: MPoly, r: int, k: int) -> CRat:
    """Value of the (r, k) inner term at s = 0 (exact)."""
    hess = _poly_hessian(psi)
    res = ldlt(hess)
    if res.singular:
        raise PhaseError("transversal Hessian singular")
    ainv = res.inverse.entries
    l = psi.dim
    const = Fraction(psi.terms.get(tuple([0] * l), 0))
    quad = MPoly(l, {e: c for e, c in psi.terms.items() if sum(e) == 2})
    h = psi - MPoly.constant(l, const) - quad
    g = (h ** k) * amp
    for _ in range(r):
        g = _apply_operator(g, ainv)
    val = g.terms.get(tuple([0] * l), Fraction(0))
    coef = CRat(Fraction(1, math.factorial(r) * math.factorial(k) * 2 ** r))
    coef = coef * i_power(-(r - k))
    return coef * CRat.coerce(val)


def _node_qj_symbolic(node: BaseNode, j: int) -> complex:
    total = CRat(0)
    for k in range(0, 2 * j + 1):
        r = j + k
        if 3 * k > 2 * r:
            continue
        total = total + term_value_symbolic(node.psi_poly, node.amp_poly,
                                            r, k)
    return complex(total)


# ---------------------------------------------------------------------------
# finite-difference coefficient path


def _fd_stencil(m: int):
    """4th-order central stencil for the m-th derivative."""
    half = (m + 1) // 2 + 1
    pts = np.arange(-half, half + 1)
    a = np.vander(pts, len(pts), increasing=True).T.astype(float)
    rhs = np.zeros(len(pts))
    rhs[m] = math.factorial(m)
    w = np.linalg.solve(a, rhs)
    return pts, w


def fd_partial(g: Callable, alpha: Sequence[int]) -> float:
    """Mixed partial d^alpha g(0) with 4th-order central differences and
    one Richardson level from the step h = eps^(1/6)."""
    h0 = (np.finfo(float).eps) ** (1.0 / 6.0)

    def d_at(h: float) -> float:
        grids = [_fd_stencil(m) for m in alpha]
        val = 0.0
        offsets = [g for g in product(*[range(len(p)) for p, _ in grids])]
        for idx in offsets:
            w = 1.0
            pt = np.zeros(len(alpha))
            for axis, i in enumerate(idx):
                pts, ws = grids[axis]
                w *= ws[i] / h ** alpha[axis]
                pt[axis] = pts[i] * h
            val += w * g(pt)
        return val

    d1 = d_at(h0)
    d2 = d_at(h0 / 2.0)
    return (16.0 * d2 - d1) / 15.0


def _operator_monomials(ainv, r: int, l: int):
    """Expand (-sum A_ab u_a u_b)^r into multi-index -> coefficient."""
    base = {}
    for a in range(l):
        for b in range(l):
            c = -Fraction(ainv[a][b])
            if c == 0:
                continue
            e = [0] * l
            e[a] += 1
            e[b] += 1
            base[tuple(e)] = base.get(tuple(e), Fraction(0)) + c
    out = {tuple([0] * l): Fraction(1)}
    for _ in range(r):
        nxt = {}
        for e1, c1 in out.items():
            for e2, c2 in base.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                nxt[e] = nxt.get(e, Fraction(0)) + c1 * c2
        out = nxt
    return out


def _node_qj_fd(node: BaseNode, j: int, psi0: float, rank: int) -> complex:
    hess = node_hessian(node, rank)
    res = ldlt(hess)
    ainv = res.inverse.entries
    l = hess.dim
    hessf = np.array([[float(x) for x in row] for row in hess.entries])

    def h_fun(s):
        s = np.asarray(s, dtype=float)
        val = node.psi_num(s) if not node.symbolic else \
            float(node.psi_poly.eval_float(list(s)).real)
        return val - psi0 - 0.5 * float(s @ hessf @ s)

    def amp_fun(s):
        if node.symbolic:
            return float(node.amp_poly.eval_float(list(s)).real)
        return float(node.amp_num(np.asarray(s)))

    total = 0j
    for k in range(0, 2 * j + 1):
        r = j + k
        if 3 * k > 2 * r:
            continue
        monos = _operator_monomials(ainv, r, l)

        def g(s, _k=k):
            return h_fun(s) ** _k * amp_fun(s)

        acc = 0.0
        for e, c in sorted(monos.items()):
            acc += float(c) * fd_partial(g, e)
        coef = complex(i_power(-(r - k))) / (
            math.factorial(r) * math.factorial(k) * 2 ** r)
        total += coef * acc
    return total


# ---------------------------------------------------------------------------
# public operations


def sp_coefficients(phase: CleanPhase, order: int,
                    method: str = "auto") -> SPExpansion:
    """Assemble Q_0..Q_{order-1}; "auto" picks the symbolic path whenever a
    node carries polynomial data, finite differences otherwise."""
    sig = None
    det_weights = []
    for node in phase.nodes:
        res = ldlt(node_hessian(node, phase.rank))
        if res.singular:
            raise PhaseError("transversal Hessian singular at a base point")
        if sig is None:
            sig = res.signature
        elif sig != res.signature:
            raise PhaseError("signature not constant along the base")
        det_weights.append(1.0 / math.sqrt(abs(float(res.det))))
    coeffs = []
    for j in range(order):
        acc = []
        for node, dw in zip(phase.nodes, det_weights):
            use_sym = (method == "symbolic" or
                       (method == "auto" and node.symbolic))
            if use_sym and not node.symbolic:
                raise PhaseError("symbolic path needs polynomial data")
            if use_sym:
                q = _node_qj_symbolic(node, j)
            else:
                q = _node_qj_fd(node, j, phase.psi0, phase.rank)
            acc.append(node.weight * dw * q)
        coeffs.append(complex(pairwise_sum(acc)))
    return SPExpansion(psi0=phase.psi0, signature=sig, rank=phase.rank,
                       coefficients=coeffs, order=order)


def oscillatory_integral(phase: Callable, amplitude: Callable, mu: float,
                         domain: Sequence[Tuple[float, float]]) -> QuadResult:
    """Brute-force oracle: int_domain e^{i phase/mu} amplitude."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if len(domain) == 1:
        return oscillatory_quad_1d(amplitude, phase, domain[0][0],
                                   domain[0][1], mu)
    return tensor_oscillatory(amplitude, phase, domain, mu)


@dataclass
class DecayResult:
    slope: Optional[float]
    zero_signal: bool
    samples: List[Tuple[float, float]] = field(default_factory=list)


def decay_check(l_eval: Callable, ts: Optional[Sequence[float]] = None
                ) -> DecayResult:
    """Log-log fit of |l_eval(t)| (floored at 1e-300) over t in [4, 64]."""
    if ts is None:
        ts = np.geomspace(4.0, 64.0, 9)
    vals = np.array([abs(complex(l_eval(t))) for t in ts])
    if np.max(vals) < 1e-14:
        return DecayResult(slope=None, zero_signal=True,
                           samples=list(zip(ts, vals)))
    vals = np.maximum(vals, 1e-300)
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    return DecayResult(slope=float(slope), zero_signal=False,
                       samples=list(zip(ts, vals)))


@dataclass
class OrderFit:
    exponent: float
    log_power: float
    residual: float
    exact: bool = False


def fit_problem(mus: Sequence[float]) -> Optional[str]:
    """Why order_fit cannot fit samples at these mu, or None."""
    if len(mus) < 4:
        return "need at least 4 samples"
    if np.log10(np.max(mus) / np.min(mus)) < 2.0 - 1e-9:
        return "samples must span at least 2 decades"
    return None


def order_fit(samples: Sequence[Tuple[float, float]]) -> OrderFit:
    """Least squares of log err = c + e log mu + l log(-log mu)."""
    mus = np.array([m for m, _ in samples], dtype=float)
    errs = np.array([e for _, e in samples], dtype=float)
    problem = fit_problem(mus)
    if problem:
        raise ValueError(problem)
    if np.all(errs == 0.0):
        return OrderFit(exponent=float("inf"), log_power=0.0, residual=0.0,
                        exact=True)
    if np.any(errs <= 0.0):
        errs = np.maximum(errs, errs[errs > 0].min() * 1e-6)
    a = np.stack([np.ones_like(mus), np.log(mus), np.log(-np.log(mus))],
                 axis=1)
    if np.linalg.matrix_rank(a) < 3:
        raise ValueError("degenerate design matrix")
    sol, res, *_ = np.linalg.lstsq(a, np.log(errs), rcond=None)
    resid = float(np.sqrt(res[0]) if len(res) else 0.0)
    return OrderFit(exponent=float(sol[1]), log_power=float(sol[2]),
                    residual=resid)


def selection_rule_terms(psi: MPoly, amp: MPoly, jmax: int):
    """Symbolic values of every (r, k) term with 3k > 2r up to order jmax;
    all must vanish because H^k vanishes to order 3k."""
    out = []
    for j in range(jmax + 1):
        for k in range(2 * j + 1, 4 * j + 4):
            r = j + k
            if 3 * k <= 2 * r:
                continue
            out.append(((r, k), term_value_symbolic(psi, amp, r, k)))
    return out
