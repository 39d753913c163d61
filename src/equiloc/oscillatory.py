"""Generalized stationary-phase engine with independent quadrature oracles.

For a clean critical manifold of transversal rank l the integral
int e^{i psi/mu} a expands as

    e^{i psi0/mu} e^{i pi sigma/4} (2 pi mu)^{l/2} sum_j mu^j Q_j + O(mu^{l/2+N}),

where each Q_j integrates, over the base with weight 1/|det psi''|^{1/2},
the terms

    1/(r! k! 2^r i^{r-k}) <D_s, psi''(x,0)^{-1} D_s>^r (H^k f)(x, 0)

over pairs r - k = j with 3k <= 2r, D_s = -i d/ds and
H(x,s) = psi(x,s) - psi0 - <psi''(x,0) s, s>/2.  Terms with 3k > 2r vanish
identically because H vanishes to third order; `selection_rule_terms`
computes them exactly to show that.

One formula computes every term: the operator is expanded into monomials
c_alpha d^alpha, and each d^alpha (H^k f)(0) is exact (alpha! times a
coefficient) when H^k f is a polynomial and a nested central finite
difference when it is a callable.  Each node's Hessian is factored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .mpoly import MPoly
from .quadrature import (QuadResult, oscillatory_quad_1d, pairwise_sum,
                         tensor_oscillatory)
from .scalars import i_power
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

    def psi(self, s) -> float:
        if self.psi_poly is not None:
            return float(self.psi_poly.eval_float(list(s)).real)
        return float(self.psi_num(np.asarray(s)))

    def amp(self, s) -> float:
        if self.amp_poly is not None:
            return float(self.amp_poly.eval_float(list(s)).real)
        return float(self.amp_num(np.asarray(s)))


@dataclass
class CleanPhase:
    rank: int                   # transversal rank l
    psi0: float
    nodes: List[BaseNode]

    def validate(self):
        """Check the cleanness data: vanishing gradient on the base (to
        1e-8), nonsingular transversal Hessian, and H = psi - psi0 -
        <s, Hess s>/2 vanishing to third order.

        The last is a two-scale test along s = 1e-4 (1, ..., 1): an H of
        order 3 shrinks by 8 when s halves, a quadratic remainder by 4.
        |H(s/2)| <= (3/16) |H(s)| + floor separates them whatever the size
        of the cubic part; the floor admits round-off and a relative
        error of 1e-6 in a finite-difference Hessian."""
        s = np.full(self.rank, 1e-4)
        for node in self.nodes:
            hess = node_hessian(node, self.rank)
            if ldlt(hess).singular:
                raise PhaseError("transversal Hessian singular at a node")
            h = _h_callable(node, hess, self.psi0)
            scale = max(abs(float(x)) for row in hess.entries for x in row)
            floor = (1e-6 * scale * float(s @ s) / 4.0
                     + 16.0 * np.finfo(float).eps * abs(self.psi0))
            if abs(h(s / 2.0)) > 3.0 / 16.0 * abs(h(s)) + floor:
                raise PhaseError("H does not vanish to third order")
            psi = node.psi if node.psi_poly is None else node.psi_poly
            grad = [_partial(psi, _index(self.rank, a))
                    for a in range(self.rank)]
            if np.linalg.norm(np.array(grad, dtype=float)) > 1e-8:
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


# ---------------------------------------------------------------------------
# derivatives at s = 0


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
        for idx in product(*[range(len(p)) for p, _ in grids]):
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


def _partial(g, alpha: Sequence[int]):
    """d^alpha g(0): exact (alpha! times the coefficient) for an MPoly,
    `fd_partial` for a callable."""
    if isinstance(g, MPoly):
        return math.prod(map(math.factorial, alpha)) * g.terms.get(
            tuple(alpha), 0)
    return fd_partial(g, alpha)


def _index(l: int, *axes: int) -> Tuple[int, ...]:
    """The multi-index with one derivative along each of `axes`."""
    alpha = [0] * l
    for a in axes:
        alpha[a] += 1
    return tuple(alpha)


def node_hessian(node: BaseNode, rank: Optional[int] = None) -> SymMat:
    """psi''(0): exact from a polynomial phase, otherwise by finite
    differences rounded to denominators <= 1e9.  A polynomial in other
    than `rank` variables raises."""
    l = rank if node.psi_poly is None else node.psi_poly.dim
    if l is None:
        raise PhaseError("numeric node needs an explicit rank")
    if rank not in (None, l):
        raise PhaseError(f"a node's phase in {l} variable(s) at rank {rank}")
    psi = node.psi if node.psi_poly is None else node.psi_poly
    h = [[0] * l for _ in range(l)]
    for a in range(l):
        for b in range(a, l):
            v = _partial(psi, _index(l, a, b))
            if isinstance(v, float):
                v = Fraction(v).limit_denominator(10 ** 9)
            h[a][b] = h[b][a] = v
    return SymMat(h)


def _h_callable(node: BaseNode, hess: SymMat, psi0: float) -> Callable:
    """H(s) = psi(s) - psi0 - <s, psi''(0) s>/2 in floating point."""
    hessf = np.array([[float(x) for x in row] for row in hess.entries])

    def h(s):
        s = np.asarray(s, dtype=float)
        return node.psi(s) - psi0 - 0.5 * float(s @ hessf @ s)
    return h


def _h_poly(psi: MPoly) -> MPoly:
    """H = psi - psi(0) - (the quadratic part of psi), exactly."""
    return MPoly(psi.dim, {e: c for e, c in psi.terms.items()
                           if sum(e) not in (0, 2)})


# ---------------------------------------------------------------------------
# the coefficient formula


def _operator_monomials(ainv, r: int):
    """Expand (-sum A_ab u_a u_b)^r into multi-index -> coefficient."""
    l = len(ainv)
    base = {}
    for a, b in product(range(l), repeat=2):
        if ainv[a][b]:
            e = _index(l, a, b)
            base[e] = base.get(e, Fraction(0)) - Fraction(ainv[a][b])
    out = {tuple([0] * l): Fraction(1)}
    for _ in range(r):
        nxt = {}
        for e1, c1 in out.items():
            for e2, c2 in base.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                nxt[e] = nxt.get(e, Fraction(0)) + c1 * c2
        out = nxt
    return out


def _term(g, ainv, r: int, k: int):
    """The (r, k) term 1/(r! k! 2^r i^{r-k}) <D, A^-1 D>^r g (0) for
    g = H^k f: an exact CRat for an MPoly g, a complex for a callable."""
    acc = 0
    for alpha, c in sorted(_operator_monomials(ainv, r).items()):
        acc += c * _partial(g, alpha)
    n = math.factorial(r) * math.factorial(k) * 2 ** r
    if isinstance(g, MPoly):
        return i_power(k - r) * acc / n
    return complex(i_power(k - r)) / n * acc


def _node_q(node: BaseNode, order: int, hess: SymMat, ainv, psi0: float,
            exact: bool) -> List[complex]:
    """Q_0..Q_{order-1} of one node before its weights: the (r, k) terms
    with r = j + k and k <= 2j, which is 3k <= 2r."""
    h = _h_poly(node.psi_poly) if exact else _h_callable(node, hess, psi0)

    def g(k):
        if exact:
            return h ** k * node.amp_poly
        return lambda s: h(s) ** k * node.amp(s)

    return [complex(sum(_term(g(k), ainv, j + k, k)
                        for k in range(2 * j + 1))) for j in range(order)]


# ---------------------------------------------------------------------------
# public operations


def sp_coefficients(phase: CleanPhase, order: int,
                    method: str = "auto") -> SPExpansion:
    """Assemble Q_0..Q_{order-1}; "auto" takes exact derivatives whenever
    a node carries polynomial data, finite differences otherwise.  Each
    node's Hessian is factored once for every order."""
    sig = None
    per_node = []
    for node in phase.nodes:
        hess = node_hessian(node, phase.rank)
        res = ldlt(hess)
        if res.singular:
            raise PhaseError("transversal Hessian singular at a base point")
        if sig is None:
            sig = res.signature
        elif sig != res.signature:
            raise PhaseError("signature not constant along the base")
        exact = (method == "symbolic" or
                 (method == "auto" and node.symbolic))
        if exact and not node.symbolic:
            raise PhaseError("symbolic path needs polynomial data")
        dw = 1.0 / math.sqrt(abs(float(res.det)))
        q = _node_q(node, order, hess, res.inverse.entries, phase.psi0,
                    exact)
        per_node.append([node.weight * dw * qj for qj in q])
    coeffs = [complex(pairwise_sum([q[j] for q in per_node]))
              for j in range(order)]
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


def decay_check(l_eval: Callable, ts: Optional[Sequence[float]] = None
                ) -> DecayResult:
    """Log-log fit of |l_eval(t)| (floored at 1e-300) over t in [4, 64]."""
    if ts is None:
        ts = np.geomspace(4.0, 64.0, 9)
    vals = np.array([abs(complex(l_eval(t))) for t in ts])
    if np.max(vals) < 1e-14:
        return DecayResult(slope=None, zero_signal=True)
    vals = np.maximum(vals, 1e-300)
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    return DecayResult(slope=float(slope), zero_signal=False)


@dataclass
class OrderFit:
    exponent: float
    log_power: float


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
        return OrderFit(exponent=float("inf"), log_power=0.0)
    if np.any(errs <= 0.0):
        errs = np.maximum(errs, errs[errs > 0].min() * 1e-6)
    a = np.stack([np.ones_like(mus), np.log(mus), np.log(-np.log(mus))],
                 axis=1)
    if np.linalg.matrix_rank(a) < 3:
        raise ValueError("degenerate design matrix")
    sol, *_ = np.linalg.lstsq(a, np.log(errs), rcond=None)
    return OrderFit(exponent=float(sol[1]), log_power=float(sol[2]))


def selection_rule_terms(psi: MPoly, amp: MPoly, jmax: int):
    """Exact values of every (r, k) term with 3k > 2r (k > 2j) up to order
    jmax; all must vanish because H^k vanishes to order 3k."""
    res = ldlt(node_hessian(BaseNode(1.0, psi_poly=psi, amp_poly=amp)))
    if res.singular:
        raise PhaseError("transversal Hessian singular")
    h = _h_poly(psi)
    return [((j + k, k), _term(h ** k * amp, res.inverse.entries, j + k, k))
            for j in range(jmax + 1) for k in range(2 * j + 1, 4 * j + 4)]
