"""The search problem and the closed form of its iteration.

A search instance is the tuple of six target-split inner products
(<s_T|s_T>, <s_L|s_L>, <a_T|a_T>, <a_T|s_T>, <a_L|s_L>, <a_L|a_L>) of a start
state |s>, an averaging state |a> and r targets among N, all that Q needs
of them; `uniform_instance` writes it from r/N alone, and
`statevector.from_blocks` sums it from explicit states.  An arbitrary
(|s>, |a>, targets) triple reduces to motion in the plane spanned by |t>
(the normalized projection of |a> onto the target subspace) and |a'> (the
unit complement of |a> in that plane), plus two residual components that Q
leaves fixed up to sign.  Writing

    |s> = alpha |t> + beta e^{ib} |a'> + |phi_t> + |phi_l>

the success probability after n iterations is

    p(n) = w_t + (alpha^2 + beta^2)/2 + (A/2) cos(2 n phi - theta)

with A = |alpha^2 + beta^2 e^{2ib}| and theta = atan2(2 alpha beta cos b,
alpha^2 - beta^2).  Maxima sit at n_j = (theta + 2 pi j)/(2 phi).

`decompose` reads the six products, each as stored, so it is O(1).  The
formula covers both ends of the overlap range: at v = 0, |t> is undefined
and alpha = 0, so p(n) = w_t; where <a_L|a_L> = 0 exactly, v = 1, |a'> is
undefined and beta = 0, so p(n) = w_t + alpha^2 at integer n.  Near v = 1,
beta^2 keeps its weight: 1/N at r = N - 1.

For s = a the start lies in the plane at angle phi/2 from |a'>, and the
formula reduces to (1 - cos((2n+1) phi))/2, `uniform_success_prob`, which the
verify command checks against the simulator.  Everything here is scalar
and computes with the math module, so a caller that plans from it loads no
numpy; callers with many n map over the closed forms.  The heatmap repeats
the uniform expression inline, one phi per column: a call per cell made its
largest grid half again as slow (see `cli.heatmap_grid`).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property

from .errors import GQSearchError


class TargetSet(namedtuple("TargetSet", "indices")):
    """Sorted set of distinct marked basis indices.

    Indices are canonicalized to a sorted tuple.  Duplicates are an error,
    not a normalization.  A TargetSet alone carries no N, so the range
    check against a dimension is `_rows`, run where N is known.
    """

    __slots__ = ()

    def __new__(cls, indices):
        try:
            idx = tuple(sorted(operator.index(i) for i in indices))
        except TypeError as exc:
            raise GQSearchError(f"bad target indices: {exc}") from exc
        if not idx:
            raise GQSearchError("target set is empty")
        if idx[0] < 0:
            raise GQSearchError(f"negative target index {idx[0]}")
        if len(set(idx)) != len(idx):
            raise GQSearchError("duplicate target indices")
        return super().__new__(cls, idx)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def r(self) -> int:
        return len(self.indices)


def _rows(targets, n_items: int):
    """(r, rows) of a TargetSet or an integer count r, for the indices 0..r-1: its
    sorted index tuple, or the slice [0, r).  The one range check of targets
    against a dimension: n_items >= 1 and every row below n_items, or a
    GQSearchError."""
    if n_items < 1:
        raise GQSearchError(f"n_items must be >= 1, got {n_items}")
    if isinstance(targets, TargetSet):
        if targets.indices[-1] >= n_items:
            raise GQSearchError(f"target index {targets.indices[-1]} out of range "
                                f"for n_items={n_items}")
        return targets.r, targets.indices
    try:
        r = operator.index(targets)
    except TypeError as exc:
        raise GQSearchError(f"bad target count: {exc}") from exc
    if not 1 <= r <= n_items:
        raise GQSearchError(f"target count {r} outside [1, {n_items}]")
    return r, slice(0, r)


def uniform_instance(n_items: int, r: int) -> tuple:
    """The six products of uniform averaging and start states with r targets,
    1 <= r <= N: each is r/N or 1 - r/N, with no N-vector and no indices.  An
    r/N that underflows to 0.0 is refused."""
    r, _ = _rows(r, n_items)
    u_t = r / n_items
    if u_t == 0.0:
        raise GQSearchError(f"r/N = {r}/N underflows to 0.0 in float64")
    u_l = 1.0 - u_t
    return u_t, u_l, u_t, u_t, u_l, u_l


# A below this fraction of alpha^2 + beta^2 counts as no oscillation at all
# (an exact zero is unreachable in floats: cos(pi/2) rounds to 6.1e-17).
FLAT_TOL = 1e-14

_TWO_PI = 2.0 * math.pi


def rotation_angle(v: float) -> float:
    """Per-iteration rotation angle, arccos(1 - 2 v^2), as 2*asin(v).

    The asin form is the same angle (1 - 2 v^2 = cos(2 asin v)) and keeps
    full relative accuracy for v << 1, where phi ~ 2v.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v must lie in [0, 1], got {v}")
    return 2.0 * math.asin(v)


class Decomposition(namedtuple("Decomposition", "v alpha beta b w_t w_l",
                                defaults=(0.0, 0.0))):
    """Rotation-plane coordinates of a search instance.

    `Decomposition(v, alpha, beta, b, w_t=0.0, w_l=0.0)` is the one
    constructor, and a named tuple of those six; phi, amp, theta and peak
    are derived from them on first use, so `_replace`, a copy or a pickle
    never holds a stale one.

    Fields
    ------
    v : overlap magnitude of |a> with the target subspace, in [0, 1]
    phi : rotation angle per iteration, in [0, pi]
    alpha, beta : non-negative plane coordinates of the start state
    b : relative phase of the |a'> coordinate, in [0, 2 pi)
    amp : oscillation amplitude A = |alpha^2 + beta^2 e^{2ib}|
    theta : phase of the oscillation maximum, in (-pi, pi]
    w_t, w_l : squared norms of the residuals in the target / non-target
        subspaces (fixed by Q up to the sign of the non-target part)
    peak : maximum (alpha^2 + beta^2)/2 + A/2 of the oscillating term,
        summed as p(n) is, so p(n) <= w_t + peak in floats too
    """

    @cached_property
    def phi(self) -> float:
        return rotation_angle(self.v)

    @cached_property
    def _legs(self) -> tuple:
        """(alpha^2 - beta^2, 2 alpha beta cos b), the legs of A and theta."""
        return (self.alpha * self.alpha - self.beta * self.beta,
                2.0 * self.alpha * self.beta * math.cos(self.b))

    @cached_property
    def amp(self) -> float:
        return math.hypot(*self._legs)

    @cached_property
    def theta(self) -> float:
        x, y = self._legs
        # y + 0.0 turns a negative zero into +0.0 so atan2 lands on +pi,
        # keeping theta inside (-pi, pi].
        return math.atan2(y + 0.0, x)

    @cached_property
    def peak(self) -> float:
        return 0.5 * (self.alpha**2 + self.beta**2) + 0.5 * self.amp

    @property
    def psi(self) -> float:
        """Same phase in the complementary convention: psi = pi - theta."""
        return math.pi - self.theta


def decompose(instance) -> Decomposition:
    """Reduce an instance, its six products, to its rotation-plane coordinates.

    Scalar algebra over the six target-split inner products, each read as
    stored.  The global phase of the start state is fixed so that <t|s> is
    real and non-negative, making alpha real >= 0.  v is
    sqrt(<a_T|a_T>), at most 1; |a'> is |a_L> / sqrt(<a_L|a_L>), so beta is
    |<a_L|s_L>| / sqrt(<a_L|a_L>).  v = 0 gives alpha = 0, and <a_L|a_L> = 0
    exactly, the averaging state on the targets, gives beta = b = 0.
    """
    ss_t, ss_l, aa_t, as_t, as_l, aa_l = map(complex, instance)
    v = min(math.sqrt(aa_t.real), 1.0)
    alpha = abs(as_t) / v if v > 0.0 else 0.0
    beta = b = 0.0
    if aa_l.real > 0.0:  # <a'|s> in the phase where <t|s> >= 0
        asb = as_l * (as_t.conjugate() / abs(as_t) if alpha > 0.0 else 1.0)
        asb /= math.sqrt(aa_l.real)
        beta = abs(asb)
        b = math.atan2(asb.imag, asb.real) % _TWO_PI if beta > 0.0 else 0.0
    w_t = max(ss_t.real - alpha * alpha, 0.0)
    w_l = max(ss_l.real - beta * beta, 0.0)
    return Decomposition(v, alpha, beta, b, w_t=w_t, w_l=w_l)


def success_prob_analytic(dec: Decomposition, n: float) -> float:
    """Closed-form success probability after n >= 0 iterations; n may be real.

    The optimization view treats n as continuous.  The result is clipped to
    [0, 1] against float round-off; a NaN n gives NaN.
    """
    if n < 0.0:
        raise ValueError("n must be non-negative")
    g = 0.5 * (dec.alpha**2 + dec.beta**2) + 0.5 * dec.amp * math.cos(
        2.0 * n * dec.phi - dec.theta
    )
    return min(max(dec.w_t + g, 0.0), 1.0)  # max(nan, 0.0) keeps the NaN


def first_maximum(dec: Decomposition) -> float:
    """The smallest non-negative continuous maximizer.

    Maxima sit at n_j = (theta + 2 pi j)/(2 phi); this returns the first
    n_j >= 0, where the success probability is w_t + dec.peak.  Rounding
    n_j to the nearest integer lowers the probability by at most
    A phi^2 delta^2 + O(delta^4) with delta <= 1/2.
    """
    if dec.phi <= 0.0 or dec.amp <= FLAT_TOL * (dec.alpha**2 + dec.beta**2):
        raise GQSearchError(
            "oscillation amplitude or rotation angle is 0; "
            "success probability is flat in n"
        )
    j = max(0, math.ceil(-dec.theta / _TWO_PI))
    return (dec.theta + _TWO_PI * j) / (2.0 * dec.phi)


def uniform_success_prob(v: float, n: float) -> float:
    """Success probability (1 - cos((2n+1) phi))/2 when s = a, for v in [0, 1].

    n is one non-negative iteration count (real n is accepted, so
    periodicity can be probed continuously).  v = 0 gives 0, and v = 1 gives
    phi = pi exactly, so integer n succeed with certainty.
    """
    phi = rotation_angle(v)
    if n < 0.0:
        raise ValueError("n must be non-negative")
    return 0.5 * (1.0 - math.cos((2.0 * n + 1.0) * phi))

