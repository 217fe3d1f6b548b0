"""Two-dimensional reduction of the iteration and its closed-form probability.

An arbitrary (|s>, |a>, targets) triple reduces to motion in the plane
spanned by |t> (the normalized projection of |a> onto the target subspace)
and |a'> (the unit complement of |a> in that plane), plus two residual
components that Q leaves fixed up to sign.  Writing

    |s> = alpha |t> + beta e^{ib} |a'> + |phi_t> + |phi_l>

the success probability after n iterations is

    p(n) = w_t + (alpha^2 + beta^2)/2 + (A/2) cos(2 n phi - theta)

with A = |alpha^2 + beta^2 e^{2ib}| and theta = atan2(2 alpha beta cos b,
alpha^2 - beta^2).  Maxima sit at n_j = (theta + 2 pi j)/(2 phi).

`decompose` needs only the six target-split inner products that a
`SearchInstance` stores, so it is O(1).  The formula covers both ends of the
overlap range: at v = 0, |t> is undefined and alpha = 0, so p(n) = w_t; at
v = 1, |a'> is undefined and beta = 0, so p(n) = w_t + alpha^2 at integer n.

For s = a the start lies in the rotation plane at angle phi/2 from |a'>,
and the formula reduces to `uniform_success_prob`, (1 - cos((2n+1) phi))/2,
the one implementation of that case used by the planners and the heatmap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlatProbabilityError
from .statevector import SearchInstance, StateVector, TargetSet

# 1 - v^2 at or below this means |a'> is numerically undefined.
DEGENERATE_TOL = 1e-12

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


@dataclass(frozen=True)
class Decomposition:
    """Rotation-plane coordinates of a search instance.

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
    """

    v: float
    phi: float
    alpha: float
    beta: float
    b: float
    amp: float
    theta: float
    w_t: float
    w_l: float

    @property
    def psi(self) -> float:
        """Same phase in the complementary convention: psi = pi - theta."""
        return math.pi - self.theta

    @classmethod
    def build(
        cls,
        v: float,
        alpha: float,
        beta: float,
        b: float,
        w_t: float = 0.0,
        w_l: float = 0.0,
    ) -> "Decomposition":
        """Construct from the primitive coordinates; derives phi, amp, theta."""
        phi = rotation_angle(v)
        a2 = alpha * alpha
        b2 = beta * beta
        y = 2.0 * alpha * beta * math.cos(b)
        amp = math.hypot(a2 - b2, y)
        # y + 0.0 turns a negative zero into +0.0 so atan2 lands on +pi,
        # keeping theta inside (-pi, pi].
        theta = math.atan2(y + 0.0, a2 - b2)
        return cls(
            v=v, phi=phi, alpha=alpha, beta=beta, b=b,
            amp=amp, theta=theta, w_t=w_t, w_l=w_l,
        )


@dataclass(frozen=True)
class BihamMapping:
    """Mean/deviation statistics of a start state over target split.

    k_bar and l_bar are the mean target / non-target amplitudes; sigma_k
    and sigma_l their population standard deviations.  For a uniform
    averaging state these tie back to the decomposition via
    |alpha| = |k_bar| sqrt(r) and beta = |l_bar| sqrt(N - r), and the
    residual weights via w_t = r sigma_k^2, w_l = (N - r) sigma_l^2.
    """

    k_bar: complex
    l_bar: complex
    sigma_k: float
    sigma_l: float


def decompose(instance: SearchInstance) -> Decomposition:
    """Reduce an instance to its rotation-plane coordinates.

    Scalar algebra over the instance's six target-split inner products.
    The global phase of the start state is fixed so that <t|s> is real and
    non-negative, making alpha real >= 0.  v = 0 gives alpha = 0, and
    1 - v^2 <= DEGENERATE_TOL gives v = 1 and beta = b = 0.
    """
    ss_t, ss_l, aa_t, as_t, as_l, _ = map(complex, instance.products)
    v2 = aa_t.real
    v = math.sqrt(v2)
    alpha = abs(as_t) / v if v2 > 0.0 else 0.0

    if 1.0 - v2 <= DEGENERATE_TOL:
        v, beta, b = 1.0, 0.0, 0.0
    else:
        # <a'|s> for |a'> = |a_L> / sqrt(1 - v^2), in the phase where <t|s> >= 0
        phase = as_t.conjugate() / abs(as_t) if alpha > 0.0 else 1.0
        asb = as_l * phase / math.sqrt(1.0 - v2)
        beta = abs(asb)
        b = math.atan2(asb.imag, asb.real) % _TWO_PI if beta > 0.0 else 0.0

    w_t = max(ss_t.real - alpha * alpha, 0.0)
    w_l = max(ss_l.real - beta * beta, 0.0)
    return Decomposition.build(v, alpha, beta, b, w_t=w_t, w_l=w_l)


def success_prob_analytic(dec: Decomposition, n):
    """Closed-form success probability after n iterations; n may be real.

    Accepts a scalar or an array of non-negative n (the optimization view
    treats n as continuous); returns matching shape, clipped to [0, 1]
    against float round-off.
    """
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0.0):
        raise ValueError("n must be non-negative")
    g = 0.5 * (dec.alpha**2 + dec.beta**2) + 0.5 * dec.amp * np.cos(
        2.0 * n_arr * dec.phi - dec.theta
    )
    p = np.clip(dec.w_t + g, 0.0, 1.0)
    return float(p) if n_arr.ndim == 0 else p


def optimal_iterations_analytic(dec: Decomposition, j: int):
    """The j-th continuous maximizer of the oscillation and its peak value.

    Returns (n_j, value) with n_j = (theta + 2 pi j)/(2 phi) and value the
    peak of the oscillating term, (alpha^2 + beta^2)/2 + A/2; the total
    success probability there is w_t + value.  Rounding n_j to the nearest
    integer lowers the probability by at most A phi^2 delta^2 + O(delta^4)
    with delta <= 1/2.
    """
    if j < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    if dec.phi <= 0.0 or dec.amp <= FLAT_TOL * (dec.alpha**2 + dec.beta**2):
        raise FlatProbabilityError(
            "oscillation amplitude or rotation angle is 0; "
            "success probability is flat in n"
        )
    n_j = (dec.theta + _TWO_PI * j) / (2.0 * dec.phi)
    value = 0.5 * (dec.alpha**2 + dec.beta**2) + 0.5 * dec.amp
    return n_j, value


def first_maximum(dec: Decomposition):
    """The smallest non-negative continuous maximizer and its peak value."""
    j = max(0, math.ceil(-dec.theta / _TWO_PI))
    return optimal_iterations_analytic(dec, j)


def uniform_success_prob(v: float, n):
    """Success probability (1 - cos((2n+1) phi))/2 when s = a, for v in [0, 1].

    n is a scalar or an array of non-negative iteration counts (real n is
    accepted, so periodicity can be probed continuously); a scalar gives a
    float, an array an array.  v = 0 gives 0, and v = 1 gives phi = pi
    exactly, so integer n succeed with certainty.
    """
    phi = rotation_angle(v)
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0.0):
        raise ValueError("n must be non-negative")
    p = 0.5 * (1.0 - np.cos((2.0 * n_arr + 1.0) * phi))
    return float(p) if n_arr.ndim == 0 else p


def biham_mapping(start: StateVector, targets: TargetSet) -> BihamMapping:
    """Mean/deviation statistics of the start state over the target split.

    Assumes a uniform averaging state; requires 1 <= r < N.
    """
    n_items = start.dim
    targets.check_range(n_items)
    r = targets.r
    if r >= n_items:
        raise ValueError(f"mapping undefined for r = N (r={r}, N={n_items})")
    mask = np.zeros(n_items, dtype=bool)
    mask[list(targets.indices)] = True

    k = start.amplitudes[mask]
    l = start.amplitudes[~mask]
    k_bar = complex(k.mean())
    l_bar = complex(l.mean())
    sigma_k = float(math.sqrt(np.mean(np.abs(k - k_bar) ** 2)))
    sigma_l = float(math.sqrt(np.mean(np.abs(l - l_bar) ** 2)))
    return BihamMapping(k_bar=k_bar, l_bar=l_bar, sigma_k=sigma_k, sigma_l=sigma_l)
