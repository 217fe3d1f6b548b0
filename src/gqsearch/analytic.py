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

`decompose` reads the six target-split inner products that a `SearchInstance`
stores, each as stored, so it is O(1).  The formula covers both ends of the
overlap range: at v = 0, |t> is undefined and alpha = 0, so p(n) = w_t; where
<a_L|a_L> = 0 exactly, v = 1, |a'> is undefined and beta = 0, so p(n) = w_t +
alpha^2 at integer n.  Near v = 1, beta^2 keeps its weight: 1/N at r = N - 1.

For s = a the start lies in the plane at angle phi/2 from |a'>, and the
formula reduces to (1 - cos((2n+1) phi))/2, `uniform_success_prob`, which the
verify command checks against the simulator.  The heatmap repeats that
expression inline, one phi per column, so that it loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _np as np
from .errors import GQSearchError

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

    `Decomposition(v, alpha, beta, b, w_t=0.0, w_l=0.0)` is the one
    constructor; phi, amp, theta and peak are derived from its arguments.

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

    v: float
    phi: float = field(init=False)
    alpha: float
    beta: float
    b: float
    amp: float = field(init=False)
    theta: float = field(init=False)
    w_t: float = 0.0
    w_l: float = 0.0
    peak: float = field(init=False)

    def __post_init__(self) -> None:
        alpha, beta = self.alpha, self.beta
        a2 = alpha * alpha
        b2 = beta * beta
        y = 2.0 * alpha * beta * math.cos(self.b)
        amp = math.hypot(a2 - b2, y)
        object.__setattr__(self, "phi", rotation_angle(self.v))
        object.__setattr__(self, "amp", amp)
        # y + 0.0 turns a negative zero into +0.0 so atan2 lands on +pi,
        # keeping theta inside (-pi, pi].
        object.__setattr__(self, "theta", math.atan2(y + 0.0, a2 - b2))
        object.__setattr__(self, "peak", 0.5 * (alpha**2 + beta**2) + 0.5 * amp)

    @property
    def psi(self) -> float:
        """Same phase in the complementary convention: psi = pi - theta."""
        return math.pi - self.theta


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

    Scalar algebra over the instance's six target-split inner products,
    each read as stored.  The global phase of the start state is fixed so
    that <t|s> is real and non-negative, making alpha real >= 0.  v is
    sqrt(<a_T|a_T>), at most 1; |a'> is |a_L> / sqrt(<a_L|a_L>), so beta is
    |<a_L|s_L>| / sqrt(<a_L|a_L>).  v = 0 gives alpha = 0, and <a_L|a_L> = 0
    exactly, the averaging state on the targets, gives beta = b = 0.
    """
    ss_t, ss_l, aa_t, as_t, as_l, aa_l = map(complex, instance.products)
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


def _iterations(n):
    """An iteration count n as a float array, refusing a negative n."""
    n = np.asarray(n, dtype=float)
    if np.any(n < 0.0):
        raise ValueError("n must be non-negative")
    return n


def _unwrap(p):
    """A float for a 0-d result, the array itself otherwise."""
    return float(p) if p.ndim == 0 else p


def success_prob_analytic(dec: Decomposition, n):
    """Closed-form success probability after n iterations; n may be real.

    Accepts a scalar or an array of non-negative n (the optimization view
    treats n as continuous); returns matching shape, clipped to [0, 1]
    against float round-off.
    """
    n = _iterations(n)
    g = 0.5 * (dec.alpha**2 + dec.beta**2) + 0.5 * dec.amp * np.cos(
        2.0 * n * dec.phi - dec.theta
    )
    return _unwrap(np.clip(dec.w_t + g, 0.0, 1.0))


def first_maximum(dec: Decomposition):
    """The smallest non-negative continuous maximizer and its peak value.

    Maxima sit at n_j = (theta + 2 pi j)/(2 phi); this returns the first
    n_j >= 0 and the peak of the oscillating term, (alpha^2 + beta^2)/2 +
    A/2, so the total success probability there is w_t + value.  Rounding
    n_j to the nearest integer lowers the probability by at most
    A phi^2 delta^2 + O(delta^4) with delta <= 1/2.
    """
    if dec.phi <= 0.0 or dec.amp <= FLAT_TOL * (dec.alpha**2 + dec.beta**2):
        raise GQSearchError(
            "oscillation amplitude or rotation angle is 0; "
            "success probability is flat in n"
        )
    j = max(0, math.ceil(-dec.theta / _TWO_PI))
    return (dec.theta + _TWO_PI * j) / (2.0 * dec.phi), dec.peak


def uniform_success_prob(v: float, n):
    """Success probability (1 - cos((2n+1) phi))/2 when s = a, for v in [0, 1].

    n is a scalar or an array of non-negative iteration counts (real n is
    accepted, so periodicity can be probed continuously); a scalar gives a
    float, an array an array.  v = 0 gives 0, and v = 1 gives phi = pi
    exactly, so integer n succeed with certainty.
    """
    phi = rotation_angle(v)
    return _unwrap(0.5 * (1.0 - np.cos((2.0 * _iterations(n) + 1.0) * phi)))


def biham_mapping(amplitudes, targets) -> BihamMapping:
    """Mean/deviation statistics of a unit start state, a 1-D amplitude array, over
    the split of a TargetSet or a count r; assumes a uniform averaging state, 1 <= r < N."""
    from .statevector import _check_unit, _rows

    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.size < 1:
        raise GQSearchError("amplitudes must be a non-empty one-dimensional array")
    _check_unit(math.sqrt(np.einsum("i,i->", amps.conj(), amps).real))  # no BLAS threads
    n_items = amps.size
    r, rows = _rows(targets, n_items)
    if r >= n_items:
        raise ValueError(f"mapping undefined for r = N (r={r}, N={n_items})")
    rows = rows if isinstance(rows, slice) else list(rows)
    k, l = amps[rows], np.delete(amps, rows)
    k_bar = complex(k.mean())
    l_bar = complex(l.mean())
    sigma_k = float(math.sqrt(np.mean(np.abs(k - k_bar) ** 2)))
    sigma_l = float(math.sqrt(np.mean(np.abs(l - l_bar) ** 2)))
    return BihamMapping(k_bar=k_bar, l_bar=l_bar, sigma_k=sigma_k, sigma_l=sigma_l)
