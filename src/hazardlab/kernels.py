"""The four mixing-kernel families and their closed time integrals.

Each kernel k(t, x) maps (time, location) to a nonnegative weight.  Two
derived quantities do most of the work downstream:

    K_T(x)    = int_0^T k(t, x) dt
    Q_T(x, y) = int_0^T k(t, x) k(t, y) dt

Both have exact closed forms for every family (interval intersections
for the indicator kernels, stable exponential expressions for the
Ornstein-Uhlenbeck kernel), valid for every T > 0.  Each family's class
carries its facts; the module functions are the validated entry points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from ._numeric import (_STREAM, check_rules, comp_sum, gl_panels, running_sum,
                       sorted_unique, stable_order)

__all__ = [
    "Rectangular", "DykstraLaud", "OrnsteinUhlenbeck", "UShaped", "Kernel",
    "eval_kernel", "K_T", "Q_T", "location_window",
]


class _Family:
    """Defaults for the family facts.  Every family also defines value(t, x),
    K(T, x) and Q(T, x, y) (the closed forms behind eval_kernel, K_T, Q_T),
    the condition-grid panel_step(T) and pair_sum(J, x, T) =
    sum_{i,j} J_i J_j Q_T(x_i, x_j) over atoms in any order, which it
    sorts with one _numeric.stable_order; the rectangular kernel also
    defines band (Q_T(x, y) = 0 once |x - y| > band).
    On the condition grid, with nodes x, weights w and panel edges edges,
    every family defines row_integrals(T, x, w, edges, mu, power), the rows
    int mu(y) Q_T(x_i, y)^power dy, and contraction_11(T, x, r2),
    ||A^2||_F^2 for A_ij = r_i Q_T(x_i, x_j) r_j with r^2 = r2.
    Non-nested families are stationary, k(t, x) = phi(t - x), and carry
    slice_mass(t) = int k(t, x) dx, which the mean-square centering reads
    (the nested families have no quadratic limit to center), and the bulk
    integrals (m, r0, r2) = (int phi, rho(0), int rho(u)^2 du) with
    rho(u) = int phi(s) phi(s + u) ds: away from 0 and T these are K_T(x),
    Q_T(x, x) and int Q_T(x, x + u)^2 du."""
    # each parameter's range {field: (test, text)}: check_rules, the INI parser
    RULES: ClassVar[dict] = {}
    __post_init__ = check_rules
    # the slices x -> k(t, x) are nested, so Q_T(x, y) = K_T(max(x, y))
    nested: ClassVar[bool] = False
    # kinks of t -> slice_mass(t)
    slice_kinks: ClassVar[tuple] = ()

    def window(self, T: float) -> tuple:
        return (0.0, T)

    def breaks(self, T: float) -> list:
        # breakpoints of the I_i quadratures and of the condition-grid panels
        return []

    def flat(self, T: float):
        # the interval (a, b) where x -> K_T(x) is constant, or None
        return None


class _Green(_Family):
    """Kernels of Green's-function form: for locations 0 <= x <= y,
        Q_T(x, y) = e^{-decay (y - x)} g(T, y),
    with g >= 0.  Q_T follows from decay and g alone, and the pair sum and
    the condition grid's reductions from decayed prefix sums
    (_decayed_prefix) over increasing locations: the grid's nodes, and the
    atoms once the pair sum has put them in location order."""

    def Q(self, T, x, y):
        out = np.exp(-self.decay * np.abs(x - y)) * self.g(T, np.maximum(x, y))
        return np.where(np.minimum(x, y) >= 0, out, 0.0)

    def pair_sum(self, J, x, T):
        # For x_i <= x_j, Q_T(x_i, x_j) = e^{-k(x_j - x_i)} g(x_j) with
        # k = decay, so over the atoms in location order (one stable_order)
        # the sum is sum_j J_j g_j (J_j + 2 L_j), all terms positive, with L
        # the decayed prefix sum of J.  The order is dropped once J is
        # gathered; J g and then J + 2 L are formed in place, so the peak
        # is the sorted locations, J, J g and L with one block of L's
        # temporaries (path_second_moment of 5e5 unsorted atoms: 4.20
        # arrays of n, the sort's included).
        order, x = stable_order(x)
        J = J[order]
        del order
        terms = self.g(T, x)
        terms *= J
        L = _decayed_prefix(self.decay, x, J)
        L *= 2.0
        L += J
        terms *= L
        return comp_sum(terms)

    def row_integrals(self, T, x, w, edges, mu, power):
        """int mu(y) Q_T(x_i, y)^power dy at the increasing nodes x, for mu
        and g smooth between the edges, which span the window [0, hi]; the
        node weights w are not used.

        With m = power * decay the row is g(x_i)^power L(x_i) + R(x_i),
        where L(b) = int_0^b mu(y) e^{-m(b-y)} dy and
        R(b) = int_b^hi mu(y) g(y)^power e^{-m(y-b)} dy.  Over the
        breakpoints b = edges U x, one Gauss-Legendre rule per segment gives
        its share of L at its right end and its share of R at its left end,
        so the kink of Q_T at y = x_i is on a segment edge.  L(b_j) is the
        share at b_j plus the decayed prefix sum of those before it, R(b_j)
        the same taken backward.  Every term is positive, so nothing
        cancels."""
        m = power * self.decay
        b = sorted_unique(np.concatenate([edges, x]))
        y, w = gl_panels(b[:-1], b[1:], 12)
        f = w * mu(y)
        into_left = np.append(0.0, np.sum(f * np.exp(-m * (b[1:, None] - y)), axis=1))
        into_right = np.append(np.sum(f * self.g(T, y) ** power
                                      * np.exp(-m * (y - b[:-1, None])), axis=1), 0.0)
        left = _decayed_prefix(m, b, into_left) + into_left
        right = _decayed_prefix(m, -b[::-1], into_right[::-1])[::-1] + into_right
        at = np.searchsorted(b, x)
        return self.g(T, x) ** power * left[at] + right[at]

    def contraction_11(self, T, x, r2):
        """||A^2||_F^2 for A_ij = r_i Q_T(x_i, x_j) r_j at the increasing
        nodes x >= 0, with r^2 = r2, in O(n).

        With k = decay, g_i = g(T, x_i) and c = r2 g, for i <= j
            (A^2)_ij = r_i r_j e^{-k(x_j - x_i)} (g_j Y_ij + R_j),
            Y_ij = g_i L_i + sum_{l=i..j} c_l,
        where L_i = sum_{l<i} r2_l e^{-2k(x_i-x_l)} and
        R_j = sum_{l>j} r2_l g_l^2 e^{-2k(x_l-x_j)}.  Squaring and summing
        over i < j leaves the sums U_p(j) = sum_{i<j} r2_i e^{-2k(x_j-x_i)}
        Y_ij^p for p = 0, 1, 2 (U_0 = L); Y_{i,j+1} = Y_ij + c_{j+1} makes
        U_1 and U_2 decayed prefix sums of the lower ones, and R is one
        taken backward.  Every term is positive, so nothing cancels."""
        k = 2.0 * self.decay
        g = self.g(T, x)
        c = r2 * g
        cn = np.append(c[1:], 0.0)        # node j + 1's c
        U0 = _decayed_prefix(k, x, r2)
        Y = g * U0 + c                    # Y_jj
        U1 = _decayed_prefix(k, x, r2 * Y + cn * (U0 + r2))
        U2 = _decayed_prefix(k, x, 2.0 * cn * U1 + cn ** 2 * U0 + r2 * (Y + cn) ** 2)
        R = _decayed_prefix(k, -x[::-1], (r2 * g ** 2)[::-1])[::-1]
        return float(np.sum(r2 * (g ** 2 * (2.0 * U2 + r2 * Y ** 2)
                                  + 2.0 * g * R * (2.0 * U1 + r2 * Y)
                                  + R ** 2 * (2.0 * U0 + r2))))


class _Nested(_Green):
    """Kernels whose slices are nested: the joint support of two locations
    is the larger one's, Q_T(x, y) = K_T(max(x, y)) (decay 0, g = K_T).
    Their quadratic functionals have no CLT."""
    nested = True
    decay: ClassVar[float] = 0.0

    def g(self, T, z):
        return self.K(T, z)

    def panel_step(self, T: float) -> float:
        lo, hi = self.window(T)
        return (hi - lo) / 64.0


@dataclass(frozen=True)
class Rectangular(_Family):
    """k(t,x) = 1{|t-x| <= tau}; bandwidth tau."""
    tau: float
    RULES: ClassVar[dict] = {"tau": (lambda x: x > 0, "tau > 0")}

    def label(self) -> str:
        return f"rectangular(tau={self.tau:g})"

    def value(self, t, x):
        return (np.abs(t - x) <= self.tau).astype(float)

    def K(self, T, x):
        tau = self.tau
        return np.maximum(0.0, np.minimum(x + tau, T) - np.maximum(x - tau, 0.0))

    def Q(self, T, x, y):
        tau = self.tau
        lo, m = np.minimum(x, y), np.maximum(x, y)
        out = np.maximum(0.0, np.minimum(lo + tau, T) - np.maximum(m - tau, 0.0))
        return np.where((x >= -tau) & (y >= -tau), out, 0.0)

    def window(self, T: float) -> tuple:
        return (0.0, T + self.tau)

    def slice_mass(self, t):
        tau = self.tau
        return np.where(t > -tau, np.minimum(t + tau, 2.0 * tau), 0.0)

    @property
    def slice_kinks(self) -> tuple:
        return (self.tau,)

    def breaks(self, T: float) -> list:
        tau = self.tau
        return [tau, 2 * tau, T - 2 * tau, T - tau, T]

    def panel_step(self, T: float) -> float:
        return self.tau / 2.0

    def flat(self, T: float):
        # K_T(x) = 2 tau on [tau, T - tau]
        tau = self.tau
        return (tau, T - tau) if T > 2.0 * tau else None

    @property
    def bulk(self) -> tuple:
        tau = self.tau
        return 2.0 * tau, 2.0 * tau, 16.0 * tau ** 3 / 3.0

    @property
    def band(self) -> float:
        # Q_T(x, y) = 0 once |x - y| > 2 tau
        return 2.0 * self.tau

    def _span(self, T, x):
        # the times [start, end] = [max(x - tau, 0), min(x + tau, T)] where
        # k(., x) is on; both are nondecreasing in x, so on the increasing
        # nodes of the condition grid they are sorted, and for x <= y in the
        # window Q_T(x, y) = max(0, end(x) - start(y)), the arithmetic of Q
        tau = self.tau
        return np.maximum(x - tau, 0.0), np.minimum(x + tau, T)

    def pair_sum(self, J, x, T):
        # sum_{i,j} J_i J_j Q_T(x_i, x_j) = int_0^T h(t)^2 dt, where the path
        # h is J_i on the span [start_i, end_i] summed over the atoms, with
        # start clamped to end (atoms past T + tau get an empty span).  The
        # atoms come in any order: one stable_order sorts the starts (+J)
        # and the ends (-J) together; h after each event is the
        # compensated running sum of the jumps, and the integral sums h^2
        # over the gaps to the next event, all terms >= 0 (a gap between
        # neighbouring events is exact away from 0).  Each array of 2n is
        # dropped once used: at most five are live, in running_sum.
        start, end = self._span(T, x)
        events = np.concatenate([np.minimum(start, end, out=start), end])
        del start, end
        order, events = stable_order(events)
        gaps = np.diff(events)
        del events
        jumps = np.concatenate([J, -J])[order]
        del order
        h = running_sum(jumps)
        del jumps
        return comp_sum(h[:-1] ** 2 * gaps)

    def row_integrals(self, T, x, w, edges, mu, power):
        """int mu(y) Q_T(x_i, y)^power dy at the increasing nodes x of the
        window, as the tensor-grid sum (Q ** power) v with v = w mu(x), the
        power taken entrywise, for Q_ij = Q_T(x_i, x_j); the edges are not
        used.  One diagonal d_i = Q[i, i + k] at a time in reused buffers
        adds d^power v[i + k] to row i and its mirror d^power v[i] to row
        i + k.  Diagonal k stops at the last row whose band reaches k nodes;
        beyond the band d is exactly 0.  The panels straddle the kink of
        Q_T at y = x_i, so the rows carry up to ~2e-4 relative error at
        power 1 and ~1e-2 at power 4."""
        v = w * mu(x)
        start, end = self._span(T, x)
        n = x.size
        width = np.searchsorted(x, x + self.band, side="right") - np.arange(n)
        # rows i < length[k] reach diagonal k
        reach = np.maximum.accumulate(width[::-1])[::-1]
        length = np.searchsorted(-reach, -np.arange(int(width.max())), side="left")
        buf = np.empty((2, n))
        out = np.maximum(end - start, 0.0) ** power * v
        for k in range(1, length.size):
            e = int(length[k])
            d, dv = buf[0, :e], buf[1, :e]
            np.subtract(end[:e], start[k:k + e], out=d)
            np.maximum(d, 0.0, out=d)
            if power != 1:
                d **= power
            out[:e] += np.multiply(d, v[k:k + e], out=dv)
            out[k:k + e] += np.multiply(d, v[:e], out=dv)
        return out

    def _blocks(self, x) -> list:
        # bounds of contraction_11's index blocks of the increasing nodes x.
        # The band of row i ends before node hi[i], nondecreasing in i, so
        # block b + 1 ending at hi of block b's last row keeps every row of
        # block b inside blocks b - 1 .. b + 1.  Blocks 0 and 1 split the
        # rows 0 .. hi[0] - 1 that meet row 0.
        hi = np.searchsorted(x, x + self.band, side="right")
        bounds = [0, (int(hi[0]) + 1) // 2]
        while bounds[-1] < x.size:
            bounds.append(max(int(hi[bounds[-1] - 1]), bounds[-1] + 1))
        return bounds

    def contraction_11(self, T, x, r2):
        """||A^2||_F^2 for A_ij = r_i Q_T(x_i, x_j) r_j at the increasing
        nodes x of the window, r^2 = r2.

        The nodes are cut into index blocks I_b, each ending where the band
        of the rows of I_{b-1} ends, so A[I_b, I_c] = 0 unless |b - c| <= 1
        and a block is about as wide as the band rows around it.  A is its
        diagonal blocks M_b and the blocks R_b = A[I_b, I_{b+1}] right of
        them; of the symmetric A^2 only the blocks
            A^2[I_b, I_b]     = M_b M_b + R_{b-1}^T R_{b-1} + R_b R_b^T,
            A^2[I_b, I_{b+1}] = M_b R_b + R_b M_{b+1},
            A^2[I_b, I_{b+2}] = R_b R_{b+1}
        and their mirror images are nonzero.  The blocks are formed from the
        spans for a batch of consecutive b at a time, each padded to the
        batch's widest block with end 0, start +inf and r 0: a batch of L
        blocks of width m holds L m^2 <= _STREAM entries in each array, or
        one block.  Each batch's three sums are added under math.fsum."""
        start, end = self._span(T, x)
        n = x.size
        bounds = self._blocks(x)
        nb = len(bounds) - 1
        # blocks -1, nb and nb + 1 are empty; node n is the padding
        first = np.array([n] + bounds[:-1] + [n, n])
        width = np.concatenate([[0], np.diff(bounds), [0, 0]])
        S, E = np.append(start, np.inf), np.append(end, 0.0)
        r = np.append(np.sqrt(r2), 0.0)
        partials = []
        b0 = 0
        while b0 < nb:
            # L blocks b0 .. b0 + L - 1 read the blocks b0 - 1 .. b0 + L + 1
            widest = np.maximum.accumulate(width[b0:])
            L = int(np.searchsorted(np.arange(1, nb - b0 + 1) * widest[3:] ** 2, _STREAM,
                                    side="right"))
            L = max(L, 1)
            m = int(widest[L + 2])
            col = np.arange(m)
            at = np.where(col < width[b0:b0 + L + 3, None], first[b0:b0 + L + 3, None] + col, n)
            s, e, w = S[at], E[at], r[at]
            # R[c] = A[I_c, I_{c+1}] for the blocks b0 - 1 .. b0 + L: every i
            # precedes every j there, so Q_ij = max(0, e_i - s_j)
            R = e[:-1, :, None] - s[1:, None, :]
            np.maximum(R, 0.0, out=R)
            R *= w[:-1, :, None] * w[1:, None, :]
            # M[c] = A[I_c, I_c] for the blocks b0 .. b0 + L
            M = e[1:-1, :, None] - s[1:-1, None, :]
            M = np.minimum(M, M.transpose(0, 2, 1))
            np.maximum(M, 0.0, out=M)
            M *= w[1:-1, :, None] * w[1:-1, None, :]
            Mb, Rb = M[:-1], R[1:-1]
            C = Mb @ Mb
            C += R[:-2].transpose(0, 2, 1) @ R[:-2]
            C += Rb @ Rb.transpose(0, 2, 1)
            partials.append(float(np.sum(np.square(C, out=C))))
            C = Mb @ Rb
            C += Rb @ M[1:]
            partials.append(2.0 * float(np.sum(np.square(C, out=C))))
            C = Rb @ R[2:]
            partials.append(2.0 * float(np.sum(np.square(C, out=C))))
            b0 += L
        return math.fsum(partials)


@dataclass(frozen=True)
class DykstraLaud(_Nested):
    """k(t,x) = 1{0 <= x <= t}; yields monotone increasing hazard paths."""

    def label(self) -> str:
        return "dykstra_laud"

    def value(self, t, x):
        return ((x >= 0) & (x <= t)).astype(float)

    def K(self, T, x):
        return np.where(x >= 0, np.maximum(T - x, 0.0), 0.0)


@dataclass(frozen=True)
class OrnsteinUhlenbeck(_Green):
    """k(t,x) = sqrt(2 kappa) exp(-kappa (t-x)) 1{0 <= x <= t}."""
    kappa: float
    RULES: ClassVar[dict] = {"kappa": (lambda x: x > 0, "kappa > 0")}

    def label(self) -> str:
        return f"ornstein_uhlenbeck(kappa={self.kappa:g})"

    def value(self, t, x):
        k = self.kappa
        on = (x >= 0) & (x <= t)
        return np.where(on, math.sqrt(2.0 * k) * np.exp(-k * np.where(on, t - x, 0.0)), 0.0)

    def K(self, T, x):
        k = self.kappa
        on = (x >= 0) & (x <= T)
        return np.where(on, math.sqrt(2.0 / k) * (-np.expm1(-k * np.where(on, T - x, 0.0))), 0.0)

    @property
    def decay(self) -> float:
        return self.kappa

    def g(self, T, z):
        # Q_T(x, y) = e^{-k|x-y|} - e^{-k(2T-x-y)}, 0 once max(x, y) > T;
        # formed in place in one array of z's shape (a scalar z too): the
        # pair sum calls this on the atoms
        out = np.subtract(T, z, out=np.empty(np.shape(z)))
        np.maximum(out, 0.0, out=out)
        out *= -2.0 * self.kappa
        np.expm1(out, out=out)
        return np.negative(out, out=out)

    def slice_mass(self, t):
        k = self.kappa
        return math.sqrt(2.0 / k) * -np.expm1(-k * np.maximum(t, 0.0))

    def panel_step(self, T: float) -> float:
        return 1.0 / self.kappa

    @property
    def bulk(self) -> tuple:
        return math.sqrt(2.0 / self.kappa), 1.0, 1.0 / self.kappa


@dataclass(frozen=True)
class UShaped(_Nested):
    """k(t,x) = 1{|t - beta| >= x}; bath-tub shape with minimum at beta."""
    beta: float
    RULES: ClassVar[dict] = {"beta": (lambda x: x > 0, "beta > 0")}

    def label(self) -> str:
        return f"u_shaped(beta={self.beta:g})"

    def value(self, t, x):
        return ((x >= 0) & (np.abs(t - self.beta) >= x)).astype(float)

    def K(self, T, x):
        # formed in place, at most two arrays of x's shape live: the pair
        # sum calls this as its g
        b = self.beta
        out = np.subtract(b, x, out=np.empty(np.shape(x)))
        np.minimum(out, T, out=out)
        np.maximum(0.0, out, out=out)
        tail = np.add(b, x, out=np.empty(np.shape(x)))
        np.subtract(T, tail, out=tail)
        np.maximum(0.0, tail, out=tail)
        out += tail
        del tail
        out[~(x >= 0)] = 0.0
        return out

    def window(self, T: float) -> tuple:
        b = self.beta
        return (0.0, max(b, T - b))

    def breaks(self, T: float) -> list:
        b = self.beta
        return [b, abs(T - b)]


Kernel = Union[Rectangular, DykstraLaud, OrnsteinUhlenbeck, UShaped]


# Widest exponent k (x - x_first) inside one block of _decayed_prefix:
# e^{+-200} stays far from overflow and underflow, with an error of up to
# ~200 ulp in each such factor; a narrower span adds a Python step per
# block on every OU grid and path.
_SPAN = 200.0


def _decayed_prefix(k, x, a) -> np.ndarray:
    """L_j = sum_{i<j} a_i e^{-k(x_j - x_i)} for increasing x, k >= 0 and
    a >= 0: the sum behind every reduction of the Green's-function kernels.

    A block holds at most _STREAM points, spanning at most _SPAN in
    z = k (x - x_first), and in it L = e^{-z} (carry + the exclusive cumsum
    of a e^{z}), all terms positive.  The carry is L + a at the previous
    block's last point, moved over the gap by one factor e^{-k gap}, so it
    underflows only where the terms it sums do.  For k = 0 on fewer than
    _STREAM points, L is the exclusive cumsum of a bit for bit."""
    L = np.empty(x.size)
    carry, start = 0.0, 0
    while start < x.size:
        stop = min(start + _STREAM, x.size)
        if k > 0:
            stop = start + int(np.searchsorted(x[start:stop], x[start] + _SPAN / k, side="right"))
        z = np.subtract(x[start:stop], x[start])
        z *= k
        q = np.exp(z)
        q *= a[start:stop]
        np.cumsum(q, out=q)
        out = L[start:stop]
        out[0] = carry
        np.add(carry, q[:-1], out=out[1:])
        out *= np.exp(np.negative(z, out=z), out=z)
        if stop < x.size:
            carry = float(out[-1] + a[stop - 1]) * math.exp(-k * (x[stop] - x[stop - 1]))
        start = stop
    return L


def _check_T(T: float) -> float:
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon T must be finite and > 0, got {T}")
    return float(T)


def eval_kernel(kernel: Kernel, t, x):
    """Pointwise kernel value; vectorized over t and/or x."""
    out = kernel.value(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def K_T(kernel: Kernel, T: float, x):
    """K_T(x) = int_0^T k(t,x) dt, exact for all T > 0."""
    out = kernel.K(_check_T(T), np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def Q_T(kernel: Kernel, T: float, x, y):
    """Q_T(x,y) = int_0^T k(t,x) k(t,y) dt; symmetric, exact for all T > 0."""
    out = kernel.Q(_check_T(T), np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return out if np.ndim(out) else float(out)


def location_window(kernel: Kernel, T: float) -> tuple:
    """Support of x -> K_T(x): atoms outside it cannot affect horizon T."""
    return kernel.window(_check_T(T))

