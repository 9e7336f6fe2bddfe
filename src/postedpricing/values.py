"""Set-value objectives and their extensions.

Four oracle flavors: additive (a value per agent), symmetric (value depends
only on how many agents are selected), coverage (weighted set cover), and
black-box callbacks.  The independent-inclusion extension (expected value of
a random set with independent marginals) is exact for additive, symmetric and
coverage values and Monte Carlo sampled for black-box oracles; so is
marginal_gains, the gain in that extension from raising each agent's marginal
on its own.  marginal_gains is defined once, on the base class: it checks
the marginals and hands them to the class's private _gains, which greedy
calls directly on the marginals it builds itself.  A batch of sets is
evaluated from an agent-major (n, trials) boolean mask, the layout
simulate_runs walks in, and each trial gets evaluate's value bit for bit:
sums run over agents or elements in index order.

Value functions are immutable; sampling takes explicit seeds so concurrent
callers never share RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _clip, _lower_hull_vertices


def _sum_in_order(terms) -> float:
    """A left-to-right float sum from 0.0, as the batch evaluators add (their
    extra +0.0 terms move no bit).  sum() compensates float sums from Python
    3.12 on, so it could differ in the last bits."""
    total = 0.0
    for x in terms:
        total += x
    return total


def _check_quantiles(q, n):
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"expected {n} marginals, got shape {q.shape}")
    # fmin / fmax skip NaNs, as the comparisons did
    if (np.fmin.reduce(q, initial=np.inf) < -1e-12
            or np.fmax.reduce(q, initial=-np.inf) > 1 + 1e-12):
        raise ValueError("marginals must lie in [0, 1]")
    return _clip(q, 0.0, 1.0)


class ValueFunction:
    """Base for monotone set-value oracles over agents {0, ..., n-1}."""

    n: int

    def evaluate(self, subset) -> float:
        raise NotImplementedError

    def multilinear(self, q, samples: int = 10_000, seed=None):
        """Expected value under independent inclusion with marginals q.

        Returns (estimate, stderr); stderr is 0 for exact paths.
        """
        q = _check_quantiles(q, self.n)
        if samples <= 0:
            raise ValueError("this value function requires samples > 0")
        rng = np.random.default_rng(seed)
        draws = rng.random((samples, self.n)) < q
        vals = self._evaluate_hires(draws.T)
        stderr = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else float("nan")
        return float(np.mean(vals)), stderr

    def _evaluate_hires(self, hires: np.ndarray) -> np.ndarray:
        """The value of each column of an agent-major (n, trials) boolean
        mask, as evaluate gives it, bit for bit.  A column's bits must not
        depend on the rest of the batch: simulate_runs evaluates the same
        trial in batches of different sizes."""
        return np.array([self.evaluate(np.flatnonzero(c)) for c in hires.T], dtype=float)

    def marginal_estimate(self, q, agents, dq, samples: int = 10_000, seed=None) -> np.ndarray:
        """Sampled V(q + dq[k] * e_agents[k]) - V(q) for each k.

        Every estimate comes from one common (samples, n) uniform draw U:
        the base set of a row is {j : U[j] < q[j]}, and agent i joins it where
        q[i] <= U[i] < q[i] + dq[k].  Each entry is unbiased on its own; the
        candidates share the draw to save its cost, not to correlate them.
        """
        q = _check_quantiles(q, self.n)
        if samples <= 0:
            raise ValueError("samples must be positive")
        agents = np.asarray(agents, dtype=int)
        rng = np.random.default_rng(seed)
        U = rng.random((samples, self.n))
        base = U < q
        # column k: the rows where agents[k] is out of the base set but in
        # the raised one
        flips = (~base[:, agents]) & (U[:, agents] < q[agents] + dq)
        out = np.zeros(len(agents))
        for k in np.flatnonzero(flips.any(axis=0)):
            rows = base[np.flatnonzero(flips[:, k])]  # faster than a bool mask
            out[k] = self._row_marginals(rows, agents[k]).sum() / samples
        return out

    def marginal_gains(self, q, dq, samples: int = 10_000, seed=None) -> np.ndarray:
        """V(q + dq[i] * e_i) - V(q) for every agent i; 0 where dq[i] is 0.

        The one public entry for every class: q is checked here (n marginals
        in [0, 1]), then _gains computes the class's gains.
        """
        return self._gains(_check_quantiles(q, self.n), dq, samples, seed)

    def _gains(self, q, dq, samples, seed) -> np.ndarray:
        """marginal_gains on a checked q, sampled here: one marginal_estimate
        over the raised agents, so a step takes one (samples, n) draw shared
        by every candidate, and none when nothing is raised."""
        dq = np.asarray(dq, dtype=float)
        gains = np.zeros(self.n)
        raised = np.flatnonzero(dq)
        if len(raised):
            gains[raised] = self.marginal_estimate(q, raised, dq[raised],
                                                   samples=samples, seed=seed)
        return gains

    def _row_marginals(self, rows: np.ndarray, i: int) -> np.ndarray:
        out = np.empty(len(rows))
        for r, row in enumerate(rows):
            s = frozenset(np.flatnonzero(row).tolist()) - {i}
            out[r] = self.evaluate(s | {i}) - self.evaluate(s)
        return out


@dataclass(frozen=True)
class AdditiveValue(ValueFunction):
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(0.0 <= v < math.inf for v in vals):
            raise ValueError("agent values must be finite and nonnegative")

    @property
    def n(self):
        return len(self.values)

    def as_array(self):
        return np.asarray(self.values, dtype=float)

    def evaluate(self, subset) -> float:
        return _sum_in_order(self.values[i] for i in sorted(set(subset)))

    def multilinear(self, q, samples: int = 10_000, seed=None):
        q = _check_quantiles(q, self.n)
        return float(np.dot(self.as_array(), q)), 0.0

    def _gains(self, q, dq, samples, seed):
        return self.as_array() * np.asarray(dq, dtype=float)

    def _evaluate_hires(self, hires):
        # agent by agent in index order, as a left-to-right sum
        total = np.zeros(hires.shape[1])
        for v, row in zip(self.values, hires):
            total += np.where(row, v, 0.0)
        return total


@dataclass(frozen=True)
class SymmetricValue(ValueFunction):
    """Value g(|S|) of any set of a given size; g(0) = 0 and g nondecreasing.

    Discrete concavity of g is what makes the function submodular; it is not
    enforced at construction, so a non-concave g is a valid (non-submodular)
    value function.
    """

    g: tuple

    def __post_init__(self):
        g = tuple(float(x) for x in self.g)
        object.__setattr__(self, "g", g)
        if len(g) < 2:
            raise ValueError("g must cover sizes 0..n with n >= 1")
        if not all(math.isfinite(x) for x in g):
            raise ValueError("g must be finite")
        if abs(g[0]) > 0:
            raise ValueError("g(0) must be 0")
        if any(b < a - 1e-12 for a, b in zip(g, g[1:])):
            raise ValueError("g must be nondecreasing")

    @property
    def n(self):
        return len(self.g) - 1

    def evaluate(self, subset) -> float:
        return self.g[len(set(subset))]

    def _evaluate_hires(self, hires):
        return np.asarray(self.g)[np.count_nonzero(hires, axis=0)]

    def size_distribution(self, q) -> np.ndarray:
        """Exact distribution of |S| under independent inclusion (DP)."""
        dp = np.zeros(self.n + 1)
        dp[0] = 1.0
        for p in q:
            nxt = dp * (1.0 - p)
            nxt[1:] += dp[:-1] * p
            dp = nxt
        return dp

    def multilinear(self, q, samples: int = 10_000, seed=None):
        q = _check_quantiles(q, self.n)
        dist = self.size_distribution(q)
        return float(np.dot(dist, np.asarray(self.g))), 0.0

    def _gains(self, q, dq, samples, seed):
        base = self.multilinear(q)[0]
        gains = np.zeros(self.n)
        for i in np.flatnonzero(dq):
            raised = q.copy()
            raised[i] = min(q[i] + dq[i], 1.0)
            gains[i] = self.multilinear(raised)[0] - base
        return gains


@dataclass(frozen=True)
class CoverageValue(ValueFunction):
    """Weighted coverage: each agent covers a subset of a weighted universe."""

    weights: tuple
    covers: tuple  # per agent, a tuple of element indices

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "covers",
                           tuple(tuple(sorted(set(c))) for c in self.covers))
        if not all(0.0 <= x < math.inf for x in w):
            raise ValueError("element weights must be finite and nonnegative")
        for cov in self.covers:
            if cov and (min(cov) < 0 or max(cov) >= len(w)):
                raise ValueError("covered element index out of range")
        # the (n, universe) element-incidence matrix as read-only 0/1 floats,
        # its nonzero mask and the weights as an array; not fields, so
        # equality, hash and repr ignore them
        A = np.zeros((self.n, len(w)))
        for i, cov in enumerate(self.covers):
            A[i, list(cov)] = 1.0
        for name, arr in (("_incidence", A), ("_covered_by", A > 0), ("_weights", np.array(w))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self):
        return len(self.covers)

    def evaluate(self, subset) -> float:
        covered = set()
        for i in set(subset):
            covered.update(self.covers[i])
        return _sum_in_order(self.weights[e] for e in sorted(covered))

    def _evaluate_hires(self, hires):
        # the covered counts are small integers, exact in any summation order;
        # the weights are then added element by element in index order, as a
        # left-to-right sum, so a trial's value does not depend on the batch
        # it sits in, as it does under a matrix product's blocking
        covered = (self._incidence.T @ hires.astype(float)) > 0
        total = np.zeros(hires.shape[1])
        for term in covered * self._weights[:, None]:
            total += term
        return total

    def _missed(self, free):
        """Per element, the chance that no covering agent is in the set: the
        product of free_j = 1 - q_j over the agents j that cover it."""
        return np.where(self._covered_by, free[:, None], 1.0).prod(axis=0)

    def multilinear(self, q, samples: int = 10_000, seed=None):
        q = _check_quantiles(q, self.n)
        return float(np.dot(self._weights, 1.0 - self._missed(1.0 - q))), 0.0

    def _gains(self, q, dq, samples, seed):
        """Exact: V is linear in each q_i, so raising q_i by dq[i] (capped at
        1) gains that step times the sum over i's elements of w_e times the
        product of (1 - q_j) over e's other covering agents.  Dividing i's own
        factor out of the full product keeps a zero from an agent at q_j = 1;
        an agent at q_i = 1 has step 0, so it divides by 1 instead."""
        free = 1.0 - q
        step = np.minimum(np.asarray(dq, dtype=float), free)
        own = np.where(q < 1.0, free, 1.0)
        weighted = self._weights * self._missed(free)
        return step * (self._incidence @ weighted) / own


@dataclass(frozen=True, eq=False)
class OracleValue(ValueFunction):
    """Black-box set oracle: fn(frozenset of agent indices) -> value."""

    n_agents: int
    fn: object

    @property
    def n(self):
        return self.n_agents

    def evaluate(self, subset) -> float:
        return float(self.fn(frozenset(subset)))


# ---------------------------------------------------------------------------
# Size hulls and the symmetric concave closure
# ---------------------------------------------------------------------------

def concave_hull_sizes(v: SymmetricValue):
    """The upper concave hull of {(s, g(s))}: its vertex sizes and values, as
    two arrays for np.interp."""
    if not isinstance(v, SymmetricValue):
        raise TypeError("size hulls are defined for symmetric value functions")
    xs = np.arange(v.n + 1, dtype=float)
    ys = np.asarray(v.g, dtype=float)
    hull = _lower_hull_vertices(xs, -ys)  # the upper hull, mirrored
    return xs[hull], ys[hull]


def concave_closure_symmetric(v: SymmetricValue, q: float) -> float:
    """Best expected value over correlated set distributions with common marginal q.

    Achieved by mixing sets of the two sizes adjacent to n*q, which evaluates
    the size hull at n*q.
    """
    if not isinstance(v, SymmetricValue):
        raise TypeError("symmetric closure requires a symmetric value function")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    return float(np.interp(v.n * q, *concave_hull_sizes(v)))

