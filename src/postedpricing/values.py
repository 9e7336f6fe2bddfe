"""Set-value objectives and their extensions.

Four oracle flavors: additive (a value per agent), symmetric (value depends
only on how many agents are selected), coverage (weighted set cover), and
black-box callbacks.  The independent-inclusion extension (expected value of
a random set with independent marginals) is exact for additive and symmetric
functions and Monte Carlo sampled otherwise; so is marginal_gains, the gain in
that extension from raising each agent's marginal on its own.

Value functions are immutable; sampling takes explicit seeds so concurrent
callers never share RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _lower_hull_vertices


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _check_quantiles(q, n):
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"expected {n} marginals, got shape {q.shape}")
    if np.any(q < -1e-12) or np.any(q > 1 + 1e-12):
        raise ValueError("marginals must lie in [0, 1]")
    return np.clip(q, 0.0, 1.0)


class ValueFunction:
    """Base for monotone set-value oracles over agents {0, ..., n-1}."""

    n: int

    def evaluate(self, subset) -> float:
        raise NotImplementedError

    def marginal(self, subset, i: int) -> float:
        s = frozenset(subset)
        if i in s:
            raise ValueError("agent already in the set")
        return self.evaluate(s | {i}) - self.evaluate(s)

    def multilinear(self, q, samples: int = 10_000, seed=None):
        """Expected value under independent inclusion with marginals q.

        Returns (estimate, stderr); stderr is 0 for exact paths.
        """
        q = _check_quantiles(q, self.n)
        if samples <= 0:
            raise ValueError("this value function requires samples > 0")
        rng = _as_rng(seed)
        draws = rng.random((samples, self.n)) < q
        vals = self._evaluate_rows(draws)
        stderr = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else float("nan")
        return float(np.mean(vals)), stderr

    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.array([self.evaluate(np.flatnonzero(r)) for r in rows], dtype=float)

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
        rng = _as_rng(seed)
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

        Sampled here: one marginal_estimate over the raised agents, so a step
        takes one (samples, n) draw shared by every candidate, and none when
        nothing is raised.
        """
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
        return float(sum(self.values[i] for i in set(subset)))

    def marginal(self, subset, i: int) -> float:
        if i in set(subset):
            raise ValueError("agent already in the set")
        return self.values[i]

    def multilinear(self, q, samples: int = 10_000, seed=None):
        q = _check_quantiles(q, self.n)
        return float(np.dot(self.as_array(), q)), 0.0

    def marginal_gains(self, q, dq, samples: int = 10_000, seed=None):
        return self.as_array() * np.asarray(dq, dtype=float)

    def _evaluate_rows(self, rows):
        # agent by agent in index order, as a left-to-right sum
        total = np.zeros(len(rows))
        for v, col in zip(self.values, np.ascontiguousarray(np.transpose(rows))):
            total += np.where(col, v, 0.0)
        return total


@dataclass(frozen=True)
class SymmetricValue(ValueFunction):
    """Value g(|S|) of any set of a given size; g(0) = 0 and g nondecreasing.

    Discrete concavity of g is what makes the function submodular; it is not
    enforced at construction so that check_submodular can detect violations.
    """

    g: tuple

    def __post_init__(self):
        g = tuple(float(x) for x in self.g)
        object.__setattr__(self, "g", g)
        if len(g) < 2:
            raise ValueError("g must cover sizes 0..n with n >= 1")
        if abs(g[0]) > 0:
            raise ValueError("g(0) must be 0")
        if any(b < a - 1e-12 for a, b in zip(g, g[1:])):
            raise ValueError("g must be nondecreasing")

    @property
    def n(self):
        return len(self.g) - 1

    def evaluate(self, subset) -> float:
        return self.g[len(set(subset))]

    def _evaluate_rows(self, rows):
        return np.asarray(self.g)[np.count_nonzero(rows, axis=1)]

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

    def marginal_gains(self, q, dq, samples: int = 10_000, seed=None):
        q = _check_quantiles(q, self.n)
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
        # the (n, universe) element-incidence matrix as read-only 0/1 floats;
        # not a field, so equality, hash and repr ignore it
        A = np.zeros((self.n, len(w)))
        for i, cov in enumerate(self.covers):
            A[i, list(cov)] = 1.0
        A.flags.writeable = False
        object.__setattr__(self, "_incidence", A)

    @property
    def n(self):
        return len(self.covers)

    def evaluate(self, subset) -> float:
        covered = set()
        for i in set(subset):
            covered.update(self.covers[i])
        return float(sum(self.weights[e] for e in covered))

    def _evaluate_rows(self, rows):
        covered = (rows.astype(float) @ self._incidence) > 0
        return covered @ np.asarray(self.weights)

    def _row_marginals(self, rows, i):
        A = self._incidence
        others = rows.copy()
        others[:, i] = False
        covered = (others.astype(float) @ A) > 0
        gain = (~covered) & (A[i] > 0)
        return gain @ np.asarray(self.weights)


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

@dataclass(frozen=True, eq=False)
class SizeHull:
    """Upper concave hull of {(s, g(s))}, as a piecewise-linear function."""

    xs: np.ndarray
    ys: np.ndarray

    def __call__(self, x):
        return float(np.interp(x, self.xs, self.ys)) if np.isscalar(x) \
            else np.interp(x, self.xs, self.ys)


def concave_hull_sizes(v: SymmetricValue) -> SizeHull:
    if not isinstance(v, SymmetricValue):
        raise TypeError("size hulls are defined for symmetric value functions")
    xs = np.arange(v.n + 1, dtype=float)
    ys = np.asarray(v.g, dtype=float)
    hull = _lower_hull_vertices(xs, -ys)  # the upper hull, mirrored
    return SizeHull(xs=xs[hull].copy(), ys=ys[hull].copy())


def concave_closure_symmetric(v: SymmetricValue, q: float) -> float:
    """Best expected value over correlated set distributions with common marginal q.

    Achieved by mixing sets of the two sizes adjacent to n*q, which evaluates
    the size hull at n*q.
    """
    if not isinstance(v, SymmetricValue):
        raise TypeError("symmetric closure requires a symmetric value function")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    return concave_hull_sizes(v)(v.n * q)


# ---------------------------------------------------------------------------
# Exhaustive submodularity check (small n)
# ---------------------------------------------------------------------------

def _value_table(v: ValueFunction) -> np.ndarray:
    n = v.n
    table = np.empty(1 << n)
    for mask in range(1 << n):
        table[mask] = v.evaluate([i for i in range(n) if mask >> i & 1])
    return table


def check_submodular(v: ValueFunction, tol: float = 1e-9) -> bool:
    """Exhaustively verify monotonicity and diminishing returns (n <= 16)."""
    if v.n > 16:
        raise ValueError("exhaustive check limited to n <= 16")
    n = v.n
    table = _value_table(v)
    masks = np.arange(1 << n)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        if np.any(table[without | (1 << i)] < table[without] - tol):
            return False
    # pairwise characterization: v(S+i) + v(S+j) >= v(S+i+j) + v(S)
    for i in range(n):
        for j in range(i + 1, n):
            free = masks[((masks >> i) & 1 == 0) & ((masks >> j) & 1 == 0)]
            lhs = table[free | (1 << i)] + table[free | (1 << j)]
            rhs = table[free | (1 << i) | (1 << j)] + table[free]
            if np.any(lhs < rhs - tol):
                return False
    return True
