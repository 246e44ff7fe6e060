"""Seeded randomized fuzz: each reference kernel against its definition.

The reference kernels are the semantic ground truth of every answer, so
each one is checked here against a direct, unoptimised transcription of
the paper's definition — no early exits, no running extrema — over
random store shapes (empty, singleton, large), both planes' sweep
directions, and an alpha ladder including the ``0.5`` sentinel
(``z = 0``) and ``0.9999`` (``|z| > 3.5``).  The comparisons are exact:
same survivors, same values to the last bit, same tie-breaks.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.kernels import reference
from repro.core.labelstore import LabelStore
from repro.core.pathsummary import PathSummary
from repro.core.pruning import prune_correlated, prune_pair
from repro.stats.zscores import z_value

#: The sweep: 0.5 is the z = 0 sentinel, 0.9999 forces |z| > 3.5.
ALPHAS = (0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.9999)

SEEDS = (11, 23, 47)
SIZES = (0, 1, 2, 7, 33, 128)


def _candidates(rng: random.Random, k: int) -> list[tuple[float, float]]:
    return [
        (rng.uniform(10.0, 40.0), rng.uniform(0.5, 30.0) ** 2) for _ in range(k)
    ]


def _refined(rng: random.Random, k: int) -> tuple[list[float], list[float], list[float]]:
    """A valid refined independent-high set: run the reference RF sweep
    over random candidates, so mu strictly rises and sigma strictly falls."""
    cand = sorted(_candidates(rng, k))
    mus = [mu for mu, _ in cand]
    vars_ = [var for _, var in cand]
    sigmas = [var ** 0.5 for var in vars_]
    kept = reference.refine_keep(mus, vars_, sigmas, None, False)
    return (
        [mus[i] for i in kept],
        [sigmas[i] for i in kept],
        [vars_[i] for i in kept],
    )


def _first_min(values):
    """Index of the first minimum (``-1`` when empty), by full scan."""
    best = -1
    for i, value in enumerate(values):
        if best < 0 or value < values[best]:
            best = i
    return best


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_compute_bound_refs(self, seed):
        """Definitions 10/11: argmax / argmin of the mean-over-sigma ratio."""
        rng = random.Random(seed)
        for k in SIZES:
            mus, sigmas, _ = _refined(rng, k)
            n = len(mus)
            ub = [
                max(
                    range(i),
                    key=lambda j: (mus[i] - mus[j]) / (sigmas[j] - sigmas[i]),
                    default=-1,
                )
                for i in range(n)
            ]
            lb = [
                min(
                    range(i + 1, n),
                    key=lambda j: (mus[j] - mus[i]) / (sigmas[i] - sigmas[j]),
                    default=-1,
                )
                for i in range(n)
            ]
            assert reference.compute_bound_refs(mus, sigmas) == (ub, lb), (seed, k)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_independent(self, seed):
        """Propositions 2/3 through a view's own Definition-9 ``bound``."""
        rng = random.Random(seed)
        for k in SIZES:
            mus, sigmas, vars_ = _refined(rng, k)
            o_mus, o_sigmas, _ = _refined(rng, max(k, 1))
            view = LabelStore(independent=True).add_entry(
                None, [PathSummary(mu, var, 0, 1) for mu, var in zip(mus, vars_)]
            )
            ub, lb = view.ub_ratio, view.lb_ratio
            lo, hi = min(o_sigmas), max(o_sigmas)
            for alpha in ALPHAS:
                keep, n2, n3 = [], 0, 0
                for i in range(len(mus)):
                    if ub[i] >= 0 and alpha < view.bound(i, ub[i], lo):
                        n2 += 1
                    elif lb[i] >= 0 and alpha > view.bound(i, lb[i], hi):
                        n3 += 1
                    else:
                        keep.append(i)
                got = reference.prune_independent(mus, sigmas, ub, lb, lo, hi, alpha)
                assert got == (keep, n2, n3), (seed, k, alpha)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_correlated_keep(self, seed):
        """Proposition 5: drop p_2 when some p_1 has
        ``mu_1 + z (sigma_1 + sigma_max) < mu_2``."""
        rng = random.Random(seed)
        for k in SIZES:
            mus, sigmas, _ = _refined(rng, k)
            other = rng.uniform(0.5, 20.0)
            for alpha in ALPHAS:
                z = z_value(alpha)
                want = [
                    i
                    for i in range(len(mus))
                    if not any(
                        mus[j] + z * (sigmas[j] + other) < mus[i]
                        for j in range(len(mus))
                    )
                ]
                got = reference.prune_correlated_keep(mus, sigmas, other, z)
                assert got == want, (seed, k, alpha)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_refine_keep(self, seed):
        """Proposition 1: a path survives the strict sweep iff no earlier
        (smaller-mean) path has a smaller (``high``) / larger (``low``)
        variance; the practical z cap keeps a subset of those, with
        strictly falling capped values."""
        rng = random.Random(seed)
        for k in SIZES:
            for low in (False, True):
                cand = sorted(
                    _candidates(rng, k),
                    key=(lambda mv: (mv[0], -mv[1])) if low else None,
                )
                mus = [mu for mu, _ in cand]
                vars_ = [var for _, var in cand]
                sigmas = [var ** 0.5 for var in vars_]
                if low:
                    strict = [
                        i for i in range(k) if all(vars_[j] < vars_[i] for j in range(i))
                    ]
                else:
                    strict = [
                        i for i in range(k) if all(vars_[j] > vars_[i] for j in range(i))
                    ]
                assert reference.refine_keep(mus, vars_, sigmas, None, low) == strict
                for z_max in (2.0, 3.0):
                    kept = reference.refine_keep(mus, vars_, sigmas, z_max, low)
                    assert set(kept) <= set(strict), (seed, k, low, z_max)
                    sign = -1.0 if low else 1.0
                    capped = [mus[i] + sign * z_max * sigmas[i] for i in kept]
                    assert all(a > b for a, b in zip(capped, capped[1:]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scan_pairs_and_best_label(self, seed):
        """Algorithm 1: first minimum of ``mu + z sigma`` over every pair /
        every stored path, by exhaustive scan."""
        rng = random.Random(seed)
        for k in SIZES:
            mus, sigmas, vars_ = _refined(rng, k)
            o_mus, o_sigmas, o_vars = _refined(rng, k)
            n, m = len(mus), len(o_mus)
            idx_sh = sorted(rng.sample(range(n), rng.randint(0, n))) if n else []
            idx_ht = sorted(rng.sample(range(m), rng.randint(0, m))) if m else []
            for alpha in (0.3, *ALPHAS):  # 0.3: a negative-z scan
                z = z_value(alpha)
                pairs = [(i, j) for i in idx_sh for j in idx_ht]
                values = []
                for i, j in pairs:
                    var = vars_[i] + o_vars[j]
                    values.append(
                        mus[i] + o_mus[j] + (z * math.sqrt(var) if var > 0.0 else 0.0)
                    )
                best = _first_min(values)
                want = (values[best], *pairs[best]) if pairs else (math.inf, -1, -1)
                assert reference.scan_pairs(
                    mus, vars_, o_mus, o_vars, idx_sh, idx_ht, z
                ) == want, (seed, k, alpha)
                label = [mu + z * sigma for mu, sigma in zip(mus, sigmas)]
                best = _first_min(label)
                want_label = (label[best], best) if label else (math.inf, -1)
                assert reference.best_label(mus, sigmas, z) == want_label, (
                    seed, k, alpha
                )

    def test_merge_rowsums_shared(self):
        """Proposition 4's merge sums in the given map order (float addition
        is not associative, so the order is part of the answer)."""
        maps = [{1: 0.1, 2: 0.2}, {2: 0.3, 5: -0.4}, {1: 1e-9}]
        merged = reference.merge_rowsums(maps)
        assert merged == {1: 0.1 + 1e-9, 2: 0.2 + 0.3, 5: -0.4}
        assert list(merged) == [1, 2, 5]


class TestStoreLevelEquivalence:
    """prune_pair / prune_correlated through real store views agree with
    the kernels run on the same columns as plain lists."""

    def _sets(self, seed: int, independent: bool):
        rng = random.Random(seed)
        store = LabelStore(independent=independent)
        views = []
        for key, k in (((1, 0), 19), ((2, 0), 31)):
            mus, sigmas, vars_ = _refined(rng, k)
            views.append(
                store.add_entry(
                    key,
                    [PathSummary(mu, var, 0, 1) for mu, var in zip(mus, vars_)],
                )
            )
        return views

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_pair_matches_kernel(self, seed):
        sh, ht = self._sets(seed, independent=True)
        for alpha in ALPHAS:
            counts = [0, 0]
            got = prune_pair(sh, ht, alpha, counts)
            keep_sh, a2, a3 = reference.prune_independent(
                list(sh.mus), list(sh.sigmas), list(sh.ub_ratio), list(sh.lb_ratio),
                ht.sigma_min, ht.sigma_max, alpha,
            )
            keep_ht, b2, b3 = reference.prune_independent(
                list(ht.mus), list(ht.sigmas), list(ht.ub_ratio), list(ht.lb_ratio),
                sh.sigma_min, sh.sigma_max, alpha,
            )
            assert got == (keep_sh, keep_ht), (seed, alpha)
            assert counts == [a2 + b2, a3 + b3], (seed, alpha)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_correlated_matches_kernel(self, seed):
        sh, ht = self._sets(seed, independent=False)
        for alpha in ALPHAS:
            z = z_value(alpha)
            counts = [0]
            got = prune_correlated(sh, ht, alpha, counts)
            want = (
                reference.prune_correlated_keep(
                    list(sh.mus), list(sh.sigmas), ht.sigma_max, z
                ),
                reference.prune_correlated_keep(
                    list(ht.mus), list(ht.sigmas), sh.sigma_max, z
                ),
            )
            assert got == want, (seed, alpha)
            assert counts == [len(sh) + len(ht) - len(want[0]) - len(want[1])]
