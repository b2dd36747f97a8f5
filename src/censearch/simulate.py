"""Monte Carlo simulation of the search game.

Each consumer draws a private search cost, forms the reservation cutoff
implied by the conjectured signal distribution, then visits firms in a
uniformly random order with perfect recall: stop and buy at the first signal
clearing the cutoff, otherwise buy the best signal seen after exhausting all
firms (ties resolved uniformly).  Zero-cost consumers visit everyone.

Randomness is counter-based (Philox keyed by seed and a fixed-size consumer
block index), so runs are bit-identical for a given seed and consumer count,
and the underlying uniforms per consumer do not depend on the strategy being
simulated -- deviation runs are paired samples against the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import PiecewisePolyDist

__all__ = ["SimConfig", "SimOutcome", "simulate_market", "simulate_deviation"]

CHUNK = 1 << 17  # consumers per RNG block; fixed so streams are index-stable


@dataclass
class SimConfig:
    prior_mean_strategy: PiecewisePolyDist   # symmetric conjecture G
    costs: PiecewisePolyDist
    n: int
    consumers: int
    seed: int = 0
    bins: int = 50
    deviation: PiecewisePolyDist | None = None  # firm 0's true signal law


@dataclass
class SimOutcome:
    firm_payoffs: np.ndarray
    payoff_se: np.ndarray
    bin_mids: np.ndarray
    empirical_demand: np.ndarray
    demand_se: np.ndarray
    bin_counts: np.ndarray
    cs_mean: float
    cs_se: float
    search_length_mean: float
    search_length_se: float
    stop_rate_by_cost_quantile: np.ndarray
    consumers: int
    seed: int

    def to_json(self) -> dict:
        return {
            "firm_payoffs": self.firm_payoffs.tolist(),
            "payoff_se": self.payoff_se.tolist(),
            "bin_mids": self.bin_mids.tolist(),
            "empirical_demand": self.empirical_demand.tolist(),
            "demand_se": self.demand_se.tolist(),
            "bin_counts": self.bin_counts.tolist(),
            "cs_mean": self.cs_mean,
            "cs_se": self.cs_se,
            "search_length_mean": self.search_length_mean,
            "search_length_se": self.search_length_se,
            "stop_rate_by_cost_quantile": self.stop_rate_by_cost_quantile.tolist(),
            "consumers": self.consumers,
            "seed": self.seed,
        }


def _run(cfg: SimConfig):
    """Accumulate per-chunk statistics; returns raw sums for the outcome."""
    G, H, n = cfg.prior_mean_strategy, cfg.costs, cfg.n
    Gdev = cfg.deviation
    total = cfg.consumers
    bins = cfg.bins
    edges = np.linspace(0.0, 1.0, bins + 1)
    dec_edges = H.quantile((np.arange(1, 10) / 10.0))
    wins = np.zeros(n)
    win_count_bins = np.zeros(bins)
    sig_count_bins = np.zeros(bins)
    cs_sum = cs_sq = 0.0
    len_sum = len_sq = 0.0
    stop_counts = np.zeros(10)
    type_counts = np.zeros(10)
    pay0_sq = 0.0
    done = 0
    chunk_idx = 0
    while done < total:
        b = min(CHUNK, total - done)
        gen = np.random.Generator(np.random.Philox(key=[cfg.seed, chunk_idx]))
        u = gen.random((b, 2 * n + 1))
        cost_u, sig_u, order_u = u[:, 0], u[:, 1 : n + 1], u[:, n + 1 :]
        costs = H.quantile(cost_u)
        signals = np.empty((b, n))
        clears = np.empty((b, n), dtype=bool)
        for j in range(n):
            src = Gdev if (Gdev is not None and j == 0) else G
            signals[:, j] = src.quantile(sig_u[:, j])
            # a signal clears the cutoff of cost c exactly when the benefit of
            # searching on from it is at most c; zero-cost consumers visit everyone
            clears[:, j] = (G.tail_gap(signals[:, j]) <= costs) & (costs > 1e-15)
        order = np.argsort(order_u, axis=1, kind="stable")
        sig_by_visit = np.take_along_axis(signals, order, axis=1)
        stop_mask = np.take_along_axis(clears, order, axis=1)
        any_stop = stop_mask.any(axis=1)
        first_stop = np.where(any_stop, stop_mask.argmax(axis=1), n - 1)
        visits = np.where(any_stop, first_stop + 1, n)
        # stoppers buy on the spot; the rest buy the best seen, ties to the
        # earliest visit (uniform over tied firms by symmetry of the order)
        row = np.arange(b)
        stop_firm = order[row, first_stop]
        stop_value = sig_by_visit[row, first_stop]
        best = signals.max(axis=1)
        pos_of_firm = np.empty_like(order)
        np.put_along_axis(pos_of_firm, order, np.arange(n)[None, :].repeat(b, 0), axis=1)
        tie_pos = np.where(np.abs(signals - best[:, None]) <= 0.0, pos_of_firm, n + 1)
        recall_pos = tie_pos.min(axis=1)
        recall_firm = order[row, np.minimum(recall_pos, n - 1)]
        firm = np.where(any_stop, stop_firm, recall_firm)
        value = np.where(any_stop, stop_value, best)
        wins += np.bincount(firm, minlength=n)
        if Gdev is not None:
            pay0_sq += float(((firm == 0).astype(float) ** 2).sum())
        # empirical demand: firm 0's (signal, win) pairs, one per consumer
        sig_bin = np.clip(np.digitize(signals[:, 0], edges) - 1, 0, bins - 1)
        np.add.at(sig_count_bins, sig_bin, 1.0)
        np.add.at(win_count_bins, sig_bin[firm == 0], 1.0)
        cs = value - costs * visits
        cs_sum += float(cs.sum())
        cs_sq += float((cs**2).sum())
        len_sum += float(visits.sum())
        len_sq += float((visits.astype(float) ** 2).sum())
        dec = np.clip(np.digitize(costs, dec_edges), 0, 9)
        np.add.at(type_counts, dec, 1.0)
        np.add.at(stop_counts, dec[any_stop], 1.0)
        done += b
        chunk_idx += 1
    return (
        wins,
        win_count_bins,
        sig_count_bins,
        cs_sum,
        cs_sq,
        len_sum,
        len_sq,
        stop_counts,
        type_counts,
        edges,
    )


def _finish(cfg: SimConfig, raw) -> SimOutcome:
    (wins, win_bins, sig_bins, cs_sum, cs_sq, len_sum, len_sq, stops, types, edges) = raw
    N = cfg.consumers
    payoffs = wins / N
    payoff_se = np.sqrt(np.maximum(payoffs * (1 - payoffs), 0.0) / N)
    with np.errstate(invalid="ignore", divide="ignore"):
        demand = np.where(sig_bins > 0, win_bins / np.maximum(sig_bins, 1), np.nan)
        dse = np.sqrt(np.maximum(demand * (1 - demand), 0.0) / np.maximum(sig_bins, 1))
        stop_rate = np.where(types > 0, stops / np.maximum(types, 1), np.nan)
    cs_mean = cs_sum / N
    cs_var = max(cs_sq / N - cs_mean**2, 0.0)
    len_mean = len_sum / N
    len_var = max(len_sq / N - len_mean**2, 0.0)
    return SimOutcome(
        firm_payoffs=payoffs,
        payoff_se=payoff_se,
        bin_mids=0.5 * (edges[:-1] + edges[1:]),
        empirical_demand=demand,
        demand_se=dse,
        bin_counts=sig_bins,
        cs_mean=float(cs_mean),
        cs_se=float(np.sqrt(cs_var / N)),
        search_length_mean=float(len_mean),
        search_length_se=float(np.sqrt(len_var / N)),
        stop_rate_by_cost_quantile=stop_rate,
        consumers=N,
        seed=cfg.seed,
    )


def simulate_market(cfg: SimConfig, demand_probe: bool = True) -> SimOutcome:
    """Simulate the symmetric market (all firms draw from the conjecture).

    The empirical demand curve needs observations at off-path signals, so it
    comes from a paired probe pass: firm 0 redraws its signal uniformly on
    [0, 1] (consumers cannot observe the change), populating every bin with
    unbiased win frequencies.  All other statistics come from the on-path
    pass."""
    if cfg.deviation is not None:
        raise ValueError("use simulate_deviation for a deviating firm")
    out = _finish(cfg, _run(cfg))
    if demand_probe:
        probe_cfg = SimConfig(
            prior_mean_strategy=cfg.prior_mean_strategy,
            costs=cfg.costs,
            n=cfg.n,
            consumers=cfg.consumers,
            seed=cfg.seed,
            bins=cfg.bins,
            deviation=PiecewisePolyDist.uniform(0.0, 1.0),
        )
        probe = _finish(probe_cfg, _run(probe_cfg))
        out.empirical_demand = probe.empirical_demand
        out.demand_se = probe.demand_se
        out.bin_counts = probe.bin_counts
    return out


def simulate_deviation(cfg: SimConfig, G_dev: PiecewisePolyDist) -> tuple[float, float, SimOutcome]:
    """Firm 0 draws signals from G_dev while consumers keep the conjecture;
    returns (firm 0 payoff, its standard error, full outcome).  Uses the
    same consumer uniforms as the baseline run with the same seed."""
    dev_cfg = SimConfig(
        prior_mean_strategy=cfg.prior_mean_strategy,
        costs=cfg.costs,
        n=cfg.n,
        consumers=cfg.consumers,
        seed=cfg.seed,
        bins=cfg.bins,
        deviation=G_dev,
    )
    out = _finish(dev_cfg, _run(dev_cfg))
    p = float(out.firm_payoffs[0])
    se = float(out.payoff_se[0])
    return p, se, out
