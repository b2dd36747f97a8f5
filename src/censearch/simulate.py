"""Monte Carlo simulation of the search game.

Each consumer draws a private search cost, forms the reservation cutoff
implied by the conjectured signal distribution, then visits firms in a
uniformly random order with perfect recall: stop and buy at the first signal
clearing the cutoff, otherwise buy the best signal seen after exhausting all
firms (ties resolved uniformly).  Zero-cost consumers visit everyone.

The simulation walks the visit positions k = 0..n-1 over the consumers who
have not stopped yet.  A firm's signal is inverted from its uniform, and
tested against the cutoff, only when a consumer visits that firm; signals of
firms a consumer never reaches cannot change any outcome.  Firm 0's signal
is drawn for every consumer, since the empirical demand bins need it.  The
demand probe (firm 0 signalling uniformly on [0, 1]) runs in the same pass
as the on-path market and shares each block's costs, visit orders and the
signals of firms 1..n-1 drawn so far.

Randomness is counter-based (Philox keyed by seed and a fixed-size consumer
block index), so runs are bit-identical for a given seed and consumer count,
and the underlying uniforms per consumer do not depend on the strategy being
simulated -- deviation runs are paired samples against the baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in asdict(self).items()}


class _Sums:
    """Running sums of one firm-0 signal law over the consumer blocks."""

    def __init__(self, n: int, bins: int):
        self.wins = np.zeros(n)
        self.win_bins = np.zeros(bins)
        self.sig_bins = np.zeros(bins)
        self.stops = np.zeros(10)
        self.cs = self.cs_sq = self.len = self.len_sq = 0.0

    def add(self, s0, firm, value, visits, stopped, costs, dec, edges):
        self.wins += np.bincount(firm, minlength=len(self.wins))
        # empirical demand: firm 0's (signal, win) pairs, one per consumer
        sig_bin = np.clip(np.digitize(s0, edges) - 1, 0, len(self.sig_bins) - 1)
        np.add.at(self.sig_bins, sig_bin, 1.0)
        np.add.at(self.win_bins, sig_bin[firm == 0], 1.0)
        cs = value - costs * visits
        self.cs += float(cs.sum())
        self.cs_sq += float((cs**2).sum())
        self.len += float(visits.sum())
        self.len_sq += float((visits.astype(float) ** 2).sum())
        np.add.at(self.stops, dec[stopped], 1.0)


def _search(G, s0, costs, order, sig, sig_u):
    """One block of consumers, firm 0 showing ``s0``, searching in visit
    ``order``.  Entry (i, j) of ``sig`` holds firm j's signal for consumer i
    once some pass has needed it (NaN before), from the uniform ``sig_u[i, j]``;
    column 0 is overwritten with ``s0``.  Returns, per consumer, the firm
    bought from, its signal, the number of visits and whether they stopped."""
    b, n = order.shape
    sig[:, 0] = s0
    firm = np.empty(b, dtype=np.intp)
    value = np.empty(b)
    visits = np.full(b, n)
    stopped = np.zeros(b, dtype=bool)
    live = np.arange(b)
    for k in range(n):
        f = order[live, k]
        s = sig[live, f]
        new = np.isnan(s)
        if new.any():
            s[new] = G.quantile(sig_u[live[new], f[new]])
            sig[live[new], f[new]] = s[new]
        # a signal clears the cutoff of cost c exactly when the benefit of
        # searching on from it is at most c; zero-cost consumers visit everyone
        c = costs[live]
        stop = (G.tail_gap(s) <= c) & (c > 1e-15)
        done = live[stop]
        firm[done], value[done], visits[done], stopped[done] = f[stop], s[stop], k + 1, True
        live = live[~stop]
        if not len(live):
            break
    # the rest have seen every firm and buy the best, ties to the earliest
    # visit (uniform over tied firms by symmetry of the order)
    seen = np.take_along_axis(sig[live], order[live], axis=1)
    firm[live] = order[live, seen.argmax(axis=1)]
    value[live] = seen.max(axis=1)
    return firm, value, visits, stopped


def _run(cfg: SimConfig, laws: list[PiecewisePolyDist]) -> list[tuple]:
    """One pass over the consumer blocks, simulating the market once per
    firm-0 signal law in ``laws``; returns the raw sums of each for
    :func:`_finish`.  The passes of a block share its uniforms, costs,
    visit orders and the signals of firms 1..n-1 drawn so far."""
    G, H, n = cfg.prior_mean_strategy, cfg.costs, cfg.n
    total = cfg.consumers
    edges = np.linspace(0.0, 1.0, cfg.bins + 1)
    dec_edges = H.quantile((np.arange(1, 10) / 10.0))
    sums = [_Sums(n, cfg.bins) for _ in laws]
    type_counts = np.zeros(10)
    done = 0
    chunk_idx = 0
    while done < total:
        b = min(CHUNK, total - done)
        gen = np.random.Generator(np.random.Philox(key=[cfg.seed, chunk_idx]))
        u = gen.random((b, 2 * n + 1))
        cost_u, sig_u, order_u = u[:, 0], u[:, 1 : n + 1], u[:, n + 1 :]
        costs = H.quantile(cost_u)
        order = np.argsort(order_u, axis=1, kind="stable")
        dec = np.clip(np.digitize(costs, dec_edges), 0, 9)
        np.add.at(type_counts, dec, 1.0)
        sig = np.full((b, n), np.nan)
        for law, acc in zip(laws, sums):
            s0 = law.quantile(sig_u[:, 0])
            acc.add(s0, *_search(G, s0, costs, order, sig, sig_u), costs, dec, edges)
        done += b
        chunk_idx += 1
    return [
        (acc.wins, acc.win_bins, acc.sig_bins, acc.cs, acc.cs_sq, acc.len, acc.len_sq,
         acc.stops, type_counts, edges)
        for acc in sums
    ]


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


def simulate_market(cfg: SimConfig) -> SimOutcome:
    """Simulate the symmetric market (all firms draw from the conjecture).

    The empirical demand curve needs observations at off-path signals, so it
    comes from a paired probe: firm 0 redraws its signal uniformly on
    [0, 1] (consumers cannot observe the change), populating every bin with
    unbiased win frequencies.  The probe runs in the same pass over the
    consumers; all other statistics come from the on-path market."""
    laws = [cfg.prior_mean_strategy, PiecewisePolyDist.uniform(0.0, 1.0)]
    out, probe = (_finish(cfg, raw) for raw in _run(cfg, laws))
    out.empirical_demand = probe.empirical_demand
    out.demand_se = probe.demand_se
    out.bin_counts = probe.bin_counts
    return out


def simulate_deviation(cfg: SimConfig, G_dev: PiecewisePolyDist) -> tuple[float, float, SimOutcome]:
    """Firm 0 draws signals from G_dev while consumers keep the conjecture;
    returns (firm 0 payoff, its standard error, full outcome).  Uses the
    same consumer uniforms as the baseline run with the same seed."""
    out = _finish(cfg, _run(cfg, [G_dev])[0])
    p = float(out.firm_payoffs[0])
    se = float(out.payoff_se[0])
    return p, se, out
