"""Monte Carlo simulation of the search game.

Each consumer draws a private search cost c, forms the reservation cutoff
r = ``reservation_value(G, c)`` of the conjectured signal distribution G,
then visits firms in a uniformly random order with perfect recall: stop and
buy at the first signal s >= r, otherwise buy the best signal seen after
exhausting all firms, the first seen among equals.  Zero-cost consumers
clear at no signal and visit everyone.

Firms 1..n-1 all play G and are interchangeable (Wolinsky, QJE 1986), so a
consumer's path is drawn by inversion (Devroye, 1986) from one row of seven
uniforms, whatever n is:

* the cost, and firm 0's signal;
* firm 0's place in the visit order, uniform on 0..n-1;
* the number of rivals visited before the first one that clears, geometric
  with P(a rival falls short) = G(r-), where a count of n - 1 means none
  clears;
* two signal draws: the signal that clears, G's quantile on [G(r-), 1]; or
  where none clears, the best rival before firm 0 and the best after it,
  G's quantile at G(r-) u^(1/m) for the m rivals on that side;
* the label of the rival who sells, uniform on 1..n-1.

Everything but firm 0's signal s is drawn once per consumer, and firm 0
sells exactly when s clears one cutoff t, closed or open: t = inf when a
rival before firm 0 clears r; t = r, closed, when firm 0 is reached and a
later rival clears; and where none clears, t = min(r, max(b0, b1)) for the
best rivals b0 before and b1 after firm 0, closed at r and where b0 < b1
(after an exhausted search the first best signal in visit order sells).
Each firm-0 law then only draws s and compares it with t.  The demand
probe (firm 0 signalling uniformly on [0, 1]) shares the on-path pass and
the cutoffs: its signal is the uniform that firm 0's signal is drawn from,
as inverting U[0, 1] is the identity, and it only fills the demand bins.

Randomness is counter-based: each block of ``CHUNK`` consumers is drawn
from its own Philox stream, keyed by the seed and the block index (Salmon
et al., SC 2011), so runs are bit-identical for a given seed, consumer
count and ``CHUNK``, memory is set by ``CHUNK`` and not by n, and the
underlying uniforms per consumer do not depend on the strategy being
simulated -- deviation runs are paired samples against the baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dists import NO_COST, PiecewisePolyDist, reservation_value

__all__ = ["SimConfig", "SimOutcome", "simulate_market", "simulate_deviation"]

CHUNK = 1 << 14  # consumers per RNG block; fixed so streams are index-stable


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


def _search(G, n, costs, u):
    """One block of consumers with search ``costs``, drawing their paths
    from ``u`` (the row of seven uniforms of each consumer) but firm 0's
    signal.  Returns per consumer firm 0's winning cutoff ``t`` and whether
    it is ``closed`` (see :func:`_cutoff`), the reservation value r (inf for
    zero-cost consumers), firm 0's place ``k0``, the rival's ``label``, its
    ``offer`` and the rival visit count where firm 0 does not sell, and
    ``some``, whether a rival clears r."""
    b = len(costs)
    searching = costs > NO_COST  # zero-cost consumers clear at no signal
    r = reservation_value(G, costs)
    p = np.where(searching, G.cdf_left(r), 1.0)  # a rival falls short of r
    r = np.where(searching, r, np.inf)
    k0 = (u[:, 2] * n).astype(np.intp)  # firm 0's place in the visit order
    # j rivals fall short before one clears, P(j >= i) = p^i; j = n - 1: none clears
    g = 1.0 - u[:, 3]
    some = g > p ** (n - 1)
    j = np.full(b, n - 1)
    with np.errstate(divide="ignore"):  # log(0) where every rival clears
        j[some] = np.minimum(np.log(g[some]) / np.log(p[some]), n - 2)
    rival_visits = np.minimum(j + 1 + (j >= k0), n)
    label = 1 + (u[:, 6] * (n - 1)).astype(np.intp)
    # the rival's offer: the signal that clears, G on [p, 1], or where none
    # clears, the best of the m rivals before and after firm 0, G at p u^(1/m);
    # a rival that clears after firm 0 is a best rival of +inf to firm 0
    offer = np.empty(b)
    offer[some] = G.quantile(p[some] + (1.0 - p[some]) * u[some, 4])
    none = np.flatnonzero(~some)
    m = np.stack([k0[none], n - 1 - k0[none]], axis=1)
    best = np.full((b, 2), np.inf)
    with np.errstate(divide="ignore"):  # 1 / 0 where a side holds no rivals
        best[none] = np.where(m > 0, G.quantile(p[none, None] * u[none, 4:6] ** (1.0 / m)), -np.inf)
    offer[none] = best[none].max(axis=1)
    t, closed = _cutoff(r, best[:, 0], best[:, 1], some & (j < k0))
    return t, closed, r, k0, label, offer, rival_visits, some


def _cutoff(r, b0, b1, blocked):
    """Firm 0's winning cutoff (t, closed) for consumers with reservation
    value ``r``, best rivals ``b0`` before and ``b1`` after firm 0 in visit
    order (-inf where a side holds none) and ``blocked`` where a rival
    before firm 0 clears r.  A blocked consumer never reaches firm 0:
    t = inf.  Otherwise firm 0 sells at s >= r, or after an exhausted search
    where s is the first best signal in visit order: t = min(r, max(b0, b1)),
    closed at r and where b0 < b1.  A rival that clears after firm 0 has
    b1 >= r, so there t = r, closed."""
    t = np.where(blocked, np.inf, np.minimum(r, np.maximum(b0, b1)))
    return t, (t == r) | (b0 < b1)


def _sells(s, t, closed):
    """Whether firm 0 sells at signal ``s`` to consumers with cutoffs (t, closed)."""
    return (s > t) | ((s == t) & closed)


def _run(cfg: SimConfig, law: PiecewisePolyDist, probe: bool) -> tuple:
    """One pass over the consumer blocks with firm 0 signalling from
    ``law``; returns the raw sums for :func:`_finish`.  The demand bins
    count ``law``'s own (signal, sale) pairs, or with ``probe`` those of
    firm 0 signalling its uniform itself: the probe shares each consumer's
    cutoff, and only fills the bins."""
    G, H, n = cfg.prior_mean_strategy, cfg.costs, cfg.n
    total = cfg.consumers
    edges = np.linspace(0.0, 1.0, cfg.bins + 1)
    dec_edges = H.quantile((np.arange(1, 10) / 10.0))
    wins, win_bins, sig_bins = np.zeros(n), np.zeros(cfg.bins), np.zeros(cfg.bins)
    stops, type_counts = np.zeros(10), np.zeros(10)
    cs_sum = cs_sq = len_sum = len_sq = 0.0
    for block, start in enumerate(range(0, total, CHUNK)):
        gen = np.random.Generator(np.random.Philox(key=[cfg.seed, block]))
        u = gen.random((min(CHUNK, total - start), 7))
        costs = H.quantile(u[:, 0])
        dec = np.clip(np.digitize(costs, dec_edges), 0, 9)
        type_counts += np.bincount(dec, minlength=10)
        t, closed, r, k0, label, offer, rival_visits, some = _search(G, n, costs, u)
        s0 = law.quantile(u[:, 1])
        win = _sells(s0, t, closed)
        stop0 = win & (s0 >= r)  # firm 0 stops the search
        visits = np.where(stop0, k0 + 1, rival_visits)
        wins += np.bincount(np.where(win, 0, label), minlength=n)
        cs = np.where(win, s0, offer) - costs * visits
        cs_sum += float(cs.sum())
        cs_sq += float((cs**2).sum())
        len_sum += float(visits.sum())
        len_sq += float((visits.astype(float) ** 2).sum())
        stops += np.bincount(dec[stop0 | some], minlength=10)
        if probe:
            s0 = u[:, 1]
            win = _sells(s0, t, closed)
        # empirical demand: firm 0's (signal, sale) pairs, one per consumer
        sig_bin = np.clip(np.digitize(s0, edges) - 1, 0, cfg.bins - 1)
        sig_bins += np.bincount(sig_bin, minlength=cfg.bins)
        win_bins += np.bincount(sig_bin[win], minlength=cfg.bins)
    return (wins, win_bins, sig_bins, cs_sum, cs_sq, len_sum, len_sq, stops, type_counts, edges)


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
    unbiased win frequencies.  The probe shares the pass over the consumers
    and their cutoffs; all other statistics come from the on-path market."""
    return _finish(cfg, _run(cfg, cfg.prior_mean_strategy, probe=True))


def simulate_deviation(cfg: SimConfig, G_dev: PiecewisePolyDist) -> tuple[float, float, SimOutcome]:
    """Firm 0 draws signals from G_dev while consumers keep the conjecture;
    returns (firm 0 payoff, its standard error, full outcome).  Uses the
    same consumer uniforms as the baseline run with the same seed; the
    demand bins count firm 0's own deviating signals."""
    out = _finish(cfg, _run(cfg, G_dev, probe=False))
    p = float(out.firm_payoffs[0])
    se = float(out.payoff_se[0])
    return p, se, out
