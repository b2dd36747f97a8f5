"""Monte Carlo market simulation against the analytic quantities."""

import json

import numpy as np

from censearch import simulate
from censearch.censorship import upper_censorship
from censearch.demand import DemandCurve
from censearch.dists import PiecewisePolyDist
from censearch.simulate import SimConfig, simulate_deviation, simulate_market
from censearch.welfare import consumer_surplus

from test_demand import _random_contraction


def test_no_disclosure_stops_everyone(F, H_uniform):
    delta = upper_censorship(F, 0.0)
    cfg = SimConfig(delta, H_uniform, 3, 50_000, seed=7)
    out = simulate_deviation(cfg, cfg.prior_mean_strategy)[2]
    assert out.search_length_mean == 1.0
    for p, se in zip(out.firm_payoffs, out.payoff_se):
        assert abs(p - 1 / 3) <= 4 * se


def test_censored_strategy_statistics(F, H_uniform):
    U4 = upper_censorship(F, 0.4)
    cfg = SimConfig(U4, H_uniform, 2, 200_000, seed=7)
    out = simulate_market(cfg)
    assert abs(out.search_length_mean - 1.4) <= 4 * out.search_length_se
    for p, se in zip(out.firm_payoffs, out.payoff_se):
        assert abs(p - 0.5) <= 4 * se
    cs = consumer_surplus(F, H_uniform, 0.4, 2)
    assert abs(out.cs_mean - cs) <= 4 * out.cs_se
    # probe-based demand curve agrees bin by bin
    curve = DemandCurve(U4, 2, H_uniform)
    for m, d, se, cnt in zip(out.bin_mids, out.empirical_demand, out.demand_se, out.bin_counts):
        if cnt < 100:
            continue
        assert abs(d - curve.value(float(m))) <= 4 * max(se, 1e-6), m


def test_bit_reproducibility(F, H_uniform):
    U4 = upper_censorship(F, 0.4)
    cfg = SimConfig(U4, H_uniform, 2, 30_000, seed=123)
    a = simulate_market(cfg)
    b = simulate_market(cfg)
    assert np.array_equal(a.firm_payoffs, b.firm_payoffs)
    assert a.cs_mean == b.cs_mean and a.search_length_mean == b.search_length_mean
    assert np.array_equal(a.empirical_demand[np.isfinite(a.empirical_demand)],
                          b.empirical_demand[np.isfinite(b.empirical_demand)])
    c = simulate_market(SimConfig(U4, H_uniform, 2, 30_000, seed=124))
    assert not np.array_equal(a.firm_payoffs, c.firm_payoffs)


def test_deviation_examples(F, H_uniform):
    U4 = upper_censorship(F, 0.4)
    cfg = SimConfig(U4, H_uniform, 2, 200_000, seed=11)
    pay, se, _ = simulate_deviation(cfg, U4)
    assert abs(pay - 0.5) <= 4 * se
    atom = PiecewisePolyDist.point_mass(0.7)
    pay, se, _ = simulate_deviation(cfg, atom)
    assert abs(pay - 0.7) <= 4 * se  # visit probability at the pool
    low = PiecewisePolyDist.point_mass(0.05)
    pay, se, _ = simulate_deviation(cfg, low)
    assert abs(pay - 0.05) <= 4 * se  # wins only when the rival draws below
    # against a conjecture supported away from zero, a floor signal earns nothing
    delta = upper_censorship(F, 0.0)
    pay, se, _ = simulate_deviation(SimConfig(delta, H_uniform, 2, 100_000, seed=11),
                                    PiecewisePolyDist.point_mass(0.0))
    assert pay == 0.0


def test_tie_break_matches_combinatorial_value(F, H_uniform):
    # a feasible strategy with an interior atom: the simulated win rate at
    # the atom must match the fair-tie demand value, not a one-sided limit
    G = _random_contraction(F, np.random.default_rng(1))
    assert len(G.atom_locs)
    n = 3
    curve = DemandCurve(G, n, H_uniform)
    x0 = float(G.atom_locs[0])
    cfg = SimConfig(G, H_uniform, n, 400_000, seed=5)
    out = simulate_deviation(cfg, cfg.prior_mean_strategy)[2]
    # locate the bin holding the atom
    j = int(np.clip(np.digitize(x0, np.linspace(0, 1, out.bin_mids.size + 1)) - 1, 0, out.bin_mids.size - 1))
    d_emp = out.empirical_demand[j]
    se = out.demand_se[j]
    assert np.isfinite(d_emp)
    assert abs(d_emp - curve.value(x0)) <= 4 * max(se, 1e-6)
    assert curve.value(x0, side=-1) < curve.value(x0) < curve.value(x0, side=+1)


def test_zero_cost_consumers_visit_everyone(F):
    # costs with an atom at zero: those consumers search all firms
    H0 = PiecewisePolyDist([0.0, 0.18], [np.array([0.5 / 0.18])], atoms=[(0.0, 0.5)])
    delta = upper_censorship(F, 0.0)
    cfg = SimConfig(delta, H0, 3, 50_000, seed=2)
    out = simulate_deviation(cfg, cfg.prior_mean_strategy)[2]
    # half the consumers stop immediately, half visit all three firms
    assert abs(out.search_length_mean - (0.5 * 1 + 0.5 * 3)) <= 0.02


def _full_row_run(cfg: SimConfig, Gdev):
    """Reference: every consumer's n signals and cutoff tests in full rows,
    one pass per firm-0 law (``Gdev``; None for the conjecture)."""
    G, H, n = cfg.prior_mean_strategy, cfg.costs, cfg.n
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
    done = 0
    chunk_idx = 0
    while done < total:
        b = min(simulate.CHUNK, total - done)
        gen = np.random.Generator(np.random.Philox(key=[cfg.seed, chunk_idx]))
        u = gen.random((b, 2 * n + 1))
        cost_u, sig_u, order_u = u[:, 0], u[:, 1 : n + 1], u[:, n + 1 :]
        costs = H.quantile(cost_u)
        signals = np.empty((b, n))
        clears = np.empty((b, n), dtype=bool)
        for j in range(n):
            src = Gdev if (Gdev is not None and j == 0) else G
            signals[:, j] = src.quantile(sig_u[:, j])
            clears[:, j] = (G.tail_gap(signals[:, j]) <= costs) & (costs > 1e-15)
        order = np.argsort(order_u, axis=1, kind="stable")
        sig_by_visit = np.take_along_axis(signals, order, axis=1)
        stop_mask = np.take_along_axis(clears, order, axis=1)
        any_stop = stop_mask.any(axis=1)
        first_stop = np.where(any_stop, stop_mask.argmax(axis=1), n - 1)
        visits = np.where(any_stop, first_stop + 1, n)
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
    return simulate._finish(cfg, (wins, win_count_bins, sig_count_bins, cs_sum, cs_sq,
                                  len_sum, len_sq, stop_counts, type_counts, edges))


def _text(out) -> str:
    """The outcome as written to simulate.json (NaN bins compare equal)."""
    return json.dumps(out.to_json())


def test_visit_order_matches_full_rows(F, H_uniform, monkeypatch):
    """The visit-order pass against full rows: outputs bit-equal for costs
    with atoms at 0 and at the top, n = 1..50, thresholds where ties at the
    pooled atom are common, firm-0 laws on-path, a point mass at the pool
    and uniform (the probe), over several RNG blocks."""
    monkeypatch.setattr(simulate, "CHUNK", 997)
    cbar = 0.18
    cost_laws = [
        H_uniform,
        PiecewisePolyDist([0.0, cbar], [np.array([0.5 / cbar])], atoms=[(0.0, 0.5)]),
        PiecewisePolyDist([0.0, cbar], [np.array([0.5 / cbar])], atoms=[(cbar, 0.5)]),
    ]
    uniform = PiecewisePolyDist.uniform(0.0, 1.0)
    for li, H in enumerate(cost_laws):
        for n in (1, 2, 5, 50):
            for a in (0.0, 0.3, 0.4, 1.0):
                G = upper_censorship(F, a)
                cfg = SimConfig(G, H, n, 2100, seed=31 + n, bins=20)
                case = (li, n, a)
                ref = _full_row_run(cfg, None)
                assert _text(simulate_deviation(cfg, cfg.prior_mean_strategy)[2]) == _text(ref), case
                probe = _full_row_run(cfg, uniform)
                ref.empirical_demand = probe.empirical_demand
                ref.demand_se = probe.demand_se
                ref.bin_counts = probe.bin_counts
                assert _text(simulate_market(cfg)) == _text(ref), case
                for dev in (PiecewisePolyDist.point_mass(0.5 * (1.0 + a)), uniform):
                    ref = probe if dev is uniform else _full_row_run(cfg, dev)
                    assert _text(simulate_deviation(cfg, dev)[2]) == _text(ref), case


def test_signals_drawn_only_on_visit(F, H_uniform, monkeypatch):
    """At n = 50 most consumers stop within a few visits: the conjecture's
    quantile sees a small share of the 2 * consumers * n entries the two
    full-row passes inverted, and the costs are drawn once per block."""
    monkeypatch.setattr(simulate, "CHUNK", 997)
    G = upper_censorship(F, 0.4)
    n, consumers = 50, 5000
    blocks = -(-consumers // 997)
    seen = {"G": 0, "H": 0}
    inner = PiecewisePolyDist.quantile

    def quantile(self, u):
        if self is G:
            seen["G"] += np.size(u)
        elif self is H_uniform:
            seen["H"] += 1
        return inner(self, u)

    monkeypatch.setattr(PiecewisePolyDist, "quantile", quantile)
    simulate_market(SimConfig(G, H_uniform, n, consumers, seed=3))
    assert seen["G"] <= 0.25 * 2 * consumers * n, seen
    assert seen["H"] == blocks + 1, seen  # plus the cost deciles
