"""Monte Carlo market simulation against the analytic quantities."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
from scipy.special import bdtr, bdtrc, ndtri

from censearch import simulate
from censearch.censorship import upper_censorship
from censearch.demand import NO_COST, DemandCurve
from censearch.dists import PiecewisePolyDist, reservation_value
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


def _full_rows(cfg: SimConfig, Gdev, chunk_idx: int, b: int) -> dict:
    """Reference walk of block ``chunk_idx`` (``b`` consumers): every
    consumer's n signals and cutoff tests in full rows, firm 0 signalling
    from ``Gdev`` (None for the conjecture)."""
    G, H, n = cfg.prior_mean_strategy, cfg.costs, cfg.n
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
    return {"costs": costs, "signals": signals, "clears": clears, "pos": pos_of_firm,
            "any_stop": any_stop, "visits": visits,
            "firm": np.where(any_stop, stop_firm, recall_firm),
            "value": np.where(any_stop, stop_value, best)}


def _full_row_run(cfg: SimConfig, Gdev):
    """Reference: the :func:`_full_rows` walk of every block, one pass per
    firm-0 law (``Gdev``; None for the conjecture)."""
    H, n = cfg.costs, cfg.n
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
        rows = _full_rows(cfg, Gdev, chunk_idx, b)
        costs, firm, visits = rows["costs"], rows["firm"], rows["visits"]
        wins += np.bincount(firm, minlength=n)
        sig_bin = np.clip(np.digitize(rows["signals"][:, 0], edges) - 1, 0, bins - 1)
        np.add.at(sig_count_bins, sig_bin, 1.0)
        np.add.at(win_count_bins, sig_bin[firm == 0], 1.0)
        cs = rows["value"] - costs * visits
        cs_sum += float(cs.sum())
        cs_sq += float((cs**2).sum())
        len_sum += float(visits.sum())
        len_sq += float((visits.astype(float) ** 2).sum())
        dec = np.clip(np.digitize(costs, dec_edges), 0, 9)
        np.add.at(type_counts, dec, 1.0)
        np.add.at(stop_counts, dec[rows["any_stop"]], 1.0)
        done += b
        chunk_idx += 1
    return simulate._finish(cfg, (wins, win_count_bins, sig_count_bins, cs_sum, cs_sq,
                                  len_sum, len_sq, stop_counts, type_counts, edges))


def _text(out) -> str:
    """The outcome as written to simulate.json (NaN bins compare equal)."""
    return json.dumps(out.to_json())


def _firm0_laws(cfg: SimConfig, pool: float) -> tuple:
    """Firm 0 on-path, a point mass at the ``pool`` and uniform (the probe)."""
    return (cfg.prior_mean_strategy, PiecewisePolyDist.point_mass(pool),
            PiecewisePolyDist.uniform(0.0, 1.0))


def _entry_points(cfg: SimConfig, pool: float) -> list:
    """The market with its probe, then a deviation run per firm-0 law."""
    return [simulate_market(cfg)] + [simulate_deviation(cfg, law)[2] for law in _firm0_laws(cfg, pool)]


def _z_scores(a, b, H) -> list[float]:
    """z-scores of the differences between two independent runs ``a`` and
    ``b`` of one market with cost law ``H``: firm payoffs, stop rates per
    cost decile and demand bins as proportions (pooled), the mean search
    length and the mean surplus by their standard errors.  A statistic
    neither run can vary must be equal in both and is not scored."""
    N = a.consumers
    dec_edges = H.quantile(np.arange(1, 10) / 10.0)
    types = N * np.diff(np.concatenate([[0.0], H.cdf_left(dec_edges), [1.0]]))
    diffs, var = [], []
    for ra, rb, na, nb in ((a.firm_payoffs, b.firm_payoffs, N, N),
                           (a.stop_rate_by_cost_quantile, b.stop_rate_by_cost_quantile, types, types),
                           (a.empirical_demand, b.empirical_demand, a.bin_counts, b.bin_counts)):
        seen = ~np.isnan(ra)
        assert np.array_equal(seen, ~np.isnan(rb))
        ra, rb, na, nb = (np.broadcast_to(v, seen.shape)[seen] for v in (ra, rb, na, nb))
        pool = (ra * na + rb * nb) / (na + nb)
        diffs.append(ra - rb)
        var.append(pool * (1.0 - pool) * (1.0 / na + 1.0 / nb))
    for ma, mb, sa, sb in ((a.search_length_mean, b.search_length_mean, a.search_length_se, b.search_length_se),
                           (a.cs_mean, b.cs_mean, a.cs_se, b.cs_se)):
        diffs.append([ma - mb])
        var.append([sa**2 + sb**2])
    d, v = np.concatenate(diffs), np.concatenate(var)
    assert np.all(d[v == 0] == 0)
    return (d[v > 0] / np.sqrt(v[v > 0])).tolist()


def test_visit_order_matches_full_rows(F, H_uniform, monkeypatch):
    """The path draw against the full-row reference with independent seeds,
    a two-sample test of every statistic at family level 1e-3 (Bonferroni):
    costs with atoms at 0 and at the top, n = 1..50, thresholds where ties
    at the pooled atom are common, firm-0 laws on-path, a point mass at the
    pool and uniform (the probe), over several RNG blocks.  The market's
    outcome is the on-path one with the probe's demand bins, bit for bit."""
    monkeypatch.setattr(simulate, "CHUNK", 997)
    cbar = 0.18
    cost_laws = [
        H_uniform,
        PiecewisePolyDist([0.0, cbar], [np.array([0.5 / cbar])], atoms=[(0.0, 0.5)]),
        PiecewisePolyDist([0.0, cbar], [np.array([0.5 / cbar])], atoms=[(cbar, 0.5)]),
    ]
    z = []
    for H in cost_laws:
        for n in (1, 2, 5, 50):
            for a in (0.0, 0.3, 0.4, 1.0):
                cfg = SimConfig(upper_censorship(F, a), H, n, 2100, seed=31 + n, bins=20)
                pool = 0.5 * (1.0 + a)
                market, *outs = _entry_points(cfg, pool)
                ref = replace(outs[0], empirical_demand=outs[2].empirical_demand,
                              demand_se=outs[2].demand_se, bin_counts=outs[2].bin_counts)
                assert _text(market) == _text(ref), (n, a)
                ref_cfg = replace(cfg, seed=1031 + n)
                for out, law in zip(outs, _firm0_laws(cfg, pool)):
                    z += _z_scores(out, _full_row_run(ref_cfg, law), H)
    bound = -ndtri(1e-3 / (2 * len(z)))
    assert max(map(abs, z)) <= bound, (max(map(abs, z)), bound, len(z))


def test_cutoff_rule_matches_full_rows(F, H_uniform):
    """Firm 0's winning cutoff against the full-row walk, bit for bit: the
    walk's r, best rivals before and after firm 0 and whether a rival before
    it clears, fed to the simulator's cutoff rule, give the walk's firm-0
    sale for every consumer.  Costs with atoms at 0 and at the top, n = 1,
    2, 5, 50, thresholds where ties at the pooled atom are common, firm-0
    laws on-path, a point mass at the pool and uniform."""
    cbar = 0.18
    cost_laws = [
        H_uniform,
        PiecewisePolyDist([0.0, cbar], [np.array([0.5 / cbar])], atoms=[(0.0, 0.5)]),
        PiecewisePolyDist([0.0, cbar], [np.array([0.5 / cbar])], atoms=[(cbar, 0.5)]),
    ]
    ties = np.zeros(2, dtype=int)  # s0 == t at open and at closed cutoffs
    for H in cost_laws:
        for n in (1, 2, 5, 50):
            for a in (0.0, 0.3, 0.4, 1.0):
                cfg = SimConfig(upper_censorship(F, a), H, n, 2100, seed=31 + n)
                G = cfg.prior_mean_strategy
                for law in _firm0_laws(cfg, 0.5 * (1.0 + a)):
                    rows = _full_rows(cfg, law, 0, cfg.consumers)
                    costs, signals, pos = rows["costs"], rows["signals"], rows["pos"]
                    r = np.where(costs > NO_COST, reservation_value(G, costs), np.inf)
                    # the walk clears a signal exactly where it is at least r
                    assert np.array_equal(rows["clears"], signals >= r[:, None]), (n, a)
                    before = pos[:, 1:] < pos[:, :1]
                    rivals = signals[:, 1:]
                    b0 = np.where(before, rivals, -np.inf).max(axis=1, initial=-np.inf)
                    b1 = np.where(before, -np.inf, rivals).max(axis=1, initial=-np.inf)
                    blocked = (rows["clears"][:, 1:] & before).any(axis=1)
                    t, closed = simulate._cutoff(r, b0, b1, blocked)
                    s0 = signals[:, 0]
                    assert np.array_equal(simulate._sells(s0, t, closed), rows["firm"] == 0), (n, a)
                    ties += np.bincount(closed[s0 == t], minlength=2)
    assert ties.min() > 0, ties  # the grid reaches both sides of the rule


def test_signal_at_reservation_value_stops(F):
    """Closed at r: with every consumer's cost at the top, firm 0 signalling
    exactly the reservation value r sells to and stops the same consumers
    as firm 0 signalling the next float above r."""
    H = PiecewisePolyDist.point_mass(0.18)
    for n in (2, 5):
        for a in (0.0, 0.3, 0.4):
            cfg = SimConfig(upper_censorship(F, a), H, n, 5000, seed=7)
            r = float(reservation_value(cfg.prior_mean_strategy, 0.18))
            at, above = (simulate_deviation(cfg, PiecewisePolyDist.point_mass(x))[2]
                         for x in (r, np.nextafter(r, 1.0)))
            assert 0.0 < at.firm_payoffs[0] < 1.0, (n, a)
            assert np.array_equal(at.firm_payoffs, above.firm_payoffs), (n, a)
            assert np.array_equal(at.stop_rate_by_cost_quantile, above.stop_rate_by_cost_quantile,
                                  equal_nan=True), (n, a)
            assert at.search_length_mean == above.search_length_mean, (n, a)


def test_memory_bounded_at_large_n(F, H_uniform):
    """At n = 2000 the simulator holds no array of n columns."""
    cfg = SimConfig(upper_censorship(F, 0.4), H_uniform, 2000, 4000, seed=5)
    tracemalloc.start()
    try:
        simulate_market(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_full_block_at_n2000(F):
    """Eight full ``CHUNK`` blocks at n = 2000: the payoffs sum to 1 and firm
    0's wins pass an exact two-sided binomial test against 1/n at level
    1e-3."""
    n = 2000
    cfg = SimConfig(upper_censorship(F, 0.4), PiecewisePolyDist.uniform(0.0, 0.18), n,
                    8 * simulate.CHUNK, seed=9)
    out = simulate_market(cfg)
    assert abs(out.firm_payoffs.sum() - 1.0) <= 1e-9
    k = round(out.firm_payoffs[0] * cfg.consumers)
    tail = min(bdtr(k, cfg.consumers, 1.0 / n), bdtrc(k - 1, cfg.consumers, 1.0 / n))
    assert 2.0 * tail >= 1e-3, (k, tail)


def test_signals_drawn_only_on_visit(F, H_uniform, monkeypatch):
    """At n = 50 the conjecture's quantile sees at most 2 entries per
    consumer (firm 0's on-path signal and one rival draw where a rival
    clears), none of the 2 * consumers * n entries the two full-row passes
    inverted, and the costs are drawn once per block."""
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
    assert seen["G"] <= 2 * consumers, seen
    assert seen["H"] == blocks + 1, seen  # plus the cost deciles
