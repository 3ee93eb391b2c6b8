"""End-to-end quality gate: twelve numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
[PASS]/[FAIL] lines with timings.  Every criterion also asserts its runtime
budget, so a pathological slowdown fails the gate even when the numbers are
right.  Criterion 11 is a qualitative ordering replica and is logged rather
than hard-failed; only its mechanical soundness is asserted.
"""

import math
import time

import numpy as np

import regsubmax as rs
from regsubmax import datasets as ds
from regsubmax import objectives as ob
from regsubmax.modefinding import lambda_value
from conftest import (KINDS, eager_threshold_reference, make_instance,
                      random_weak_instance, value_table,
                      worst_monotonicity_violation,
                      worst_submodularity_violation)


def _report(num, name, fails, t0, budget, detail=""):
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        fails = fails + [f"runtime {elapsed:.2f} s >= {budget:g} s budget"]
    tag = "PASS" if not fails else "FAIL"
    line = f"[{tag}] criterion {num:2d}: {name} ({elapsed:.2f} s)"
    extra = detail if not fails else "; ".join(fails[:4])
    if extra:
        line += f" -- {extra}"
    print(line)
    assert not fails, line


def test_criterion_01_closed_form_coefficients():
    t0 = time.perf_counter()
    fails = []
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    if abs(rs.approx_factor(1.0) - phi ** -2) > 1e-12:
        fails.append("approx_factor(1) != inverse golden ratio squared")
    if abs(rs.cost_multiplier(1.0) - phi ** 2) > 1e-12:
        fails.append("cost_multiplier(1) != golden ratio squared")
    rng = np.random.default_rng(101)
    for r in rng.uniform(1e-9, 10.0, 1000):
        prod = rs.approx_factor(r) * rs.cost_multiplier(r)
        if abs(prod - r) > 1e-10 * r:
            fails.append(f"factor*multiplier != r at r={r:.6g}")
            break
    _report(1, "closed-form coefficient identities", fails, t0, budget=1.0)


def test_criterion_02_ratio_round_trip_and_grid_floor():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(202)
    for zeta in rng.uniform(0.01, 0.49, 1000):
        back = rs.ratio_for_beta(rs.beta_for_ratio(zeta))
        if abs(back - zeta) > 1e-10 * zeta:
            fails.append(f"round trip broke at ratio={zeta:.6g}")
            break
    for eps in (0.05, 0.1, 0.2, 0.25, 0.4, 0.5):
        for delta in (0.1, 0.5, 1.0):
            for entry in rs.ratio_grid(eps, delta):
                if entry.r < 2 * eps - 1e-12:
                    fails.append(f"grid r {entry.r:.6g} < 2*eps at "
                                 f"eps={eps}, delta={delta}")
    _report(2, "quality-ratio round trip and grid floor", fails, t0, budget=1.0)


def test_criterion_03_distorted_greedy_guarantee():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(303)
    for t in range(300):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        inst = make_instance(rng, KINDS[t % 5], n, k)
        opt_set, _ = rs.brute_force_opt(inst)
        target = ((1.0 - math.exp(-1.0)) * inst.oracle.value(opt_set)
                  - inst.cost(opt_set))
        got = inst.f(rs.distorted_greedy(inst))
        if got < target - 1e-9:
            fails.append(f"instance {t}: f={got:.6g} < bound {target:.6g}")
    _report(3, "distorted greedy lower bound on 300 instances", fails, t0,
            budget=30.0)


def test_criterion_04_fixed_threshold_streaming_bound():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(404)
    eps = 0.1
    for t in range(200):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        inst = make_instance(rng, KINDS[t % 5], n, k)
        stream = [int(x) for x in rng.permutation(n)]
        for r in (0.25, 1.0, 4.0):
            tau, T, _ = rs.brute_force_tau(inst, r, eps)
            sol = rs.threshold_streaming(stream, inst, r, tau)
            bound = ((rs.approx_factor(r) - eps) * inst.oracle.value(T)
                     - r * inst.cost(T))
            if sol.f_value < bound - 1e-9:
                fails.append(f"instance {t}, r={r}: f={sol.f_value:.6g} "
                             f"< bound {bound:.6g}")
    _report(4, "fixed-threshold streaming vs offline benchmark", fails, t0,
            budget=60.0)


def test_criterion_05_streaming_pipeline_ratio_bound():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(505)
    eps = delta = 0.1
    accepted = 0
    attempts = 0
    while accepted < 100 and attempts < 3000:
        attempts += 1
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        inst = make_instance(rng, KINDS[attempts % 5], n, k)
        opt_set, opt_val = rs.brute_force_opt(inst)
        ell_opt = inst.cost(opt_set)
        if opt_val <= 1e-9 or ell_opt <= 1e-9:
            continue
        accepted += 1
        zeta = rs.ratio_for_beta(opt_val / ell_opt)
        bound = ((1.0 - delta / 2.0) * zeta - eps / (2.0 * zeta)) * opt_val
        stream = [int(x) for x in rng.permutation(n)]
        sol = rs.distorted_streaming(stream, inst, eps, delta)
        if sol.f_value < bound - 1e-9:
            fails.append(f"attempt {attempts}: f={sol.f_value:.6g} "
                         f"< bound {bound:.6g}")
    if accepted < 100:
        fails.append(f"only {accepted} usable instances in {attempts} draws")
    _report(5, "full streaming pipeline ratio bound", fails, t0, budget=120.0,
            detail=f"{accepted} instances with positive optimal cost")


def test_criterion_06_lazy_ladder_matches_eager():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(606)
    for t in range(100):
        n = int(rng.integers(3, 31))
        k = int(rng.integers(1, 6))
        inst = make_instance(rng, KINDS[t % 5], n, k)
        r = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        eps = float(rng.choice([0.1, 0.2, 0.5]))
        stream = [int(x) for x in rng.permutation(n)]
        bank = rs.ThresholdBank(r, k, eps)
        for u in stream:
            bank.step(u, inst, inst.oracle.value((u,)))
        lazy = bank.finish(inst)
        eager = eager_threshold_reference(stream, inst, r, eps)
        if sorted(lazy.elements) != sorted(eager.elements):
            fails.append(f"stream {t}: lazy {lazy.elements} != "
                         f"eager {eager.elements}")
    _report(6, "lazy threshold ladder equals eager ladder", fails, t0,
            budget=30.0)


def test_criterion_07_distributed_mean_guarantee():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(707)
    eps, m, n, k, seeds = 0.5, 3, 12, 3, 500
    margins = []
    for t in range(20):
        inst = make_instance(rng, KINDS[t % 5], n, k)
        opt_set, _ = rs.brute_force_opt(inst)
        bound = (1.0 - eps) * ((1.0 - math.exp(-1.0))
                               * inst.oracle.value(opt_set)
                               - inst.cost(opt_set))
        vals = [rs.run_distributed(inst, rs.DistributedConfig(m, eps, seed=s)).f_value
                for s in range(seeds)]
        mean = float(np.mean(vals))
        sem = float(np.std(vals, ddof=1)) / math.sqrt(seeds)
        margins.append(mean - bound)
        if mean < bound - 2.0 * sem:
            fails.append(f"instance {t}: mean {mean:.6g} < bound {bound:.6g} "
                         f"- 2*SEM ({sem:.2g})")
        # degenerate single-machine single-round run must match serial greedy
        serial = tuple(rs.distorted_greedy(inst))
        degen = rs.run_distributed(inst, rs.DistributedConfig(1, 1.0, seed=t))
        if degen.elements != serial:
            fails.append(f"instance {t}: degenerate run {degen.elements} "
                         f"!= serial {serial}")
    _report(7, "distributed mean value guarantee", fails, t0, budget=300.0,
            detail=f"min margin over bound {min(margins):.3f}")


def test_criterion_08_weak_submodular_reduction():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(808)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 9))
        inst = random_weak_instance(rng, n)
        full = tuple(range(n))
        rho_full = inst.rho_of(full)
        if not math.isfinite(rho_full):
            continue
        done += 1
        corrected = value_table(lambda S: lambda_value(inst, tuple(S)), n)
        sub = worst_submodularity_violation(corrected, n)
        if sub > 1e-9:
            fails.append(f"instance {done}: corrected function violates "
                         f"submodularity by {sub:.3g}")
        oracle = rs.SurrogateOracle(inst)
        table = value_table(oracle.value, n)
        mono = worst_monotonicity_violation(table, n)
        sub_g = worst_submodularity_violation(table, n)
        if mono > 1e-9 or sub_g > 1e-9:
            fails.append(f"instance {done}: surrogate violations "
                         f"mono={mono:.3g} sub={sub_g:.3g}")
        cost = rs.derived_cost(inst)
        for u in range(n):
            rest = tuple(v for v in full if v != u)
            direct = max(inst.rho_of(rest) - rho_full
                         + inst.gamma * (n - 1), 0.0)
            if abs(cost[u] - direct) > 1e-9:
                fails.append(f"instance {done}: cost closed forms disagree "
                             f"at u={u}")
    _report(8, "weak-submodular reduction structure on 100 instances", fails,
            t0, budget=60.0)


def test_criterion_09_oracle_property_suites():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(909)

    graph = ds.random_digraph(40, 0.08, seed=1)
    X = rng.normal(size=(30, 2))
    M = ob.similarity_from_features(X)
    triples = [(w, e, float(rng.uniform(0.0, 3.0)))
               for w in range(6) for e in range(30) if rng.random() < 0.4]
    L = rs.sample_slc_matrix(8, seed=3)
    slc = rs.SlcInstance(L, 8)
    _, worst = rs.check_gamma_weak(slc.weak_instance(0.0))
    surrogate = rs.SurrogateOracle(slc.weak_instance(max(0.0, worst)))
    oracles = {
        "vertex-cover": ob.VertexCoverOracle(
            graph, weights=rng.uniform(0.2, 1.5, graph.n)),
        "facility-location": ob.FacilityLocationOracle(M),
        "log-det": ob.LogDetOracle(M, alpha=1.0),
        "saturating-coverage": ob.SaturatingCoverageOracle(triples, 30),
        "modular": ob.ModularOracle(rng.uniform(0.0, 2.0, 30)),
        "slc-mode surrogate": surrogate,
    }
    for name, oracle in oracles.items():
        if oracle.value(()) != 0.0:
            fails.append(f"{name}: value(empty) != 0")
        n = oracle.n
        worst_mono = worst_sub = 0.0
        for _ in range(500):
            size = int(rng.integers(0, min(n - 2, 8) + 1))
            S = sorted(int(x) for x in rng.choice(n, size=size, replace=False))
            rest = [u for u in range(n) if u not in S]
            u, v = (int(x) for x in rng.choice(rest, size=2, replace=False))
            base = oracle.value(S)
            with_u = oracle.value(sorted(S + [u]))
            with_v = oracle.value(sorted(S + [v]))
            both = oracle.value(sorted(S + [u, v]))
            worst_mono = max(worst_mono, base - with_u)
            worst_sub = max(worst_sub, base + both - with_u - with_v)
        if worst_mono > 1e-9:
            fails.append(f"{name}: monotonicity violated by {worst_mono:.3g}")
        if worst_sub > 1e-9:
            fails.append(f"{name}: submodularity violated by {worst_sub:.3g}")
    _report(9, "property suites over all shipped oracles", fails, t0,
            budget=30.0)


def test_criterion_10_single_pass_marginal_budget():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(99)
    n, k, eps, delta = 1000, 10, 0.2, 0.2
    inst = rs.RegularizedInstance(
        ob.ModularOracle(rng.uniform(0.0, 2.0, n)),
        rs.ModularCost(rng.uniform(0.0, 0.8, n)), k)
    counted, counter = inst.counted()
    diag = {}
    rs.distorted_streaming(range(n), counted, eps, delta, diagnostics=diag)
    grid = diag["grid"]
    copy_bound = max(2.0 + math.log(k * rs.cost_multiplier(g.r) / g.r)
                     / math.log(1.0 + eps) for g in grid)
    cap = len(grid) * copy_bound
    worst = max(diag["per_element_marginals"])
    if worst > cap:
        fails.append(f"{worst} marginal calls on one element > cap {cap:.1f}")
    if counter.marginal_calls == 0:
        fails.append("counting oracle saw no marginal calls")
    _report(10, "single-pass marginal budget on a 1000-element stream", fails,
            t0, budget=30.0,
            detail=f"worst {worst} calls/element vs cap {cap:.1f}")


def test_criterion_11_desk_scale_ordering_replica():
    t0 = time.perf_counter()
    fails = []
    graph = ds.random_digraph(300, 0.02, seed=7)
    oracle = ob.VertexCoverOracle(graph, weights=np.ones(graph.n))
    cost = ob.vertex_cover_cost(graph.out_degrees(), 6)
    eps, delta = 0.1, 0.2
    ks = list(range(5, 55, 5))
    greedy_beats_stream = stream_beats_sieve = 0
    for k in ks:
        inst = rs.RegularizedInstance(oracle, cost, k)
        picked = rs.distorted_greedy(inst)
        f_dg = inst.f(picked)
        sol_ds = rs.distorted_streaming(range(graph.n), inst, eps, delta)
        sol_sv = rs.sieve_streaming(range(graph.n), inst, eps)
        for label, size, val in (("distorted-greedy", len(picked), f_dg),
                                 ("distorted-streaming", len(sol_ds.elements),
                                  sol_ds.f_value),
                                 ("sieve", len(sol_sv.elements),
                                  sol_sv.f_value)):
            if size > k or not math.isfinite(val):
                fails.append(f"{label} infeasible at k={k}")
        greedy_beats_stream += f_dg >= sol_ds.f_value - 1e-9
        stream_beats_sieve += sol_ds.f_value >= sol_sv.f_value - 1e-9
    soft_ok = (greedy_beats_stream >= 0.8 * len(ks)
               and stream_beats_sieve >= 0.8 * len(ks))
    note = (f"greedy>=streaming {greedy_beats_stream}/{len(ks)}, "
            f"streaming>=sieve {stream_beats_sieve}/{len(ks)}; soft 80% "
            f"target {'met' if soft_ok else 'MISSED (logged only)'}")
    _report(11, "desk-scale ordering replica (soft)", fails, t0, budget=120.0,
            detail=note)


def test_criterion_12_reservoir_estimator_accuracy():
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(5)
    M = ob.similarity_from_features(rng.normal(size=(50, 2)))
    worst = 0.0
    for t in range(10):
        size = int(rng.integers(1, 9))
        S = sorted(int(x) for x in rng.choice(50, size=size, replace=False))
        exact = ob.FacilityLocationOracle(M).value(S)
        means = []
        for seed in range(1000):
            est = ob.ReservoirEstimator(capacity=25, seed=seed)
            for i in range(50):
                est.update(i)
            means.append(ob.reservoir_facility_estimate(est, lambda i: M[i], S))
        rel = abs(float(np.mean(means)) - exact) / exact
        worst = max(worst, rel)
        if rel > 0.01:
            fails.append(f"set {t}: mean estimate off by {rel:.4f} relative")
    _report(12, "reservoir facility estimate within 1 percent", fails, t0,
            budget=30.0, detail=f"worst relative error {worst:.4f}")
