"""Acceptance gate: ten criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
without -s they appear only for failing criteria. The heavyweight
benchmark run is shared by the criteria that need it.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import oracles
from kshrink import (
    ExperimentConfig,
    check_hb1_conditions,
    check_hb2_conditions,
    f_quantile,
    hb1_phi,
    run_experiment,
    uer_members,
    validate_identities,
    validate_uer,
)
from kshrink import numerics
from kshrink.cli import main
from kshrink.numerics import HbExponents, hb2_factors

# Published benchmark PRIALs, config name -> one value per estimator in
# the order JS1, JS2, PT, PT*, EB, EB*, HB1, HB2.
EXPECTED_PRIAL = {
    "all-zero":     (54.1, 82.8, 74.1, 87.2, 70.3, 83.4, 69.7, 82.6),
    "common-2":     (9.0, 14.2, 74.1, 74.4, 70.3, 70.6, 69.7, 70.0),
    "centered-0.2": (48.3, 74.4, 64.1, 75.3, 63.6, 74.9, 64.7, 76.5),
    "centered-0.5": (37.4, 48.2, 17.4, 23.0, 40.6, 46.2, 44.6, 52.2),
    "centered-1.0": (25.0, 21.1, -11.6, -10.0, 17.5, 19.1, 17.5, 18.9),
    "ramp-1.2-2.0": (12.7, 23.3, 64.1, 64.6, 63.6, 64.2, 64.7, 65.2),
    "ramp-1-3":     (9.5, 18.1, 17.4, 17.9, 40.6, 41.1, 44.6, 44.9),
    "ramp-0-4":     (18.9, 17.1, -11.6, -10.8, 17.5, 18.3, 17.5, 17.6),
}


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def benchmark_run():
    cfg = replace(ExperimentConfig.benchmark(), threads=4)
    t0 = time.perf_counter()
    table = run_experiment(cfg)
    return table, time.perf_counter() - t0


def test_01_benchmark_table_reproduction(benchmark_run):
    table, elapsed = benchmark_run
    assert table.estimator_names == ("JS1", "JS2", "PT", "PT*", "EB", "EB*", "HB1", "HB2")
    worst = 0.0
    for ci, cname in enumerate(table.config_names):
        for ei, want in enumerate(EXPECTED_PRIAL[cname]):
            worst = max(worst, abs(float(table.prial[ci, ei]) - want))
    anchors = (
        table.lookup("all-zero", "PT")[2] == approx(74.1, abs=2.5),
        table.lookup("all-zero", "PT*")[2] == approx(87.2, abs=2.5),
        table.lookup("centered-1.0", "PT")[2] == approx(-11.6, abs=2.5),
        table.lookup("all-zero", "HB2")[2] == approx(82.6, abs=2.5),
    )
    ok = worst <= 2.5 and all(anchors) and elapsed < 600.0
    verdict(
        1, "benchmark table reproduction", ok,
        f"max |PRIAL - published| = {worst:.2f} (<= 2.5) over 64 entries, "
        f"run time {elapsed:.1f}s (< 600s)",
    )


def test_02_paired_domination(benchmark_run):
    # One 10k-replicate pass gates both pairs. HB2 over HB1 is a simulation
    # finding of the paper, not a theorem, so it is read from the benchmark
    # run's table and reported without gating.
    cfg = replace(
        ExperimentConfig.benchmark(),
        replicates=10_000, threads=4, estimators=("PT", "PT*", "EB", "EB*"),
    )
    table = run_experiment(cfg)
    details = []
    ok = True

    def report(rep) -> str:
        tightest = float(np.min(rep.mean_diff + 3.0 * rep.se_diff))
        return (
            f"{rep.candidate} vs {rep.baseline}: dominated={rep.dominated}, "
            f"min(mean+3SE)={tightest:.4f}"
        )

    for cand, base in (("PT*", "PT"), ("EB2", "EB1")):
        rep = table.domination(cand, base)
        ok = ok and rep.dominated
        details.append(report(rep))
    hb = benchmark_run[0].domination("HB2", "HB1")
    details.append(f"{report(hb)} (5000 replicates, not gated)")
    verdict(2, "paired domination at 10k replicates", ok, "; ".join(details))


def test_03_minimax_risk_bound(benchmark_run):
    # The preliminary-test pair is not minimax: both published PRIALs are
    # negative on centered-1.0 and ramp-0-4, so their risks must sit above
    # 25 there. The bound therefore applies to the class members
    # everywhere, and to PT* only outside those two configurations.
    table, _ = benchmark_run
    worst = -np.inf
    for name in ("EB", "EB*", "HB1", "HB2"):
        ei = table.estimator_names.index(name)
        slack = float(np.max(table.risk[:, ei] - (25.0 + 3.0 * table.se[:, ei])))
        worst = max(worst, slack)
    bound_ok = worst <= 0.0

    above = ("centered-1.0", "ramp-0-4")
    star_ok = True
    for cname in table.config_names:
        risk, se, _ = table.lookup(cname, "PT*")
        if cname in above:
            star_ok = star_ok and risk > 25.0
        else:
            star_ok = star_ok and risk <= 25.0 + 3.0 * se
    pt_risk = table.lookup("centered-1.0", "PT")[0]
    ok = bound_ok and star_ok and pt_risk > 25.0
    verdict(
        3, "minimax risk bound", ok,
        f"max risk excess over 25+3SE = {worst:.4f} (<= 0) for EB, EB*, HB1, "
        f"HB2 in all configurations; PT* bounded except where its published "
        f"improvement is negative: {star_ok}; PT risk at centered-1.0 = "
        f"{pt_risk:.2f} (> 25)",
    )


def test_04_unbiased_risk_estimator():
    cfg = ExperimentConfig.benchmark()
    picks = tuple(cfg.mean_configs[i] for i in (0, 4, 7))
    cfg = replace(cfg, replicates=100_000, mean_configs=picks)
    ok = True
    worst = 0.0
    members = [sf for _, sf in uer_members(cfg.p, cfg.k, cfg.n)]
    for report in validate_uer(cfg, members):
        ok = ok and report.passed
        for check in report.checks:
            worst = max(worst, abs(check.diff) / (3.0 * check.se_diff))
    verdict(
        4, "unbiased risk estimator vs Monte Carlo", ok,
        f"3 members x 3 mean configurations at 1e5 replicates, "
        f"max |diff|/(3 SE) = {worst:.3f} (<= 1)",
    )


def test_05_hb1_factor_oracle_grid():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 7))
        k = int(rng.integers(2, 7))
        n = int(rng.integers(6, 41))
        a = float(rng.uniform(0.01, 1.2))
        c = float(rng.uniform(0.01, 1.2))
        f = float(10.0 ** rng.uniform(-3.0, 3.0))
        got = hb1_phi(f, p, k, n, a, c, 1.0)
        slow = oracles.hb1_phi_riemann(f, p, k, n, a, c, panels=1_000_000)
        worst = max(worst, abs(got - slow) / abs(slow))
    ok = worst <= 1e-8
    verdict(
        5, "hb1 factor vs 1e6-panel Riemann oracle", ok,
        f"max relative deviation {worst:.2e} (<= 1e-8) on a 50-point grid",
    )


def test_06_hb2_factor_properties():
    e = HbExponents.from_model(5, 5, 20, 0.1, 0.1, 0.1)
    rng = np.random.default_rng(42)
    tol_mono = 1e-9
    mono_ok = True
    points = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "QUAD_REL", 1e-10)
        for _ in range(70):
            f = float(10.0 ** rng.uniform(-1.7, 1.7))
            g = float(10.0 ** rng.uniform(-1.7, 1.7))
            step = float(rng.uniform(1.1, 1.6))
            base = hb2_factors(f, g, 1.0, e)
            up_f = hb2_factors(f * step, g, 1.0, e)
            up_g = hb2_factors(f, g * step, 1.0, e)
            points += 3
            mono_ok = mono_ok and up_f[0] >= base[0] - tol_mono and up_f[1] >= base[1] - tol_mono
            mono_ok = mono_ok and up_g[0] >= base[0] - tol_mono and up_g[1] >= base[1] - tol_mono

    tilted = [hb2_factors(1.3, 0.7, s, e, big_l=2.0) for s in (5.0, 10.0, 20.0, 40.0, 80.0)]
    s_dec = all(
        hi[0] >= lo[0] - 1e-12 and hi[1] >= lo[1] - 1e-12
        for hi, lo in zip(tilted, tilted[1:])
    )
    s_free = hb2_factors(1.3, 0.7, 1.0, e) == hb2_factors(1.3, 0.7, 123456.0, e)

    phi_lim, psi_lim = hb2_factors(1e6, 1e6, 1.0, e)
    lim_ok = phi_lim == approx(1.041237, abs=1e-3) and psi_lim == approx(0.268041, abs=1e-3)

    ok = mono_ok and s_dec and s_free and lim_ok and points >= 200
    verdict(
        6, "hb2 factor properties", ok,
        f"nondecreasing in F and G at {points} grid points (tol 1e-9): {mono_ok}; "
        f"L>0 nonincreasing in S: {s_dec}; L=0 exactly S-free: {s_free}; "
        f"limits ({phi_lim:.6f}, {psi_lim:.6f}) vs (1.041237, 0.268041): {lim_ok}",
    )


def test_07_special_functions():
    # The incomplete beta as hb1_phi takes it: exp of numerics._log_betainc.
    worst_beta = 0.0
    for a, b in itertools.product(range(1, 6), range(1, 6)):
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            got = float(np.exp(numerics._log_betainc(a, b, x)))
            diff = abs(got - oracles.binom_tail_inc_beta(a, b, x))
            worst_beta = max(worst_beta, diff)
    median_ok = all(abs(f_quantile(d, d, 0.5) - 1.0) <= 1e-9 for d in (1, 2, 5, 10, 20, 40))
    q = f_quantile(20, 20, 0.05)
    q_oracle = oracles.f_quantile_bisect(20, 20, 0.05)
    quant_ok = abs(q - q_oracle) <= 1e-3 and q == approx(2.1242, abs=1e-3)
    ok = worst_beta <= 1e-12 and median_ok and quant_ok
    verdict(
        7, "special functions", ok,
        f"integer incomplete beta max |diff| = {worst_beta:.2e} (<= 1e-12); "
        f"median quantile within 1e-9: {median_ok}; "
        f"f_quantile(20,20,0.05) = {q:.6f} vs bisection {q_oracle:.6f}",
    )


def test_08_distribution_identities():
    cfg = replace(ExperimentConfig.benchmark(), sigma2=2.0, replicates=100_000)
    report = validate_identities(cfg)
    detail = "; ".join(
        f"{c.name}: |diff| = {abs(c.diff):.2e} vs 3 SE = {3.0 * c.se_diff:.2e}"
        for c in report.checks
    )
    verdict(8, "distribution identities at 1e5 draws", report.passed, detail)


def test_09_condition_checkers():
    r1 = check_hb1_conditions(0.1, 0.1, 5, 5, 20)
    r2 = check_hb2_conditions(0.1, 0.1, 0.1, 5, 5, 20)
    ok = (
        r1.minimax is True
        and r1.margins["linear_lhs"] == approx(9.4)
        and r1.margins["linear_rhs"] == approx(140.0)
        and r2.minimax is True
        and r2.margins["mean_shrink_lhs"] == approx(13.0)
        and r2.margins["mean_shrink_rhs"] == approx(140.0)
        and r2.margins["zero_shrink_lhs"] == approx(4.0)
        and r2.margins["zero_shrink_rhs"] == approx(5.0)
        and r2.proper_prior is False
        and check_hb2_conditions(0.1, 0.1, 1.0, 5, 5, 20).proper_prior is False
        and check_hb2_conditions(0.1, 0.1, 0.1, 4, 5, 20).minimax is False
    )
    verdict(
        9, "condition checkers", ok,
        f"mean-shrink margins 9.4 <= 140 and joint margins 13 <= 140, 4 <= 5, "
        f"minimax=({r1.minimax}, {r2.minimax}), proper_prior={r2.proper_prior} "
        f"for c <= 1, and p=4 reported non-minimax",
    )


def test_10_byte_identical_csv(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    code_a = main(["table1", "--replicates", "400", "--threads", "1", "--output", a])
    code_b = main(["table1", "--replicates", "400", "--threads", "5", "--output", b])
    capsys.readouterr()
    with open(a, "rb") as fa, open(b, "rb") as fb:
        same_table = fa.read() == fb.read()

    cfg = tmp_path / "sim.yaml"
    cfg.write_text(
        "experiment:\n"
        "  p: 3\n"
        "  k: 3\n"
        "  n: 12\n"
        "  sigma2: 1.5\n"
        "  v: identity\n"
        "  mean_configs:\n"
        "    - name: flat\n"
        "      scales: [0.0, 0.5, 1.0]\n"
        "  replicates: 300\n"
        "  seed: 7\n"
    )
    c = str(tmp_path / "c.csv")
    d = str(tmp_path / "d.csv")
    code_c = main(["simulate", "--config", str(cfg), "--output", c, "--threads", "2"])
    code_d = main(["simulate", "--config", str(cfg), "--output", d, "--threads", "7"])
    capsys.readouterr()
    with open(c, "rb") as fc, open(d, "rb") as fd:
        same_sim = fc.read() == fd.read()

    ok = same_table and same_sim and code_a == code_b == code_c == code_d == 0
    verdict(
        10, "byte-identical CSV across thread counts", ok,
        f"table1 threads 1 vs 5: {'identical' if same_table else 'DIFFER'}; "
        f"simulate threads 2 vs 7: {'identical' if same_sim else 'DIFFER'}",
    )
