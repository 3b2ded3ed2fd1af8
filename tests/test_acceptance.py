"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 2 (interior-point clause) asserts an externally pinned
expectation that the exact engine contradicts; it is implemented verbatim and
left to fail honestly rather than weakened. Criterion 5 checks ``Var(z_10)``
against the finite-t narrow-noise variance computed here, independently of
the engine; its large-t asymptote ``var_logZ_saddle`` is not a variance at
t = 10. See the repository notes for the numerical evidence.
"""

import math
import time

import numpy as np

import cumvol as cv
from cumvol import (
    default_z_grid,
    gaussian,
    lorentzian,
    sigma_y_fixed_point,
    simulate_stream,
    steady_state_volatility,
    y_steps,
    z_steps,
)
from helpers import (block_draws, interp_at, reciprocal_increment_gap, sigma_dz_narrow, variances,
                     y_inputs)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def _var_logZ_narrow(g: float, sigma_a: float, t: int) -> float:
    """Leading-order Var(log Z_t) at finite t, from linearising log Z_t in the noise.

    log Z_t moves by sum_i c_i a_i with c_i = (1 - q^{t+1-i})/(1 - q^{t+1}),
    q = e^{-g}, so the variance is sigma_a^2 sum_{i=1..t} c_i^2.
    """
    q = math.exp(-g)
    c = [(1.0 - q ** (t + 1 - i)) / (1.0 - q ** (t + 1)) for i in range(1, t + 1)]
    return sigma_a * sigma_a * math.fsum(ci * ci for ci in c)


def test_criterion_1_saddle_point_limit():
    t0 = time.perf_counter()
    rep = steady_state_volatility(0.1, gaussian(0.05))
    elapsed = time.perf_counter() - t0
    ratio = rep.ratio_to_narrow
    ok = abs(ratio - 1.0) <= 0.02 and elapsed < 10.0
    _line(1, ok, f"ratio={ratio:.5f} (need 1 +- 0.02), runtime={elapsed:.2f}s (< 10 s)")
    assert abs(ratio - 1.0) <= 0.02
    assert elapsed < 10.0


def test_criterion_2_ratio_sweep_shape():
    t0 = time.perf_counter()
    sweep = [0.01, 0.04, 0.16, 0.64, 1.0]
    ratios = {}
    for s2 in sweep:
        rep = steady_state_volatility(0.1, gaussian(math.sqrt(s2)))
        ratios[s2] = rep.ratio_to_narrow
    elapsed = time.perf_counter() - t0
    interior = [ratios[s2] for s2 in (0.04, 0.16, 0.64)]
    near_one = abs(ratios[0.01] - 1.0) <= 0.03
    exceeds = any(r > 1.0 for r in interior)
    below = ratios[1.0] < 1.0
    ok = near_one and exceeds and below and elapsed < 120.0
    detail = ", ".join(f"r({s2})={ratios[s2]:.5f}" for s2 in sweep)
    _line(2, ok, f"{detail}, runtime={elapsed:.1f}s (< 120 s)")
    assert elapsed < 120.0
    assert near_one, f"ratio at smallest point {ratios[0.01]:.5f} not ~ 1"
    assert below, f"ratio at sigma^2=1 is {ratios[1.0]:.5f}, expected < 1"
    # Exact dynamics put the above-one region at sigma_a^2 <~ 0.02 for g=0.1
    # (amplitude ~ +1e-4, confirmed by long-horizon Monte Carlo); none of the
    # interior sweep points lies in it. Kept verbatim; fails honestly.
    assert exceeds, f"no interior sweep point exceeds 1: {interior}"


def test_criterion_3_fixed_point_variance():
    g, sig = 0.2, 0.05
    tr = list(y_steps(*y_inputs(g, gaussian(sig)), tol=1e-9))
    got = tr[-1].pdf.variance()
    target = sig**2 / math.expm1(2.0 * g)
    rel = abs(got - target) / target
    ok = rel <= 0.02
    _line(3, ok, f"steady-state var={got:.6e}, closed form={target:.6e}, rel err={rel:.4f} (<= 0.02)")
    assert rel <= 0.02


def test_criterion_4_fixed_point_ties_to_volatility_width():
    worst = 0.0
    for g in (0.05, 0.1, 0.2, 0.5, 1.0):
        lhs = (math.exp(g) - 1.0) * sigma_y_fixed_point(g, 1.0)
        rhs = sigma_dz_narrow(g, 1.0)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    _line(4, ok, f"max |(e^g - 1) sigma_inf - sqrt(tanh(g/2)) sigma_a| = {worst:.2e} (<= 1e-10)")
    assert worst <= 1e-10


def test_criterion_5_explicit_variance_value():
    g, sig, t = 0.2, 0.1, 10
    noise = gaussian(sig)
    got = variances(list(z_steps(g, noise, default_z_grid(g, noise, t), t)))[-1]
    # Finite-t leading order, 0.052932. The large-t asymptote var_logZ_saddle
    # gives 0.0300 here (and is negative for t <= 7 at g = 0.2); the reference
    # must reduce to it at large t.
    reference = _var_logZ_narrow(g, sig, t)
    asymptote = cv.var_logZ_saddle(g, sig, t)
    tie = abs(_var_logZ_narrow(g, sig, 80) / cv.var_logZ_saddle(g, sig, 80) - 1.0)
    rel = abs(got - reference) / reference
    mc = simulate_stream(g, noise, t_max=t, n_paths=200_000, seed=2).summary["var_z"][t - 1]
    ok = rel <= 0.03 and tie <= 1e-6
    _line(5, ok, f"Var(z_10)={got:.6f} vs finite-t narrow-noise {reference:.6f} "
                 f"(rel err {rel:.3f}, need <= 0.03); large-t asymptote {asymptote:.6f}; "
                 f"independent Monte Carlo gives {mc:.6f}")
    assert tie <= 1e-6, f"finite-t reference does not reach the asymptote at t=80: {tie:.2e}"
    assert rel <= 0.03


def test_criterion_6_oracle_equivalence():
    g = 0.2
    ok_all = True
    details = []
    for label, noise in (("gaussian sigma=1", gaussian(1.0)),
                         ("lorentzian gamma=1", lorentzian(1.0))):
        t0 = time.perf_counter()
        tr = list(z_steps(g, noise, default_z_grid(g, noise, 20), 20))
        ks = simulate_stream(g, noise, t_max=20, n_paths=100_000, seed=42,
                             targets={t: tr[t - 1].pdf for t in (1, 5, 20)}).ks
        elapsed = time.perf_counter() - t0
        ok = max(ks.values()) < 0.01 and elapsed < 60.0
        ok_all = ok_all and ok
        details.append(f"{label}: KS={{1: {ks[1]:.4f}, 5: {ks[5]:.4f}, 20: {ks[20]:.4f}}} "
                       f"in {elapsed:.1f}s")
        assert max(ks.values()) < 0.01, f"{label}: {ks}"
        assert elapsed < 60.0
    _line(6, ok_all, "; ".join(details) + " (KS < 0.01, < 60 s per case)")


def test_criterion_7_per_path_reversal_identity():
    draws = block_draws(gaussian(1.0), t_max=20, n_paths=1000, seed=123)
    gap = max(reciprocal_increment_gap(0.2, draws, t) for t in (5, 12, 20))
    ok = gap <= 1e-10
    _line(7, ok, f"max relative gap over 1000 paths = {gap:.2e} (<= 1e-10)")
    assert gap <= 1e-10


def test_criterion_8_invariant_suite():
    checks = []

    # normalisation, non-negativity, support for both noise families
    for noise in (gaussian(1.0), lorentzian(1.0)):
        for rec in z_steps(0.2, noise, default_z_grid(0.2, noise, 8), 8):
            assert abs(rec.pdf.integral() - 1.0) <= 1e-6
            assert np.all(rec.pdf.values >= 0.0)
            assert rec.pdf.grid.x_min > 0.0
    checks.append("normalisation 1e-6 + non-negativity + z support > 0")

    # growth increments live strictly above zero
    dz = cv.volatility_pdf(list(y_steps(*y_inputs(0.2, gaussian(0.3)), tol=1e-9))[-1].pdf)
    assert dz.grid.x_min > 0.0
    assert interp_at(dz, -0.01) == 0.0 and interp_at(dz, 0.0) == 0.0
    checks.append("dz support > 0")

    # mirror identity: reversed evolution equals negated-drift mirrored-noise evolution
    noise = cv.tabulated([(-0.6, 0.3), (0.0, 1.0), (0.9, 0.5)])
    grid = cv.cell_grid(6.0, 1500)
    ty = list(y_steps(0.25, noise, grid, 10, tol=1e-300))
    tz = list(z_steps(-0.25, noise.mirror(), grid, 10))
    worst = max(np.max(np.abs(a.pdf.values - b.pdf.values))
                for a, b in zip(ty, tz))
    assert worst <= 1e-12
    checks.append(f"mirror identity (max gap {worst:.1e})")

    # contraction: steady-state growth volatility below the noise variance
    for g, sig in ((0.1, 0.05), (0.1, 0.3), (0.5, 0.3)):
        rep = steady_state_volatility(g, gaussian(sig))
        assert rep.variance < sig**2
    checks.append("contraction Var(dz) < sigma_a^2")

    _line(8, True, "; ".join(checks))
