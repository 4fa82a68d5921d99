"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full suite takes a few minutes, dominated by the Monte Carlo
bound sweeps.
"""
import math

import numpy as np
import pytest

from belllab import (
    BUILTIN_MODELS,
    BellSignModel,
    ExperimentConfig,
    MeasurementSettings,
    Plane,
    UnitVector3,
    bell1964_check,
    canonical_coefficients,
    canonical_state,
    chsh_lhv,
    chsh_value,
    correlation_closed,
    correlation_matrix,
    estimate_correlation,
    estimate_S,
    gisin_settings,
    make_unit_vector,
    max_violation,
    misalignment_for_damping,
    scan_region,
)
from belllab.cli import main as cli_main
from helpers import random_coefficients, random_settings, random_state, random_unit_vector

INV_SQRT2 = 1.0 / math.sqrt(2.0)
TSIRELSON = 2.0 * math.sqrt(2.0)


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS - {text}")


def test_criterion_1_gisin_maximal_violation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        c1, c2 = random_coefficients(rng)
        value = chsh_value(canonical_state(c1, c2), gisin_settings(c1, c2))
        expected = 2.0 * math.sqrt(1.0 + 4.0 * (c1 * c2) ** 2)
        worst = max(worst, abs(value - expected))
    assert worst < 1e-9
    half = chsh_value(canonical_state(INV_SQRT2, INV_SQRT2), gisin_settings(INV_SQRT2, INV_SQRT2))
    assert half == pytest.approx(2.828427, abs=1e-6)
    assert half == pytest.approx(TSIRELSON, abs=1e-9)
    report(1, f"Gisin construction matches 2*sqrt(1+4(c1c2)^2) (max |diff| {worst:.2e})")


def test_criterion_2_closed_form_equals_matrix_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        c1, c2 = random_coefficients(rng)
        a, b = random_unit_vector(rng), random_unit_vector(rng)
        diff = abs(
            correlation_closed(c1, c2, a, b)
            - correlation_matrix(canonical_state(c1, c2), a, b)
        )
        worst = max(worst, diff)
    assert worst < 1e-12
    report(2, f"closed form == matrix expectation over 1e4 inputs (max |diff| {worst:.2e})")


def test_criterion_3_tsirelson_ceiling():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100_000):
        value = chsh_value(random_state(rng), random_settings(rng))
        worst = max(worst, value)
        assert value <= TSIRELSON + 1e-6

    # Coarse sweep over all eight spherical angles at three canonical states.
    thetas = np.linspace(0.0, math.pi, 5)
    phis = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    vecs = [make_unit_vector(t, p) for t in thetas for p in phis]
    m = len(vecs)
    grid_worst = 0.0
    for prod in (0.5, -0.5, 0.4):
        c1 = math.sqrt((1.0 + math.sqrt(1.0 - 4.0 * prod * prod)) / 2.0)
        c2 = prod / c1
        p = np.empty((m, m))
        for i, u in enumerate(vecs):
            for j, v in enumerate(vecs):
                p[i, j] = correlation_closed(c1, c2, u, v)
        s = (
            np.abs(p[:, None, :, None] - p[:, None, None, :])
            + p[None, :, :, None]
            + p[None, :, None, :]
        )
        grid_worst = max(grid_worst, float(s.max()))
        # Spot-check the broadcast against the operation itself.
        state = canonical_state(c1, c2)
        for (i, k, j, l) in ((0, 3, 7, 12), (4, 4, 4, 4), (11, 2, 19, 5)):
            settings = MeasurementSettings(a=vecs[i], a_prime=vecs[k], b=vecs[j], b_prime=vecs[l])
            assert s[i, k, j, l] == pytest.approx(chsh_value(state, settings), abs=1e-12)
    assert grid_worst <= TSIRELSON + 1e-6
    report(
        3,
        f"no value above 2*sqrt(2)+1e-6 over 1e5 random pairs (max {worst:.6f}) "
        f"and a 5^8-point angle grid (max {grid_worst:.6f})",
    )


def test_criterion_4_lhv_bound_and_sign_model_line():
    rng = np.random.default_rng(104)
    largest = -math.inf
    for name in sorted(BUILTIN_MODELS):
        model = BUILTIN_MODELS[name]()
        for seed in range(1000):
            est = chsh_lhv(model, random_settings(rng), 100_000, seed=seed)
            largest = max(largest, est.value)
            assert est.value <= 2.0, f"{name} exceeded the local bound: {est.value}"

    model = BellSignModel()
    z = UnitVector3(0, 0, 1)
    for i, theta in enumerate((0.3, math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3)):
        est = estimate_correlation(model, z, make_unit_vector(theta, 0.0), 1_000_000, seed=i)
        expected = -1.0 + 2.0 * theta / math.pi
        assert abs(est.value - expected) <= 3.0 * est.std_error
    report(
        4,
        "both built-in models keep S <= 2 exactly over 2x1000 random quadruples "
        f"(largest S {largest:.4f}); sign model matches -1 + 2 theta/pi at 5 angles",
    )


def test_criterion_5_bell_1964_reduction():
    rng = np.random.default_rng(105)
    model = BellSignModel()
    for seed in range(100):
        t_a, t_b, t_bp = rng.uniform(0.0, math.pi, 3)
        res = bell1964_check(
            model,
            make_unit_vector(t_a, 0.0),
            make_unit_vector(t_b, 0.0),
            make_unit_vector(t_bp, 0.0),
            100_000,
            seed=seed,
        )
        assert res.lhs <= res.rhs
    report(5, "|E(a,b) - E(a,b')| <= 1 + E(b',b) held exactly for 100 random coplanar triples")


SINGLET = canonical_state(INV_SQRT2, -INV_SQRT2)
OPTIMAL = MeasurementSettings(
    a=make_unit_vector(0.0, 0.0),
    b=make_unit_vector(math.pi / 4, 0.0),
    a_prime=make_unit_vector(math.pi / 2, 0.0),
    b_prime=make_unit_vector(3 * math.pi / 4, 0.0),
)


def test_criterion_6_agr_desk_scale_reproduction():
    ideal = estimate_S(
        ExperimentConfig(state=SINGLET, settings=OPTIMAL, n_pairs=10_000_000, seed=106)
    )
    assert abs(abs(ideal.value) - TSIRELSON) <= 3.0 * ideal.std_error

    damped = estimate_S(
        ExperimentConfig(
            state=SINGLET,
            settings=OPTIMAL,
            n_pairs=10_000_000,
            misalignment_sigma=misalignment_for_damping(0.955),
            seed=106,
        )
    )
    assert 2.65 <= abs(damped.value) <= 2.75
    report(
        6,
        f"ideal |S| = {abs(ideal.value):.5f} (2*sqrt(2) within 3 sigma); "
        f"damping 0.955 gives |S| = {abs(damped.value):.5f} in [2.65, 2.75]",
    )


def test_criterion_7_violation_region_fractions():
    tol = 2.0 / 1024
    fractions = []
    for conc in (1.0, 0.8, 8.0 / 11.0):
        grid = scan_region(Plane.XY, *canonical_coefficients(conc), 1024)
        analytic = 2.0 * math.acos(1.0 / (conc * math.sqrt(2.0))) / (2.0 * math.pi)
        assert abs(grid.violating_fraction - analytic) <= tol
        fractions.append(grid.violating_fraction)
    assert fractions[0] > fractions[1] > fractions[2]
    zero = scan_region(Plane.XY, *canonical_coefficients(0.6), 1024)
    assert zero.violating_fraction == 0.0
    report(
        7,
        "xy-plane fractions "
        + " / ".join(f"{f:.4f}" for f in fractions)
        + " track the analytic band within 2 cells; zero at C = 0.6",
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    runs = {
        "lhv.json": [
            "lhv", "--model", "bell-sign", "--samples", "50000", "--seed", "42",
            "--gisin-for", "0.7071068", "0.7071068", "--format", "json",
        ],
        "agr.json": [
            "agr", "--pairs", "50000", "--seed", "42", "--damping", "0.955",
        ],
        "scan.csv": [
            "scan", "--plane", "xy", "--concurrence", "0.8", "--grid", "64",
        ],
    }
    for name, argv in runs.items():
        p1, p2 = tmp_path / f"one_{name}", tmp_path / f"two_{name}"
        assert cli_main(argv + ["--out", str(p1)]) == 0
        out1 = capsys.readouterr().out
        assert cli_main(argv + ["--out", str(p2)]) == 0
        out2 = capsys.readouterr().out
        assert p1.read_bytes() == p2.read_bytes(), f"{name} differs between runs"
        assert out1.replace(str(p1), "") == out2.replace(str(p2), "")
    report(8, "lhv/agr/scan reruns with fixed seeds are bit-identical")
