import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belllab import (
    Plane,
    canonical_coefficients,
    canonical_state,
    chsh_value,
    correlation_closed,
    scan_region,
    scenario_closed_form,
    scenario_settings,
    write_grid_csv,
    write_grid_json,
)
from belllab.regions import MAX_GRID_N
from helpers import reference_grid_csv, reference_grid_json

INV_SQRT2 = 1.0 / math.sqrt(2.0)
TSIRELSON = 2.0 * math.sqrt(2.0)

angle_st = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


def band_fraction(concurrence: float) -> float:
    """Analytic measure of the xy-plane violation band in the angle difference."""
    edge = 1.0 / (concurrence * math.sqrt(2.0))
    if edge >= 1.0:
        return 0.0
    return 2.0 * math.acos(edge) / (2.0 * math.pi)


class TestScenarioSettings:
    def test_xy_at_origin(self):
        s = scenario_settings(Plane.XY, 0.0, 0.0)
        assert (s.a.x, s.a.y, s.a.z) == (1.0, 0.0, 0.0)
        assert (s.b.x, s.b.y, s.b.z) == (1.0, 0.0, 0.0)
        assert (s.a_prime.x, s.a_prime.y, s.a_prime.z) == (0.0, 1.0, 0.0)
        assert (s.b_prime.x, s.b_prime.y, s.b_prime.z) == (0.0, 1.0, 0.0)

    def test_xz_at_origin(self):
        s = scenario_settings(Plane.XZ, 0.0, 0.0)
        assert (s.a.x, s.a.y, s.a.z) == (0.0, 0.0, 1.0)
        assert (s.a_prime.x, s.a_prime.y, s.a_prime.z) == (1.0, 0.0, 0.0)
        assert s.b == s.a and s.b_prime == s.a_prime

    def test_yz_at_origin(self):
        s = scenario_settings(Plane.YZ, 0.0, 0.0)
        assert (s.a.x, s.a.y, s.a.z) == (0.0, 0.0, 1.0)
        assert (s.a_prime.x, s.a_prime.y, s.a_prime.z) == (0.0, 1.0, 0.0)

    @given(st.sampled_from(list(Plane)), angle_st, angle_st)
    @settings(max_examples=200, deadline=None)
    def test_primed_vectors_orthogonal(self, plane, t1, t2):
        s = scenario_settings(plane, t1, t2)
        assert abs(s.a.dot(s.a_prime)) < 1e-12
        assert abs(s.b.dot(s.b_prime)) < 1e-12


class TestScenarioClosedForm:
    def test_xy_plus_at_minus_quarter_pi(self):
        assert scenario_closed_form(Plane.XY, 1, -math.pi / 4, 0.0) == pytest.approx(
            TSIRELSON, abs=1e-12
        )

    def test_xy_plus_at_half_pi(self):
        assert scenario_closed_form(Plane.XY, 1, math.pi / 2, 0.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_xz_plus_max_on_sum_diagonal(self):
        # theta1 + theta2 = pi/4 maximizes |cos + sin| + cos + sin.
        assert scenario_closed_form(Plane.XZ, 1, math.pi / 8, math.pi / 8) == (
            pytest.approx(TSIRELSON, abs=1e-12)
        )

    def test_minus_case_peak(self):
        assert scenario_closed_form(Plane.XZ, -1, 3 * math.pi / 4, 0.0) == pytest.approx(
            TSIRELSON, abs=1e-12
        )
        assert scenario_closed_form(Plane.XY, -1, 3 * math.pi / 4, 0.0) == pytest.approx(
            TSIRELSON, abs=1e-12
        )

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            scenario_closed_form(Plane.XY, 0, 0.0, 0.0)

    @pytest.mark.parametrize("plane", list(Plane))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_exact_lhs_at_maximal_entanglement(self, plane, sign):
        # At 2 c1 c2 = +-1 the pre-simplified form equals the exact Bell
        # combination built from the closed-form correlation.
        c1, c2 = INV_SQRT2, sign * INV_SQRT2
        rng = np.random.default_rng(40)
        for _ in range(200):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            s = scenario_settings(plane, t1, t2)
            lhs = (
                abs(correlation_closed(c1, c2, s.a, s.b) - correlation_closed(c1, c2, s.a, s.b_prime))
                + correlation_closed(c1, c2, s.a_prime, s.b)
                + correlation_closed(c1, c2, s.a_prime, s.b_prime)
            )
            assert abs(lhs - scenario_closed_form(plane, sign, t1, t2)) < 1e-12

    def test_vectorized_matches_scalar(self):
        t1 = np.linspace(0.0, 2.0 * math.pi, 17)
        t2 = np.linspace(0.0, 2.0 * math.pi, 17)
        grid = scenario_closed_form(Plane.XY, 1, t1[:, None], t2[None, :])
        for i in (0, 5, 11):
            for j in (2, 7, 16):
                assert grid[i, j] == pytest.approx(
                    scenario_closed_form(Plane.XY, 1, float(t1[i]), float(t2[j])), abs=1e-15
                )


class TestScanRegion:
    def test_grid_values_match_op_composition(self):
        c1, c2 = canonical_coefficients(0.8)
        grid = scan_region(Plane.XY, c1, c2, 32)
        state = canonical_state(c1, c2)
        for i in (0, 7, 21):
            for j in (3, 15, 31):
                s = scenario_settings(Plane.XY, float(grid.axis1[i]), float(grid.axis2[j]))
                assert grid.values[i, j] == pytest.approx(chsh_value(state, s), abs=1e-12)

    @staticmethod
    def scaled_f(grid):
        """C * f(closed form) for the grid's sign case, on the grid's axes."""
        sign_case = 1 if grid.c1 * grid.c2 >= 0.0 else -1
        f = scenario_closed_form(grid.plane, sign_case, grid.axis1[:, None], grid.axis2[None, :])
        return 2.0 * abs(grid.c1 * grid.c2) * f

    def test_exact_lhs_equals_scaled_f_at_maximal_entanglement(self):
        for plane in Plane:
            for sign in (1, -1):
                grid = scan_region(plane, INV_SQRT2, sign * INV_SQRT2, 64)
                assert np.abs(grid.values - self.scaled_f(grid)).max() < 1e-12

    def test_xy_scaled_f_matches_at_any_entanglement(self):
        for conc in (0.9, 0.75):
            grid = scan_region(Plane.XY, *canonical_coefficients(conc), 64)
            assert np.abs(grid.values - self.scaled_f(grid)).max() < 1e-12

    @pytest.mark.parametrize(
        "conc", [1.0, 0.8, 8.0 / 11.0]
    )
    def test_fraction_matches_band_measure(self, conc):
        grid = scan_region(Plane.XY, *canonical_coefficients(conc), 512)
        assert abs(grid.violating_fraction - band_fraction(conc)) <= 2.0 / 512

    def test_no_violation_below_threshold_entanglement(self):
        grid = scan_region(Plane.XY, *canonical_coefficients(0.6), 512)
        assert grid.violating_fraction == 0.0
        grid = scan_region(Plane.XY, *canonical_coefficients(INV_SQRT2), 512)
        assert grid.violating_fraction <= 1.0 / 512

    def test_shrinkage_ladder(self):
        fractions = [
            scan_region(Plane.XY, *canonical_coefficients(c), 256).violating_fraction
            for c in (1.0, 0.8, 8.0 / 11.0, INV_SQRT2, 0.6)
        ]
        assert all(hi >= lo for hi, lo in zip(fractions, fractions[1:]))
        assert fractions[-1] == 0.0

    def test_never_exceeds_tsirelson(self):
        for plane in Plane:
            for conc, sign in ((1.0, 1), (1.0, -1), (0.8, 1), (0.5, -1)):
                c1, c2 = canonical_coefficients(conc, sign)
                grid = scan_region(plane, c1, c2, 128)
                assert grid.values.max() <= TSIRELSON + 1e-9

    def test_xz_and_yz_grids_identical(self):
        for conc, sign in ((1.0, 1), (0.8, -1)):
            c1, c2 = canonical_coefficients(conc, sign)
            g_xz = scan_region(Plane.XZ, c1, c2, 96)
            g_yz = scan_region(Plane.YZ, c1, c2, 96)
            assert np.abs(g_xz.values - g_yz.values).max() < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            scan_region(Plane.XY, 1.0, 1.0, 64)
        with pytest.raises(ValueError):
            scan_region(Plane.XY, INV_SQRT2, INV_SQRT2, 1)
        with pytest.raises(ValueError, match="grid_n"):
            scan_region(Plane.XY, INV_SQRT2, INV_SQRT2, MAX_GRID_N + 1)
        for c1, c2 in ((math.nan, 0.5), (0.5, math.nan)):  # used to scan an all-NaN grid
            with pytest.raises(ValueError, match="not normalized"):
                scan_region(Plane.XY, c1, c2, 16)


class TestGridExport:
    def test_csv_roundtrip(self, tmp_path):
        grid = scan_region(Plane.XY, INV_SQRT2, INV_SQRT2, 16)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# plane=xy")
        assert "violating_fraction" in lines[0]
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 16 * 16
        k = 5 * 16 + 11
        assert float(rows[k]["bell_lhs"]) == pytest.approx(grid.values[5, 11], rel=1e-10)
        assert rows[k]["violated"] == str(int(grid.values[5, 11] > 2.0))
        fraction = sum(int(r["violated"]) for r in rows) / len(rows)
        assert fraction == pytest.approx(grid.violating_fraction, abs=1e-12)

    def test_json_roundtrip(self, tmp_path):
        grid = scan_region(Plane.XZ, INV_SQRT2, -INV_SQRT2, 12)
        path = tmp_path / "grid.json"
        write_grid_json(grid, path)
        payload = json.loads(path.read_text())
        assert payload["plane"] == "xz"
        assert payload["threshold"] == 2.0
        assert len(payload["axis1"]) == 12
        assert len(payload["values"]) == 12 and len(payload["values"][0]) == 12
        np.testing.assert_allclose(payload["values"], grid.values)

    def test_export_is_deterministic(self, tmp_path):
        grid = scan_region(Plane.XY, INV_SQRT2, INV_SQRT2, 8)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid_csv(grid, p1)
        write_grid_csv(grid, p2)
        assert p1.read_bytes() == p2.read_bytes()


EXPORT_CASES = [(conc, sign) for conc in (1.0, 0.9, 8.0 / 11.0, 0.6) for sign in (-1, 1)]


def assert_exports_match_reference(grid, tmp_path):
    for writer, reference in ((write_grid_csv, reference_grid_csv),
                              (write_grid_json, reference_grid_json)):
        new, old = tmp_path / "new", tmp_path / "old"
        writer(grid, new)
        reference(grid, old)
        assert new.read_bytes() == old.read_bytes(), writer.__name__


class TestStreamedExport:
    # The row-streamed writers must write the reference writers' bytes exactly.
    @pytest.mark.parametrize("grid_n", [2, 3, 16, 64])
    @pytest.mark.parametrize("plane", list(Plane))
    def test_byte_identical_to_reference(self, tmp_path, plane, grid_n):
        for conc, sign in EXPORT_CASES:
            grid = scan_region(plane, *canonical_coefficients(conc, sign), grid_n)
            assert_exports_match_reference(grid, tmp_path)

    # About 2 s a case at grid 512, so each (C, sign) runs once, the planes taking turns.
    @pytest.mark.parametrize("plane, conc, sign", [
        (list(Plane)[i % 3], conc, sign) for i, (conc, sign) in enumerate(EXPORT_CASES)
    ])
    def test_byte_identical_at_grid_512(self, tmp_path, plane, conc, sign):
        grid = scan_region(plane, *canonical_coefficients(conc, sign), 512)
        assert_exports_match_reference(grid, tmp_path)

    @pytest.mark.parametrize("writer", [write_grid_csv, write_grid_json])
    def test_memory_is_one_row(self, tmp_path, writer):
        # A whole-grid tolist() costs several times values.nbytes.
        grid = scan_region(Plane.XZ, INV_SQRT2, -INV_SQRT2, 1024)
        tracemalloc.start()
        try:
            writer(grid, tmp_path / "grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.values.nbytes / 4
