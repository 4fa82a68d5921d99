import csv
import dataclasses
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
    write_grid_csv,
    write_grid_json,
)
from belllab import regions
from belllab.regions import MAX_GRID_N
from helpers import (
    reference_grid_csv,
    reference_grid_json,
    reference_scan_values,
    scenario_closed_form,
    scenario_settings,
)

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
        assert abs(s.a.as_array() @ s.a_prime.as_array()) < 1e-12
        assert abs(s.b.as_array() @ s.b_prime.as_array()) < 1e-12


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

    @pytest.mark.parametrize("plane", list(Plane))
    def test_plane_by_value(self, plane):
        # Any plane that was not a Plane member used to scan the yz plane.
        by_value = scan_region(plane.value, *canonical_coefficients(0.9), 64)
        by_member = scan_region(plane, *canonical_coefficients(0.9), 64)
        assert by_value.plane is plane
        assert np.array_equal(by_value.values, by_member.values)
        assert by_value.violating_fraction == by_member.violating_fraction

    @pytest.mark.parametrize("plane", ["nonsense", "XY", "", None, 0])
    def test_rejects_unknown_plane(self, plane):
        with pytest.raises(ValueError):
            scan_region(plane, INV_SQRT2, INV_SQRT2, 16)

    @pytest.mark.parametrize("grid_n", [100.5, 64.0, True, "64"])
    def test_rejects_non_integer_grid_n(self, grid_n):
        # grid_n = 100.5 used to scan 101 x 101 cells, the last centred at 2*pi.
        with pytest.raises(TypeError, match="grid_n"):
            scan_region(Plane.XY, INV_SQRT2, INV_SQRT2, grid_n)

    def test_numpy_integer_grid_n(self):
        grid = scan_region(Plane.XY, INV_SQRT2, INV_SQRT2, np.int64(16))
        assert np.array_equal(grid.values, scan_region(Plane.XY, INV_SQRT2, INV_SQRT2, 16).values)


SCAN_CASES = [(plane, conc, sign) for plane in Plane
              for conc in (1.0, 0.9, 8.0 / 11.0, 0.6) for sign in (-1, 1)]


class TestBlockedScan:
    # scan_region fills its grid in row blocks; every cell must carry the
    # whole-grid evaluation's bits, signed zeros included.
    @staticmethod
    def assert_matches_reference(plane, conc, sign, grid_n):
        c1, c2 = canonical_coefficients(conc, sign)
        grid = scan_region(plane, c1, c2, grid_n)
        values, fraction = reference_scan_values(plane, c1, c2, grid_n)
        assert grid.values.shape == (grid_n, grid_n)
        assert np.array_equal(grid.values.view(np.uint64), values.view(np.uint64))
        assert grid.violating_fraction == fraction

    # One block covers grids 2 and 17; 1025 has 7 rows a block, the last one 3.
    @pytest.mark.parametrize("grid_n", [2, 17, 1025])
    @pytest.mark.parametrize("plane, conc, sign", SCAN_CASES)
    def test_bit_identical_to_whole_grid(self, plane, conc, sign, grid_n):
        self.assert_matches_reference(plane, conc, sign, grid_n)

    # 2 rows a block and one left over; about 0.6 s and 200 MB a case for the oracle.
    @pytest.mark.parametrize("plane", list(Plane))
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_bit_identical_at_two_rows_per_block(self, plane, sign):
        assert regions._BLOCK_CELLS // 2731 == 2
        self.assert_matches_reference(plane, 8.0 / 11.0, sign, 2731)

    @pytest.mark.parametrize("block_cells", [1, 34, 100])
    @pytest.mark.parametrize("plane, conc, sign", SCAN_CASES)
    def test_bit_identical_for_any_block_shape(self, monkeypatch, plane, conc, sign, block_cells):
        # At grid 17: 1, 2 and 5 rows a block, the last block shorter for 2 and 5.
        monkeypatch.setattr(regions, "_BLOCK_CELLS", block_cells)
        self.assert_matches_reference(plane, conc, sign, 17)


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

    def test_scan_memory_is_the_grid_plus_one_block(self):
        # Evaluating the whole grid at once peaked at about 3x values.nbytes.
        tracemalloc.start()
        try:
            grid = scan_region(Plane.XZ, INV_SQRT2, -INV_SQRT2, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * grid.values.nbytes


def adversarial_grid(n_rows, n_cols, first_zero):
    """A grid that a value cache keyed by float, not by bit pattern, would misformat.

    Row 0 holds ``first_zero`` and row 1 its negation, each beside the threshold
    2.0, the next float above it, subnormals, +-inf and NaN; row 2 is all
    distinct random values.
    """
    rng = np.random.default_rng(8)
    specials = [2.0, np.nextafter(2.0, 3.0), 5e-324, -5e-324, math.inf, -math.inf, math.nan]
    values = rng.choice([0.5, 1.25, 2.75], size=(n_rows, n_cols))
    values[0, :8] = [first_zero, *specials]
    values[1, :8] = [-first_zero, *specials[::-1]]
    values[2] = rng.uniform(-3.0, 3.0, n_cols)
    return dataclasses.replace(
        scan_region(Plane.XY, 0.8, 0.6, 4),
        axis1=np.arange(n_rows) * 0.1, axis2=np.arange(n_cols) * 0.01, values=values,
    )


class TestDistinctValueExport:
    # The writers format each distinct bit pattern once per export; these grids
    # are built so that a cache keyed by value, or one shared between blocks
    # wrongly, changes bytes.  Shape (40, 1000) puts 8 rows in each block;
    # (4, 4097) makes each row its own block.
    @pytest.mark.parametrize("shape", [(40, 1000), (4, 4097)])
    @pytest.mark.parametrize("first_zero", [0.0, -0.0])
    def test_byte_identical_to_reference(self, tmp_path, shape, first_zero):
        assert_exports_match_reference(adversarial_grid(*shape, first_zero), tmp_path)

    def test_cache_limit_keeps_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(regions, "_CACHE_LIMIT", 2)
        assert_exports_match_reference(adversarial_grid(4, 4097, -0.0), tmp_path)

    def test_json_non_finite_values(self, tmp_path):
        # These used to be written as bare nan/inf, which json.loads rejects.
        grid = scan_region(Plane.XY, 0.8, 0.6, 4)
        v = grid.values.copy()
        v[0, 0], v[1, 2], v[3, 3] = math.nan, math.inf, -math.inf
        grid = dataclasses.replace(grid, values=v)
        assert_exports_match_reference(grid, tmp_path)
        write_grid_json(grid, tmp_path / "grid.json")
        payload = json.loads((tmp_path / "grid.json").read_text())
        np.testing.assert_array_equal(payload["values"], v)
