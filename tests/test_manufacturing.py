"""Tests for the manufacturing substrate: litho, etch, diffusion, yield,
defects."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.manufacturing import defects, diffusion, etch, lithography, yieldmodel
from repro.manufacturing.etch import BOE_5_TO_1, RIE_OXIDE, EtchProcess
from repro.manufacturing.lithography import MaskFeatures, Ret, identify_ret


class TestLithography:
    def test_rayleigh(self):
        assert lithography.rayleigh_resolution(0.35, 193.0, 1.35) == \
            pytest.approx(50.04, rel=1e-3)

    def test_dof(self):
        assert lithography.depth_of_focus(0.5, 193.0, 0.9) == \
            pytest.approx(119.1, rel=1e-2)

    def test_k1_from_pitch(self):
        k1 = lithography.k1_from_pitch(50.0, 193.0, 1.35)
        assert k1 == pytest.approx(0.35, rel=1e-2)

    def test_double_patterning_threshold(self):
        assert lithography.requires_double_patterning(20.0, 193.0, 1.35)
        assert not lithography.requires_double_patterning(50.0, 193.0, 1.35)

    @pytest.mark.parametrize("features,expected", [
        (MaskFeatures(has_edge_jogs=True), Ret.OPC),
        (MaskFeatures(has_isolated_scatter_bars=True), Ret.SRAF),
        (MaskFeatures(has_phase_regions=True), Ret.PSM),
        (MaskFeatures(split_into_two_masks=True), Ret.DOUBLE_PATTERNING),
        (MaskFeatures(), Ret.OAI),
    ])
    def test_ret_identification(self, features, expected):
        assert identify_ret(features) is expected

    def test_meef(self):
        assert lithography.mask_error_enhancement_factor(3.0, 4.0, 4.0) == \
            pytest.approx(3.0)

    @given(st.floats(0.2, 0.8), st.floats(10.0, 400.0), st.floats(0.3, 1.5))
    def test_rayleigh_scalings(self, k1, wavelength, na):
        base = lithography.rayleigh_resolution(k1, wavelength, na)
        assert lithography.rayleigh_resolution(k1, wavelength * 2, na) == \
            pytest.approx(base * 2)
        assert lithography.rayleigh_resolution(k1, wavelength, na * 2) == \
            pytest.approx(base / 2)


class TestEtch:
    def test_paper_boe_example(self):
        # 500 nm oxide in 100 nm/min BOE with 10% over-etch: 5.5 minutes
        assert etch.etch_time_minutes(500.0, BOE_5_TO_1, 0.10) == \
            pytest.approx(5.5)

    def test_substrate_loss_via_selectivity(self):
        over_time = 0.25  # minutes of over-etch in RIE
        loss = etch.substrate_loss_nm(over_time, RIE_OXIDE)
        assert loss == pytest.approx(200.0 / 15.0 * 0.25)

    def test_isotropic_undercut_equals_depth(self):
        minutes = 3.0
        assert etch.undercut_nm(minutes, BOE_5_TO_1) == pytest.approx(300.0)

    def test_anisotropic_has_no_undercut(self):
        assert etch.undercut_nm(3.0, RIE_OXIDE) == 0.0

    def test_opening_width(self):
        width = etch.opening_width_after_etch(1000.0, 3.0, BOE_5_TO_1)
        assert width == pytest.approx(1600.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            etch.etch_time_minutes(-1.0, BOE_5_TO_1)
        with pytest.raises(ValueError):
            EtchProcess("bad", 0.0)

    @given(st.floats(10.0, 5000.0), st.floats(0.0, 1.0))
    def test_over_etch_monotone(self, thickness, over):
        base = etch.etch_time_minutes(thickness, BOE_5_TO_1)
        longer = etch.etch_time_minutes(thickness, BOE_5_TO_1, over)
        assert longer == pytest.approx(base * (1 + over))


class TestDiffusion:

    def test_diffusion_length(self):
        assert diffusion.diffusion_length_um(1e-12, 1800.0) == \
            pytest.approx(2 * math.sqrt(1.8e-9) * 1e4)

    def test_gaussian_peak_at_surface(self):
        surface = diffusion.gaussian_profile(1e14, 1e-13, 3600.0, 0.0)
        deep = diffusion.gaussian_profile(1e14, 1e-13, 3600.0, 1e-4)
        assert surface > deep

    def test_junction_depth_on_profile(self):
        depth = diffusion.junction_depth_gaussian(1e14, 1e-13, 3600.0, 1e16)
        at_junction = diffusion.gaussian_profile(1e14, 1e-13, 3600.0, depth)
        assert at_junction == pytest.approx(1e16, rel=1e-6)

    def test_junction_background_too_high_raises(self):
        with pytest.raises(ValueError):
            diffusion.junction_depth_gaussian(1e10, 1e-13, 3600.0, 1e22)

    def test_deal_grove_reduces_to_parabolic_at_long_times(self):
        thickness = diffusion.deal_grove_thickness_um(0.165, 0.0117, 1000.0)
        assert thickness == pytest.approx(
            math.sqrt(0.0117 * 1000.0), rel=0.05)

    def test_deal_grove_with_initial_oxide(self):
        fresh = diffusion.deal_grove_thickness_um(0.165, 0.0117, 4.0)
        grown = diffusion.deal_grove_thickness_um(0.165, 0.0117, 4.0,
                                                  initial_um=0.1)
        assert grown > fresh

    def test_silicon_consumed(self):
        assert diffusion.oxide_silicon_consumed_um(1.0) == \
            pytest.approx(0.44)

    def test_sheet_resistance_and_wire(self):
        assert diffusion.wire_resistance(0.1, 500.0, 0.5) == \
            pytest.approx(100.0)

    def test_squares(self):
        assert diffusion.squares_in_wire(100.0, 0.5) == 200.0


class TestYield:
    def test_poisson(self):
        assert yieldmodel.poisson_yield(0.5, 1.0) == \
            pytest.approx(math.exp(-0.5))

    def test_murphy_above_poisson(self):
        poisson = yieldmodel.poisson_yield(1.0, 1.0)
        murphy = yieldmodel.murphy_yield(1.0, 1.0)
        assert murphy > poisson

    def test_seeds(self):
        assert yieldmodel.seeds_yield(1.0, 1.0) == 0.5

    def test_zero_defects_perfect_yield(self):
        for model in (yieldmodel.poisson_yield, yieldmodel.murphy_yield,
                      yieldmodel.seeds_yield):
            assert model(0.0, 1.0) == 1.0

    def test_dies_per_wafer(self):
        count = yieldmodel.dies_per_wafer(300.0, 10.0, 10.0)
        exact = math.pi * 150 ** 2 / 100 - math.pi * 300 / math.sqrt(200)
        assert count == int(exact)

    def test_good_dies_and_cost(self):
        good = yieldmodel.good_dies(300.0, 10.0, 10.0, 0.5)
        assert 0 < good < yieldmodel.dies_per_wafer(300.0, 10.0, 10.0)
        cost = yieldmodel.cost_per_good_die(5000.0, 300.0, 10.0, 10.0, 0.5)
        assert cost == pytest.approx(5000.0 / good)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            yieldmodel.good_dies(300.0, 10.0, 10.0, 0.5, model="magic")

    @given(st.floats(0.0, 5.0), st.floats(0.01, 4.0))
    def test_yield_models_ordered(self, density, area):
        poisson = yieldmodel.poisson_yield(density, area)
        murphy = yieldmodel.murphy_yield(density, area)
        seeds = yieldmodel.seeds_yield(density, area)
        assert 0.0 <= poisson <= murphy + 1e-7
        assert murphy <= seeds + 1e-7


class TestDefects:
    def test_scratch_classification(self):
        signature = defects.WaferMapSignature(0.96, 0.1, 1.0)
        assert defects.classify_map(signature) is defects.DefectClass.SCRATCH

    def test_edge_ring(self):
        signature = defects.WaferMapSignature(0.1, 0.9, 1.0)
        assert defects.classify_map(signature) is \
            defects.DefectClass.EDGE_RING

    def test_cluster_and_random(self):
        assert defects.classify_map(
            defects.WaferMapSignature(0.1, 0.1, 5.0)) is \
            defects.DefectClass.CLUSTER
        assert defects.classify_map(
            defects.WaferMapSignature(0.1, 0.1, 1.0)) is \
            defects.DefectClass.RANDOM

    def test_cluster_factor_poisson_near_one(self):
        assert defects.cluster_factor([1, 1, 1, 1]) == 0.0
        assert defects.cluster_factor([0, 2, 0, 2]) == pytest.approx(1.0)

    def test_critical_area(self):
        area = defects.critical_area_wires(2.0, 1.0, 1.0, 10000.0)
        assert area == pytest.approx(5000.0)

    def test_small_particles_harmless(self):
        assert defects.critical_area_wires(0.5, 1.0, 1.0, 10000.0) == 0.0

    def test_failure_probability(self):
        p = defects.failure_probability(1.0, 0.5)
        assert p == pytest.approx(1.0 - math.exp(-0.5))
