"""Photon-statistics layer: cascade model, moments, inversions, transforms."""

import hashlib
import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spsqkd.errors import FitError, InfeasibleObservablesError
from spsqkd.photon_source import (
    ExcitationProbs,
    PhotonDistribution,
    SourceModel,
    apply_collection,
    apply_collection_array,
    cascade_distribution,
    check_distribution_array,
    emission_distribution,
    excitation_probs,
    extract_distribution_g2,
    extract_distribution_g3,
    extract_p0,
    fit_source_model,
    g2_of,
    g2_upper_bound,
    g3_of,
    hp_effective_array,
    hp_effective_distribution,
    hp_herald_probability,
    hp_transform,
    mean_photon_number,
    saturation_power,
)

ETA_C_RANGE = r"eta_c must lie in \[0, 1\]"


def distributions(max_p3: float = 0.0) -> st.SearchStrategy[PhotonDistribution]:
    """Random points of the probability simplex with bounded p3."""

    def build(p1: float, p2: float, p3: float) -> PhotonDistribution:
        scale = p1 + p2 + p3
        if scale > 1.0:
            p1, p2, p3 = p1 / scale, p2 / scale, p3 / scale
        return PhotonDistribution(p0=max(1.0 - p1 - p2 - p3, 0.0),
                                  p1=p1, p2=p2, p3=p3)

    floats = st.floats(min_value=0.0, max_value=1.0)
    p3s = st.floats(min_value=0.0, max_value=max_p3) if max_p3 else st.just(0.0)
    return st.builds(build, floats, floats, p3s)


def herald_by_enumeration(d: PhotonDistribution, t: float, eta_d: float,
                          p_dc: float) -> float:
    """The herald probability as the sum over each Fock component's split:
    with ``k`` of ``n`` photons reflected, the herald fires unless all
    ``k`` are missed and no dark count occurs."""
    r, miss, quiet = 1.0 - t, 1.0 - eta_d, 1.0 - p_dc
    total = 0.0
    for n, pn in enumerate((d.p0, d.p1, d.p2)):
        for k in range(n + 1):
            split = math.comb(n, k) * (r ** k) * (t ** (n - k))
            total += pn * split * (1.0 - miss**k * quiet)
    return total


class TestExcitationProbs:
    def test_zero_drive_is_ground_state(self):
        ex = excitation_probs(0.0)
        assert (ex.p_xx, ex.p_x) == (0.0, 0.0)

    def test_unit_drive_splits_evenly(self):
        ex = excitation_probs(1.0)
        assert ex.p_xx == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert ex.p_x == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_strong_drive_saturates_the_upper_level(self):
        ex = excitation_probs(1e9)
        assert ex.p_xx == pytest.approx(1.0, abs=1e-8)
        assert ex.p_x == pytest.approx(0.0, abs=1e-8)

    def test_negative_drive_rejected(self):
        with pytest.raises(ValueError):
            excitation_probs(-0.1)


def enumerate_cascade(p_xx: float, p_x: float, qy_x: float,
                      qy_xx: float) -> tuple[float, float, float]:
    """Outcome-tree oracle: walk every radiative/dark branch explicitly."""
    probs = [0.0, 0.0, 0.0]
    # doubly excited: both lines decide independently
    for xx_emits in (0, 1):
        for x_emits in (0, 1):
            w = (p_xx * (qy_xx if xx_emits else 1.0 - qy_xx)
                 * (qy_x if x_emits else 1.0 - qy_x))
            probs[xx_emits + x_emits] += w
    # singly excited: one line
    for x_emits in (0, 1):
        probs[x_emits] += p_x * (qy_x if x_emits else 1.0 - qy_x)
    probs[0] += 1.0 - p_xx - p_x
    return tuple(probs)


class TestCascadeDistribution:
    def test_deterministic_two_photon_limit(self):
        d = cascade_distribution(ExcitationProbs(p_xx=1.0, p_x=0.0), 1.0, 1.0)
        assert d.as_tuple() == (0.0, 0.0, 1.0, 0.0)

    def test_dark_upper_line_feeds_the_single_photon_term(self):
        d = cascade_distribution(ExcitationProbs(p_xx=0.2, p_x=0.5), 1.0, 0.0)
        assert d.p2 == 0.0
        assert d.p1 == pytest.approx(0.7, abs=1e-15)
        assert d.p0 == pytest.approx(0.3, abs=1e-15)

    def test_matches_outcome_tree_on_a_grid(self):
        grid = np.linspace(0.0, 1.0, 10)
        for qy_x in grid:
            for qy_xx in grid:
                for w in grid:
                    ex = ExcitationProbs(p_xx=w / 3.0, p_x=w / 3.0)
                    d = cascade_distribution(ex, qy_x, qy_xx)
                    ref = enumerate_cascade(ex.p_xx, ex.p_x, qy_x, qy_xx)
                    assert d.p0 == pytest.approx(ref[0], abs=1e-12)
                    assert d.p1 == pytest.approx(ref[1], abs=1e-12)
                    assert d.p2 == pytest.approx(ref[2], abs=1e-12)

    def test_emission_distribution_composes_excitation_and_cascade(self):
        model = SourceModel(alpha_times_is=2.0, qy_x=0.9, qy_xx=0.5)
        d = emission_distribution(model, 0.7)
        ex = excitation_probs(2.0 * 0.7)
        assert d == cascade_distribution(ex, 0.9, 0.5)

    def test_probability_conservation(self):
        model = SourceModel(alpha_times_is=3.0, qy_x=0.8, qy_xx=0.4)
        for s in np.linspace(0.0, 5.0, 40):
            d = emission_distribution(model, s)
            assert sum(d.as_tuple()) == pytest.approx(1.0, abs=1e-12)


class TestMoments:
    def test_vacuum_mean_is_zero(self):
        assert mean_photon_number(PhotonDistribution(1.0, 0.0, 0.0)) == 0.0

    def test_two_photon_mean(self):
        assert mean_photon_number(PhotonDistribution(0.0, 0.0, 1.0)) == 2.0

    def test_mean_ignores_the_vacuum_weight(self):
        d = PhotonDistribution(p0=0.5655, p1=0.3231, p2=0.1114)
        assert mean_photon_number(d) == pytest.approx(0.5459, abs=1e-12)

    def test_g2_of_single_photon_is_zero(self):
        assert g2_of(PhotonDistribution(0.0, 1.0, 0.0)) == 0.0

    def test_g2_of_two_photon_fock_is_half(self):
        assert g2_of(PhotonDistribution(0.0, 0.0, 1.0)) == 0.5

    def test_g2_measured_operating_point(self):
        d = PhotonDistribution(p0=0.5655, p1=0.3231, p2=0.1114)
        # 2 p2 / (p1 + 2 p2)**2, independent of p0
        assert g2_of(d) == pytest.approx(0.7476, abs=1e-4)

    def test_g2_undefined_for_vacuum(self):
        with pytest.raises(ValueError):
            g2_of(PhotonDistribution(1.0, 0.0, 0.0))

    def test_g3_pure_three_photon(self):
        d = PhotonDistribution(0.0, 0.0, 0.0, 1.0)
        assert g3_of(d) == pytest.approx(6.0 / 27.0, abs=1e-15)


class TestG2UpperBound:
    def test_no_vacuum_gives_one_half(self):
        assert g2_upper_bound(0.0) == 0.5

    def test_closed_form_value(self):
        assert g2_upper_bound(0.75) == pytest.approx(2.0, abs=1e-15)

    def test_diverges_toward_pure_vacuum(self):
        assert g2_upper_bound(1.0 - 1e-12) > 1e11
        with pytest.raises(ValueError):
            g2_upper_bound(1.0)

    def test_attained_on_the_simplex(self):
        # max g2 at fixed p0 puts all light into the pair term
        for p0 in np.linspace(0.0, 0.95, 20):
            best = g2_of(PhotonDistribution(p0=p0, p1=0.0, p2=1.0 - p0))
            assert best == pytest.approx(g2_upper_bound(p0), abs=1e-9)
            sampled = g2_of(PhotonDistribution(p0=p0, p1=(1 - p0) / 2,
                                               p2=(1 - p0) / 2))
            assert sampled <= g2_upper_bound(p0) + 1e-12


class TestExtractP0:
    def test_no_counts_means_vacuum(self):
        assert extract_p0(0.0, 2e6, 0.01) == 1.0

    def test_saturated_counts_mean_no_vacuum(self):
        assert extract_p0(0.01 * 2e6, 2e6, 0.01) == 0.0

    def test_measured_operating_point(self):
        assert extract_p0(8600.0, 2e6, 0.01) == pytest.approx(0.57, abs=1e-12)

    def test_overcounting_is_flagged(self):
        with pytest.raises(InfeasibleObservablesError):
            extract_p0(2e4 + 1.0, 2e6, 0.01)


class TestExtractDistributionG2:
    def test_zero_g2_is_pure_single_photon_light(self):
        d = extract_distribution_g2(0.5, 0.0)
        assert d.as_tuple() == (0.5, 0.5, 0.0, 0.0)

    def test_half_g2_with_no_vacuum_is_the_pair_state(self):
        d = extract_distribution_g2(0.0, 0.5)
        assert d.p2 == pytest.approx(1.0, abs=1e-9)
        assert d.p1 == pytest.approx(0.0, abs=1e-9)

    def test_measured_operating_point_against_root_finder(self):
        from scipy.optimize import brentq

        p0, g2 = 0.57, 0.747
        b = 1.0 - p0

        def resid(p2: float) -> float:
            p1 = b - p2
            return 2.0 * p2 / (p1 + 2.0 * p2) ** 2 - g2

        p2_ref = brentq(resid, 1e-12, b / 2.0, xtol=1e-14)
        d = extract_distribution_g2(p0, g2)
        assert d.p2 == pytest.approx(p2_ref, abs=1e-10)
        assert d.p1 == pytest.approx(b - p2_ref, abs=1e-10)
        assert d.p1 == pytest.approx(0.3218, abs=5e-4)
        assert d.p2 == pytest.approx(0.1082, abs=5e-4)

    def test_bound_violation_is_infeasible(self):
        with pytest.raises(InfeasibleObservablesError):
            extract_distribution_g2(0.5, 1.01 * g2_upper_bound(0.5))

    @given(distributions())
    @settings(max_examples=200)
    def test_round_trip(self, d: PhotonDistribution):
        assume(mean_photon_number(d) >= 1e-6)
        # at p1 -> 0 the quadratic degenerates to a double root and the
        # inversion is ill-conditioned, so stay off that boundary
        assume(d.p1 >= 1e-5)
        back = extract_distribution_g2(d.p0, g2_of(d))
        assert back.p1 == pytest.approx(d.p1, abs=1e-10)
        assert back.p2 == pytest.approx(d.p2, abs=1e-10)


class TestExtractDistributionG3:
    def test_measured_operating_point(self):
        d = extract_distribution_g3(0.57, 0.747, 0.00065)
        assert d.p1 == pytest.approx(0.3233, abs=0.0094)
        assert d.p2 == pytest.approx(0.1112, abs=0.0059)
        assert d.p3 == pytest.approx(1.77e-5, rel=0.5)

    def test_zero_g3_reduces_to_the_two_moment_inversion(self):
        assert (extract_distribution_g3(0.57, 0.747, 0.0)
                == extract_distribution_g2(0.57, 0.747))

    def test_a_grid_of_640_inversions_is_pinned(self):
        # (p0, g2, g3) of 640 distributions with a three-photon term; the
        # SHA-256 of the repr'd results was recorded when the Newton
        # iteration still ran on numpy arrays, so the float loop must keep
        # every bit
        rows = []
        for p0 in np.linspace(0.3, 0.72, 10):
            for p2 in np.linspace(0.01, 0.08, 8):
                for p3 in np.linspace(0.001, 0.008, 8):
                    d = PhotonDistribution(p0=float(p0),
                                           p1=1.0 - p0 - p2 - p3,
                                           p2=float(p2), p3=float(p3))
                    got = extract_distribution_g3(float(p0), g2_of(d),
                                                  g3_of(d))
                    rows.append(",".join(map(repr, got.as_tuple())) + "\n")
        assert hashlib.sha256("".join(rows).encode()).hexdigest() == (
            "969f081790bafe98fb7935f6de3c8d27a1dc831e797ee9174e9f9ebe59c6d111")

    @given(distributions(max_p3=0.05))
    @example(PhotonDistribution(0.5, 0.1, 0.35, 0.05))  # g2 1.108 > 1
    # just below the ceiling: the damping halves a Newton step
    @example(PhotonDistribution(0.789, 0.07, 0.136, 0.005))
    @settings(max_examples=200, deadline=None)
    def test_forward_map_round_trip(self, d: PhotonDistribution):
        assume(mean_photon_number(d) >= 1e-3 and d.p0 < 1.0 - 1e-9)
        # at p1 = 0 the cubic in the mean has a double root at the
        # solution (its slope there is p1 / mu), where the inversion is
        # ill-conditioned, so stay off that boundary
        assume(d.p1 >= 1e-4)
        back = extract_distribution_g3(d.p0, g2_of(d), g3_of(d))
        assert back.p1 == pytest.approx(d.p1, abs=1e-10)
        assert back.p2 == pytest.approx(d.p2, abs=1e-10)
        assert back.p3 == pytest.approx(d.p3, abs=1e-10)


class TestApplyCollection:
    def test_full_collection_is_identity(self, sps2: PhotonDistribution):
        out = apply_collection(sps2, 1.0)
        # p1..p3 pass through untouched; p0 is recomputed as a complement
        assert (out.p1, out.p2, out.p3) == (sps2.p1, sps2.p2, sps2.p3)
        assert out.p0 == pytest.approx(sps2.p0, abs=1e-15)

    def test_zero_collection_is_vacuum(self, sps2: PhotonDistribution):
        assert apply_collection(sps2, 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_half_collection_worked_example(self):
        d = apply_collection(PhotonDistribution(0.3, 0.5, 0.2), 0.5)
        assert d.p2 == pytest.approx(0.05, abs=1e-15)
        assert d.p1 == pytest.approx(0.35, abs=1e-15)
        assert d.p0 == pytest.approx(0.60, abs=1e-15)

    @given(distributions(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_matches_per_photon_binomial_thinning(self, d, eta):
        thinned = [0.0, 0.0, 0.0, 0.0]
        for n, pn in enumerate(d.as_tuple()):
            for k in range(n + 1):
                thinned[k] += (pn * math.comb(n, k) * eta**k
                               * (1.0 - eta) ** (n - k))
        out = apply_collection(d, eta)
        for got, ref in zip(out.as_tuple(), thinned):
            assert got == pytest.approx(ref, abs=1e-12)

    @given(distributions(max_p3=0.2), st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=100)
    def test_thinning_preserves_g2(self, d, eta):
        # factorial moments scale as eta^k, so the ratio is invariant
        if mean_photon_number(d) < 1e-6:
            return
        assert g2_of(apply_collection(d, eta)) == pytest.approx(
            g2_of(d), rel=1e-9)


class TestDistributionArrays:
    @given(st.lists(distributions(max_p3=0.2), min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_array_collection_equals_the_scalar_form(self, ds, eta):
        probs = np.array([d.as_tuple() for d in ds]).T
        out = apply_collection_array(probs, eta)
        assert [tuple(col) for col in out.T] == [
            apply_collection(d, eta).as_tuple() for d in ds]

    @given(distributions(max_p3=0.2),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=8))
    @settings(max_examples=100)
    def test_per_column_collection_equals_the_scalar_form(self, d, etas):
        probs = np.repeat(np.array([d.as_tuple()]).T, len(etas), axis=1)
        out = apply_collection_array(probs, np.array(etas))
        assert [tuple(col) for col in out.T] == [
            apply_collection(d, eta).as_tuple() for eta in etas]

    @pytest.mark.parametrize("eta", [1.5, -0.1, math.nan])
    def test_scalar_collection_checks_eta(self, eta):
        with pytest.raises(ValueError, match=ETA_C_RANGE):
            apply_collection(PhotonDistribution(1.0, 0.0, 0.0), eta)

    def test_array_collection_checks_eta(self):
        for eta in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=ETA_C_RANGE):
                apply_collection_array(np.array([[1.0], [0.0], [0.0], [0.0]]),
                                       eta)

    @pytest.mark.parametrize("eta", [[0.5, 1.5], [0.5, float("nan")],
                                     [-0.1, 0.5]])
    def test_array_collection_checks_each_eta(self, eta):
        with pytest.raises(ValueError, match=ETA_C_RANGE):
            apply_collection_array(np.array([[1.0, 1.0], [0.0, 0.0],
                                             [0.0, 0.0], [0.0, 0.0]]),
                                   np.array(eta))

    @pytest.mark.parametrize("column", [
        (0.5, 0.5, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.2, 0.3, 0.4, 0.1)])
    def test_valid_columns_pass(self, column):
        probs = np.array([(0.3, 0.5, 0.2, 0.0), column]).T
        assert check_distribution_array(probs) is probs

    @pytest.mark.parametrize("column", [
        (0.5, 0.6, -0.1, 0.0), (float("nan"), 1.0, 0.0, 0.0),
        (0.0, 1.0 + 1e-11, 0.0, 0.0), (0.5, 0.4, 0.0, 0.0),
        (0.5, 0.5, 1e-8, 0.0)])
    def test_rejects_exactly_what_the_dataclass_rejects(self, column):
        with pytest.raises(ValueError):
            PhotonDistribution(*column)
        with pytest.raises(ValueError):
            check_distribution_array(np.array([(0.3, 0.5, 0.2, 0.0), column]).T)

    weight = st.one_of(st.floats(min_value=-0.2, max_value=1.2),
                       st.sampled_from([math.nan, math.inf, -1e-11]))

    @given(st.lists(st.one_of(distributions(max_p3=0.2).map(
        PhotonDistribution.as_tuple), st.tuples(weight, weight, weight,
                                                weight)),
                    min_size=1, max_size=6))
    # a bad sum before a bad weight: the whole-array range check raised first
    @example([(0.5, 0.4, 0.0, 0.0), (-0.5, 1.0, 0.5, 0.0)])
    @settings(max_examples=200)
    def test_raises_as_a_loop_of_dataclass_calls(self, first_error, columns):
        probs = np.array(columns, dtype=float).T
        assert first_error([lambda: check_distribution_array(probs)]) == (
            first_error([lambda c=c: PhotonDistribution(*c)
                         for c in columns]))


class TestHpTransform:
    def test_dark_count_free_herald(self):
        p1t, p2t = hp_transform(PhotonDistribution(0.573, 0.0, 0.427),
                                t=0.5, eta_d=1.0, p_dc=0.0)
        assert p1t == pytest.approx(0.2135, abs=1e-12)
        assert p2t == 0.0

    def test_two_photon_leakage_needs_a_false_herald(self):
        _, p2t = hp_transform(PhotonDistribution(0.115, 0.458, 0.427),
                              t=0.5, eta_d=0.9, p_dc=2e-7)
        assert p2t == pytest.approx(0.25 * 0.427 * 2e-7, rel=1e-12)
        assert p2t < 1e-7

    def test_three_photon_input_rejected(self):
        d = PhotonDistribution(0.9, 0.0, 0.05, 0.05)
        with pytest.raises(ValueError):
            hp_transform(d, 0.5, 0.9, 0.0)

    @pytest.mark.parametrize("fn", [hp_transform, hp_herald_probability])
    @pytest.mark.parametrize("d, t, eta_d, p_dc, message", [
        ((0.3, 0.4, 0.3), 2.0, 0.8, 0.05, "beam-splitter transmission"),
        ((0.3, 0.4, 0.3), 0.6, 1.7, 0.05, "eta_d"),
        ((0.3, 0.4, 0.3), 0.6, 0.8, -3.0, "p_dc"),
        ((0.3, 0.4, 0.3), 0.6, math.nan, 0.05, "eta_d"),
        ((0.9, 0.0, 0.05, 0.05), 0.5, 0.9, 0.0, "basis")])
    def test_settings_and_basis_are_checked(self, fn, d, t, eta_d, p_dc,
                                            message):
        # the herald probability returned -0.89, 0.65 and -1.59 for the
        # first three
        with pytest.raises(ValueError, match=message):
            fn(PhotonDistribution(*d), t, eta_d, p_dc)

    unit =st.floats(min_value=0.0, max_value=1.0)

    @given(st.lists(st.tuples(distributions(), unit, unit), min_size=1,
                    max_size=6), unit, st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=100)
    def test_array_form_equals_the_scalar_form(self, rows, eta_d, p_dc):
        # per-column t and eta_d, one shared dark-count probability, at most
        # 1/2: from (sqrt(5) - 1) / 2 on, p1~ + p2~ can pass 1
        probs = np.array([d.as_tuple() for d, _, _ in rows]).T
        t = np.array([t for _, t, _ in rows])
        etas = np.array([e for _, _, e in rows])
        p1t, p2t = hp_effective_array(probs, t, etas, p_dc)[1:3]
        assert list(zip(p1t.tolist(), p2t.tolist())) == [
            hp_transform(d, t, e, p_dc) for d, t, e in rows]
        p1t, p2t = hp_effective_array(probs, 0.5, eta_d, p_dc)[1:3]
        assert list(zip(p1t.tolist(), p2t.tolist())) == [
            hp_transform(d, 0.5, eta_d, p_dc) for d, _, _ in rows]

    @pytest.mark.parametrize("t, eta_d, p_dc, message", [
        ([0.5, 1.5], 0.9, 0.0, "beam-splitter transmission"),
        (0.5, [0.9, math.nan], 0.0, "eta_d"),
        (0.5, 0.9, -1e-3, "p_dc")])
    def test_array_form_checks_each_setting(self, t, eta_d, p_dc, message):
        probs = np.array([(0.5, 0.2, 0.3, 0.0), (0.6, 0.1, 0.3, 0.0)]).T
        with pytest.raises(ValueError, match=message):
            hp_effective_array(probs, np.array(t), np.array(eta_d), p_dc)

    setting = st.one_of(st.floats(min_value=-0.5, max_value=1.5),
                        st.just(math.nan))

    @given(st.lists(st.tuples(distributions(max_p3=0.1), setting, setting,
                              setting), min_size=1, max_size=6),
           st.booleans())
    # a bad eta_d before a bad t: the per-setting checks raised for t first
    @example([(PhotonDistribution(0.5, 0.5, 0.0), 0.5, 2.0, 0.0),
              (PhotonDistribution(0.5, 0.5, 0.0), 2.0, 0.5, 0.0)], False)
    # an effective p0 of -0.25 before a three-photon input
    @example([(PhotonDistribution(0.0, 0.0, 1.0), 0.5, 1.0, 1.0),
              (PhotonDistribution(0.9, 0.0, 0.05, 0.05), 0.5, 0.9, 0.0)],
             False)
    @settings(max_examples=200)
    def test_array_form_raises_as_a_loop_of_scalar_calls(self, first_error,
                                                         rows, shared_p_dc):
        # per-column t and eta_d; p_dc per column or the first row's for all
        probs = np.array([d.as_tuple() for d, _, _, _ in rows]).T
        t, eta_d, p_dc = (np.array(v) for v in list(zip(*rows))[1:])
        if shared_p_dc:
            p_dc = float(p_dc[0])
        scalar_p_dc = np.broadcast_to(p_dc, t.shape).tolist()
        assert first_error([lambda: hp_effective_array(probs, t, eta_d,
                                                        p_dc)]) == (
            first_error([lambda r=r, p=p: hp_effective_distribution(
                r[0], r[1], r[2], p) for r, p in zip(rows, scalar_p_dc)]))

    def test_array_form_rejects_three_photon_input(self):
        probs = np.array([(0.5, 0.2, 0.3, 0.0), (0.9, 0.0, 0.05, 0.05)]).T
        with pytest.raises(ValueError, match="basis"):
            hp_effective_array(probs, 0.5, 0.9, 0.0)

    def test_joint_frequencies_match_a_pulse_level_simulation(self):
        # split / herald / count, vectorized over four million pulses
        rng = np.random.default_rng(424242)
        d = PhotonDistribution(p0=0.3, p1=0.4, p2=0.3)
        t, eta_d, p_dc = 0.6, 0.8, 0.002
        n_trials = 4_000_000
        photons = rng.choice(3, size=n_trials, p=[d.p0, d.p1, d.p2])
        toward_bob = rng.binomial(photons, t)
        reflected = photons - toward_bob
        herald = (rng.binomial(reflected, eta_d) > 0) | (
            rng.random(n_trials) < p_dc)
        p1_hat = float(np.mean(herald & (toward_bob == 1)))
        p2_hat = float(np.mean(herald & (toward_bob == 2)))
        exact_p1 = (2 * d.p2 * t * (1 - t) * (eta_d + p_dc - eta_d * p_dc)
                    + d.p1 * t * p_dc)
        exact_p2 = d.p2 * t * t * p_dc
        sigma1 = math.sqrt(exact_p1 * (1 - exact_p1) / n_trials)
        sigma2 = math.sqrt(exact_p2 * (1 - exact_p2) / n_trials)
        assert abs(p1_hat - exact_p1) < 3.0 * sigma1
        assert abs(p2_hat - exact_p2) < 3.0 * sigma2
        # the closed form drops the eta_d*p_dc herald cross term; at
        # realistic dark rates that approximation stays below a percent
        p1t, p2t = hp_transform(d, t, eta_d, p_dc)
        assert p1t == pytest.approx(exact_p1, rel=1e-2)
        assert p2t == pytest.approx(exact_p2, rel=1e-12)

    @given(distributions(), unit, unit, unit)
    @settings(max_examples=500)
    def test_herald_probability_is_the_split_and_click_sum(self, d, t, eta_d,
                                                         p_dc):
        assert abs(hp_herald_probability(d, t, eta_d, p_dc)
                   - herald_by_enumeration(d, t, eta_d, p_dc)) <= 1e-15

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("eta_d", [0.0, 1.0])
    @given(d=distributions(), p_dc=st.sampled_from([0.0, 0.05]))
    def test_herald_probability_at_the_edges(self, t, eta_d, d, p_dc):
        assert abs(hp_herald_probability(d, t, eta_d, p_dc)
                   - herald_by_enumeration(d, t, eta_d, p_dc)) <= 1e-15

    def test_herald_probability_sums_the_click_tree(self):
        d = PhotonDistribution(p0=0.3, p1=0.4, p2=0.3)
        t, eta_d, p_dc = 0.6, 0.8, 0.05
        rng = np.random.default_rng(7)
        n_trials = 2_000_000
        photons = rng.choice(3, size=n_trials, p=[d.p0, d.p1, d.p2])
        reflected = photons - rng.binomial(photons, t)
        herald = (rng.binomial(reflected, eta_d) > 0) | (
            rng.random(n_trials) < p_dc)
        p_hat = float(np.mean(herald))
        p_ref = hp_herald_probability(d, t, eta_d, p_dc)
        sigma = math.sqrt(p_ref * (1 - p_ref) / n_trials)
        assert abs(p_hat - p_ref) < 3.0 * sigma


class TestSaturation:
    def test_mean_is_monotone_in_drive(self):
        model = SourceModel(alpha_times_is=1.0, qy_x=0.7, qy_xx=0.4)
        drives = np.linspace(0.0, 50.0, 400)
        means = [mean_photon_number(emission_distribution(model, s))
                 for s in drives]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_bisection_residual_at_unit_yields(self):
        alpha_is = saturation_power(1.0, 1.0)
        ex = excitation_probs(alpha_is)
        mean = ex.p_xx * 2.0 + ex.p_x
        assert abs(mean - 1.8) < 1e-10

    def test_scaling_both_yields_keeps_the_saturation_point(self):
        assert saturation_power(0.3, 0.2) == pytest.approx(
            saturation_power(0.6, 0.4), abs=1e-12)


class TestFitSourceModel:
    def test_noiseless_curve_recovers_the_generator(self):
        truth = SourceModel(alpha_times_is=4.2, qy_x=0.62, qy_xx=0.38)
        s = np.linspace(0.1, 2.5, 12)
        counts = np.array([
            mean_photon_number(emission_distribution(truth, v)) for v in s])
        fit, nrmse = fit_source_model(s, counts / (truth.qy_x + truth.qy_xx))
        assert fit.alpha_times_is == pytest.approx(4.2, abs=1e-6)
        assert fit.qy_x == pytest.approx(0.62, abs=1e-6)
        assert nrmse < 1e-9

    def test_one_percent_noise_keeps_the_error_small(self):
        truth = SourceModel(alpha_times_is=4.2, qy_x=0.62, qy_xx=0.38)
        rng = np.random.default_rng(11)
        s = np.linspace(0.1, 2.5, 24)
        clean = np.array([
            mean_photon_number(emission_distribution(truth, v)) for v in s])
        noisy = clean + rng.normal(0.0, 0.01, clean.size)
        _, nrmse = fit_source_model(s, noisy)
        assert nrmse < 0.02

    def test_bundled_curve_meets_the_quality_target(self):
        path = resources.files("spsqkd").joinpath("fixtures/saturation.json")
        doc = json.loads(path.read_text())
        _, nrmse = fit_source_model(np.array(doc["s"]),
                                    np.array(doc["normalized_counts"]))
        assert nrmse <= 0.012

    @pytest.mark.parametrize("seed", range(20))
    def test_no_worse_than_a_bounded_least_squares_oracle(self, seed):
        from scipy.optimize import least_squares

        rng = np.random.default_rng(seed)
        a, beta = rng.uniform(0.1, 30.0), rng.uniform(0.0, 1.0)
        noise = rng.uniform(0.0, 0.03)
        s = np.linspace(0.1, 2.5, 24)
        x = a * s
        counts = ((x * x + beta * x) / (1.0 + x + x * x)
                  + rng.normal(0.0, noise, s.size))
        _, nrmse = fit_source_model(s, counts)

        def residuals(theta):
            x = theta[0] * s
            return (x * x + theta[1] * x) / (1.0 + x + x * x) - counts

        oracle = least_squares(residuals, x0=[saturation_power(0.5, 0.5), 0.5],
                               bounds=([1e-6, 0.0], [1e6, 1.0]))
        span = counts.max() - counts.min()
        assert nrmse <= np.sqrt(np.mean(oracle.fun**2)) / span + 1e-9

    def test_flat_counts_rejected(self):
        from spsqkd.errors import FitError

        with pytest.raises(FitError):
            fit_source_model(np.array([0.1, 0.5, 1.0, 2.0]),
                             np.array([0.4, 0.4, 0.4, 0.4]))

    def test_all_zero_powers_rejected(self):
        from spsqkd.errors import FitError

        with pytest.raises(FitError):
            fit_source_model(np.zeros(3), np.array([0.1, 0.2, 0.3]))


class TestSerialization:
    def test_distribution_round_trip(self, sps1: PhotonDistribution):
        assert PhotonDistribution.from_dict(sps1.to_dict()) == sps1
        assert set(sps1.to_dict()) == {"p0", "p1", "p2", "p3"}

    def test_source_model_round_trip(self):
        model = SourceModel(alpha_times_is=5.0, qy_x=0.8, qy_xx=0.3)
        assert SourceModel.from_dict(model.to_dict()) == model
        assert set(model.to_dict()) == {"alpha_times_is", "qy_x", "qy_xx"}

    def test_bundled_sources_are_valid_distributions(self, bundled_sources):
        assert {"sps1", "sps2", "perfect"} <= set(bundled_sources)
        for d in bundled_sources.values():
            assert sum(d.as_tuple()) == pytest.approx(1.0, abs=1e-9)

    def test_unnormalized_distribution_rejected(self):
        with pytest.raises(ValueError):
            PhotonDistribution(p0=0.57, p1=0.3231, p2=0.1114)


NAN = math.nan
SAT = np.array([0.1, 0.5, 1.0])  # saturation-curve powers


class TestArgumentChecks:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: SourceModel(0.0, 0.5, 0.5), ValueError,
         "alpha_times_is must be positive"),
        (lambda: SourceModel(1.0, 1.5, 0.5), ValueError,
         "qy_x=1.5 must lie in [0, 1]"),
        (lambda: SourceModel(1.0, 0.5, -0.1), ValueError,
         "qy_xx=-0.1 must lie in [0, 1]"),
        (lambda: cascade_distribution(ExcitationProbs(1.5, 0.0), 0.5, 0.5),
         ValueError, "p_xx=1.5 must lie in [0, 1]"),
        (lambda: cascade_distribution(ExcitationProbs(0.5, 0.5), NAN, 0.5),
         ValueError, "qy_x=nan must lie in [0, 1]"),
        (lambda: cascade_distribution(ExcitationProbs(0.6, 0.5), 0.5, 0.5),
         ValueError, "occupation probabilities exceed 1"),
        (lambda: emission_distribution(SourceModel(1.0, 1.0, 1.0), -1.0),
         ValueError, "pump power must be non-negative"),
        (lambda: emission_distribution(SourceModel(1.0, 1.0, 1.0), NAN),
         ValueError, "pump power must be non-negative"),
        (lambda: g3_of(PhotonDistribution(1.0, 0.0, 0.0)), ValueError,
         "g3 is undefined for a vacuum distribution"),
        (lambda: extract_p0(-1.0, 2e6, 0.01), ValueError,
         "count rate, repetition rate and efficiency must be physical"),
        (lambda: extract_p0(100.0, 0.0, 0.01), ValueError,
         "count rate, repetition rate and efficiency must be physical"),
        (lambda: extract_p0(100.0, 2e6, 0.0), ValueError,
         "count rate, repetition rate and efficiency must be physical"),
        # non-finite rates: p0 = 1.0 from an infinite repetition rate, and
        # p0 = nan or -inf from the others, without this rule
        (lambda: extract_p0(1.0, math.inf, 0.05), ValueError,
         "count rate, repetition rate and efficiency must be physical"),
        (lambda: extract_p0(100.0, NAN, 0.01), ValueError,
         "count rate, repetition rate and efficiency must be physical"),
        (lambda: extract_p0(NAN, 2e6, 0.01), ValueError,
         "count rate, repetition rate and efficiency must be physical"),
        (lambda: extract_p0(math.inf, 2e6, 0.01), ValueError,
         "count rate, repetition rate and efficiency must be physical"),
        (lambda: extract_distribution_g2(1.0, 0.5), ValueError,
         "p0 must lie in [0, 1)"),
        (lambda: extract_distribution_g2(0.5, -0.1), ValueError,
         "g2 must be non-negative"),
        (lambda: extract_distribution_g2(0.5, NAN), ValueError,
         "g2 must be non-negative"),
        (lambda: extract_distribution_g3(-0.1, 0.5, 0.1), ValueError,
         "p0 must lie in [0, 1)"),
        (lambda: extract_distribution_g3(0.5, -0.1, 0.1), ValueError,
         "g2 must be non-negative"),
        (lambda: extract_distribution_g3(0.5, 0.5, -0.1), ValueError,
         "g3 must be non-negative"),
        (lambda: extract_distribution_g3(0.5, 0.5, NAN), ValueError,
         "g3 must be non-negative"),
        # above the {0,1,2} ceiling, where no root of the cubic has
        # non-negative weights
        (lambda: extract_distribution_g3(0.5, 10.0, 1.0),
         InfeasibleObservablesError,
         "no {0,1,2,3} distribution has p0=0.5, g2=10.0, g3=1.0"),
        # below it, where the weights that match are not all non-negative
        (lambda: extract_distribution_g3(0.0, 0.005, 0.1),
         InfeasibleObservablesError,
         "inversion of p0=0.0, g2=0.005, g3=0.1 leaves the simplex"),
        (lambda: saturation_power(1.5, 0.5), ValueError,
         "quantum yields must lie in [0, 1]"),
        (lambda: saturation_power(0.5, NAN), ValueError,
         "quantum yields must lie in [0, 1]"),
        (lambda: saturation_power(0.0, 0.0), ValueError,
         "at least one quantum yield must be positive"),
        (lambda: fit_source_model(SAT[:2], SAT[:2]), FitError,
         "need matching 1-d arrays with at least 3 samples"),
        (lambda: fit_source_model(SAT, np.append(SAT, 2.0)), FitError,
         "need matching 1-d arrays with at least 3 samples"),
        (lambda: fit_source_model(np.array([-0.1, 0.5, 1.0]), SAT), FitError,
         "powers must be non-negative and finite"),
        (lambda: fit_source_model(np.array([0.1, 0.5, NAN]), SAT), FitError,
         "powers must be non-negative and finite"),
        (lambda: fit_source_model(SAT, np.array([0.1, 0.5, math.inf])),
         FitError, "powers must be non-negative and finite"),
    ])
    def test_each_check_raises_its_own_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_a_large_detection_efficiency_is_flagged(self):
        with pytest.warns(UserWarning, match="eta_detection=0.5 is too large"):
            assert extract_p0(1e5, 2e6, 0.5) == pytest.approx(0.9, abs=1e-15)
