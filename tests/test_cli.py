"""Command-line surface: argument handling, CSV/JSON contracts, determinism.

Every test drives ``main`` in-process with an explicit argv, so failures
point at the command layer rather than at subprocess plumbing.
"""

import argparse
import hashlib
import io
import json
import math
import re
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spsqkd import __version__, analysis, cli
from spsqkd.analysis import (GammaMap, dtb_rate_fn, gamma_map_dtb, mcl,
                             wcs_mcl, wcs_rate_fn)
from spsqkd.cli import (MAX_EFFICIENCIES, MAX_GRID, MAX_LOSSES, MAX_WEIGHTS,
                        load_channel, main)
from spsqkd.errors import ConfigError
from spsqkd.ingest import maps_from_report, skr_from_experiment, write_tomography_csv
from spsqkd.montecarlo import MAX_PULSES, SimConfig, run_dtb
from spsqkd.photon_source import PhotonDistribution
from spsqkd.protocols import DEFAULT_ETA_D, DEFAULT_Q_SIFT, DEFAULT_T

CONFIG_LINE = re.compile(r"# config [0-9a-f]{12}")


def parse_csv(text: str):
    """Split CLI CSV output into (config line, header, rows, footer)."""
    lines = text.splitlines()
    assert lines[0] == f"# spsqkd {__version__}"
    assert CONFIG_LINE.fullmatch(lines[1]), lines[1]
    header = tuple(lines[2].split(","))
    rows, footer = [], {}
    for line in lines[3:]:
        if line.startswith("# "):
            key, value = line[2:].split(" = ")
            footer[key] = float(value)
        else:
            rows.append(tuple(float(v) for v in line.split(",")))
    return lines[1], header, rows, footer


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"spsqkd {__version__}"

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["skr-curve", "--protocol", "wcs"], 0),
        (["gamma-map", "--grid", "1"], 1)])
    def test_module_run_as_a_script_exits_with_the_code_of_main(
            self, capsys, monkeypatch, argv, code):
        # python -m spsqkd.cli, in process; runpy warns that the package
        # has imported the module already
        want = invoke(capsys, argv)
        monkeypatch.setattr(sys, "argv", ["spsqkd.cli"] + argv)
        with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
                pytest.raises(SystemExit) as exc:
            runpy.run_module("spsqkd.cli", run_name="__main__")
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == want
        assert want[0] == code

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


@pytest.mark.parametrize("value, text", [
    (math.nan, "nan"), (math.copysign(math.nan, -1.0), "nan"),
    (np.float64(np.nan), "nan"), (np.copysign(np.float64(np.nan), -1.0), "nan"),
    (float(np.copysign(np.float64(np.nan), -1.0)), "nan"),
    (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0.0"),
    (1e-5, "1e-05"), (1e16, "1e+16"), (0.1 + 0.2, "0.30000000000000004"),
    (np.float64(0.1), "0.1"), (7, "7"), ("sps1", "sps1")])
def test_cell_format(value, text):
    assert cli._fmt(value) == text


def test_csv_rows_are_written_as_they_come(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written = []

    def lines():
        for k in range(3):
            written.append(out.getvalue())
            yield str(k)

    cli.write_csv("-", {}, ("k",), lines(), {"end": 1.0})
    assert out.getvalue().splitlines()[2:] == ["k", "0", "1", "2",
                                               "# end = 1.0"]
    # each row follows the header and the rows before it onto the output
    assert [text.splitlines()[-1] for text in written] == ["k", "0", "1"]


def _cells_one_by_one(gmap):
    """The map's rows as the per-cell rule writes them."""
    return ["\n".join(",".join(map(cli._fmt, (p1, p2, g)))
                      for p2, g in zip(gmap.p2, g_row))
            for p1, g_row in zip(gmap.p1, gmap.gamma_db)]


# a NaN with a payload, beside the plain NaNs of either sign
_NAN_PAYLOAD = float(np.array(0x7FF8000000000001).view(np.float64))
_MAP_VALUES = [0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, math.inf,
               -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
               25 / 4096, -25 / 4096, 0.1 + 0.2, 1e16]


@st.composite
def _small_maps(draw):
    """Hand-built maps of 1 to 4 points per axis.  Each axis value and
    cell is any float or one of a few special values (signed zeros and
    NaNs, infinities, subnormals), which then repeat within and across
    rows."""
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from(_MAP_VALUES), st.floats())
    p1, p2, gamma = (draw(st.lists(value, min_size=size, max_size=size))
                     for size in (n1, n2, n1 * n2))
    return GammaMap(p1=np.array(p1), p2=np.array(p2),
                    gamma_db=np.array(gamma).reshape(n1, n2), wcs_mcl_db=0.0)


def _unit_map(gamma):
    """A map of these gammas on evenly spaced axes over [0, 1]."""
    gamma = np.array(gamma, dtype=float)
    return GammaMap(p1=np.linspace(0.0, 1.0, gamma.shape[0]),
                    p2=np.linspace(0.0, 1.0, gamma.shape[1]),
                    gamma_db=gamma, wcs_mcl_db=0.0)


class TestMapRows:
    @settings(max_examples=300, deadline=None)
    @given(_small_maps())
    @example(_unit_map([[math.inf]]))
    @example(_unit_map([[-math.inf, 1.5]]))
    @example(_unit_map([[1.5], [math.nan]]))
    @example(_unit_map([[1.5, 5e-324], [5e-324, 1.5]]))
    def test_rows_format_each_cell_as_the_cell_rule(self, gmap):
        assert list(cli._map_rows(gmap)) == _cells_one_by_one(gmap)

    def test_signed_zeros_and_nans(self):
        gmap = GammaMap(p1=np.array([0.0, -0.0]), p2=np.array([1.0, 2.0]),
                        gamma_db=np.array([[0.0, -0.0],
                                           [-math.nan, -0.0]]),
                        wcs_mcl_db=0.0)
        assert list(cli._map_rows(gmap)) == ["0.0,1.0,0.0\n0.0,2.0,-0.0",
                                             "-0.0,1.0,nan\n-0.0,2.0,-0.0"]

    def test_cmd_gamma_map_writes_each_row_before_the_next_is_built(
            self, monkeypatch):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        built = []

        class Axis(np.ndarray):
            # each p1 value is taken as its row is built
            def tolist(self):
                for value in self.view(np.ndarray).tolist():
                    built.append(out.getvalue())
                    yield value

        gmap = GammaMap(p1=np.array([0.0, 0.5, 1.0]).view(Axis),
                        p2=np.array([0.0, 1.0]),
                        gamma_db=np.array([[1.0, 2.0], [1.0, math.nan],
                                           [math.nan, math.nan]]),
                        wcs_mcl_db=0.0)
        monkeypatch.setattr(cli, "gamma_map_dtb", lambda *a, **kw: gmap)
        assert main(["gamma-map", "--grid", "3"]) == 0
        assert out.getvalue().splitlines()[2:9] == [
            "p1,p2,gamma_db", "0.0,0.0,1.0", "0.0,1.0,2.0", "0.5,0.0,1.0",
            "0.5,1.0,nan", "1.0,0.0,nan", "1.0,1.0,nan"]
        # each row follows the header and the rows before it onto the output
        assert [text.splitlines()[-1] for text in built] == [
            "p1,p2,gamma_db", "0.0,1.0,2.0", "0.5,1.0,nan"]


class TestSkrCurve:
    def test_csv_preamble_and_grid_shape(self, capsys):
        code, out, err = invoke(capsys, ["skr-curve", "--protocol", "wcs"])
        assert code == 0 and err == ""
        _, header, rows, footer = parse_csv(out)
        assert header == ("loss_db", "skr")
        assert len(rows) == 81  # 0..40 dB in half-dB steps, inclusive
        assert rows[0][0] == 0.0 and rows[-1][0] == 40.0
        assert "mcl_db" in footer

    def test_rates_decrease_until_the_cutoff(self, capsys):
        _, out, _ = invoke(capsys, ["skr-curve", "--protocol", "wcs"])
        _, _, rows, footer = parse_csv(out)
        skr = [r[1] for r in rows]
        assert skr[0] > 0.0
        assert all(a >= b for a, b in zip(skr, skr[1:]))
        assert all(r[1] == 0.0 for r in rows if r[0] > footer["mcl_db"])

    def test_footer_cutoff_matches_the_direct_search(self, capsys, sps1):
        _, out, _ = invoke(capsys, [
            "skr-curve", "--protocol", "dtb", "--source", "sps1",
            "--loss-min", "0", "--loss-max", "2", "--loss-step", "1"])
        _, _, rows, footer = parse_csv(out)
        assert len(rows) == 3
        channel = load_channel("channel")
        assert footer["mcl_db"] == mcl(dtb_rate_fn(sps1, channel))

    @pytest.mark.parametrize("argv, cutoff_db", [
        (["--protocol", "wcs"], 39.1571044921875),
        (["--protocol", "dtb", "--source", "sps1"], 41.8731689453125),
        (["--protocol", "hp", "--source", "sps2"], 38.2415771484375),
        (["--protocol", "perfect-sps"], 45.3094482421875),
    ])
    def test_golden_cutoffs(self, capsys, argv, cutoff_db):
        _, out, _ = invoke(capsys, [
            "skr-curve", "--loss-min", "0", "--loss-max", "1",
            "--loss-step", "1"] + argv)
        _, _, _, footer = parse_csv(out)
        assert footer["mcl_db"] == cutoff_db

    def test_sifting_factor_scales_rates_but_not_the_cutoff(self, capsys):
        _, full, _ = invoke(capsys, ["skr-curve", "--protocol", "wcs",
                                     "--loss-max", "10"])
        _, scaled, _ = invoke(capsys, ["skr-curve", "--protocol", "wcs",
                                       "--loss-max", "10", "--q-sift", "0.4"])
        line_a, _, rows_a, footer_a = parse_csv(full)
        line_b, _, rows_b, footer_b = parse_csv(scaled)
        assert line_a != line_b  # config hash covers every knob
        assert footer_a["mcl_db"] == footer_b["mcl_db"]
        for (_, ra), (_, rb) in zip(rows_a, rows_b):
            assert rb == pytest.approx(0.8 * ra, rel=1e-12)

    def test_source_accepted_as_json_path(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"p0": 0.0, "p1": 1.0, "p2": 0.0}))
        _, out, _ = invoke(capsys, [
            "skr-curve", "--protocol", "dtb", "--source", str(path),
            "--loss-min", "0", "--loss-max", "1", "--loss-step", "1"])
        _, _, _, footer = parse_csv(out)
        assert footer["mcl_db"] == 45.3094482421875

    def test_dtb_without_source_fails_cleanly(self, capsys):
        code, out, err = invoke(capsys, ["skr-curve", "--protocol", "dtb"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "requires --source" in err

    def test_unknown_fixture_name_fails_cleanly(self, capsys):
        code, _, err = invoke(capsys, ["skr-curve", "--protocol", "dtb",
                                       "--source", "nosuch"])
        assert code == 1
        assert "unknown source fixture" in err

    def test_fields_left_out_of_a_fixture_read_as_zero(self, capsys,
                                                       tmp_path):
        # no p2/p3 in the source, no loss_db in the channel
        source, channel = tmp_path / "one.json", tmp_path / "rx.json"
        source.write_text(json.dumps({"p0": 0.0, "p1": 1.0}))
        channel.write_text(json.dumps({"eta_bob": 0.045, "p_dc": 2e-7,
                                       "e_d": 0.033}))
        code, out, _ = invoke(capsys, [
            "skr-curve", "--protocol", "dtb", "--source", str(source),
            "--channel", str(channel), "--loss-min", "0", "--loss-max", "1",
            "--loss-step", "1"])
        assert code == 0
        assert parse_csv(out)[3]["mcl_db"] == 45.3094482421875

    def test_malformed_fixture_field_fails_cleanly(self, capsys, tmp_path):
        source = tmp_path / "bad.json"
        source.write_text(json.dumps({"p0": 0.0, "p1": None}))
        code, out, err = invoke(capsys, ["skr-curve", "--protocol", "dtb",
                                         "--source", str(source)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: source {str(source)!r}: ")
        assert err.count("\n") == 1

    def test_a_source_file_that_is_not_text_fails_naming_it(self, capsys,
                                                           tmp_path):
        # its UnicodeDecodeError escaped as an error without the file
        source = tmp_path / "bad.json"
        source.write_bytes(b'{"p0": 1.0}\xff')
        code, out, err = invoke(capsys, ["skr-curve", "--protocol", "dtb",
                                         "--source", str(source)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: source file {source} is not valid "
                              "JSON: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_file_output_matches_stdout_and_repeats_byte_identically(
            self, capsys, tmp_path):
        argv = ["skr-curve", "--protocol", "wcs", "--loss-max", "5"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        _, out, _ = invoke(capsys, argv)
        assert out == first.read_text()

    # SHA-256 of the output after its version line, recorded before the
    # laser curve was searched in lockstep; never re-record them
    @pytest.mark.parametrize("flags, digest", [
        ([], "a2afb936a6d2e9d5f6599911f84f0d510cdb6d118aaed05ac9b3f966ff0b9e15"),
        (["--q-sift", "0.4"],
         "dd79dc9f59fa6418b69d9101c8496b8392af24b4a6d4895cc8ed07874124d618")],
        ids=["bundled", "q-sift-0.4"])
    def test_laser_curve_bytes_are_pinned(self, capsys, flags, digest):
        code, out, err = invoke(capsys, ["skr-curve", "--protocol", "wcs",
                                         "--loss-step", "0.05"] + flags)
        assert code == 0 and err == ""
        body = out.split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == digest

    @pytest.mark.parametrize("protocol", ["wcs", "perfect-sps"])
    def test_no_key_prints_zero_rates_and_a_nan_cutoff(self, capsys,
                                                       tmp_path, protocol):
        channel = tmp_path / "noisy.json"
        channel.write_text(json.dumps({"eta_bob": 0.045, "p_dc": 2e-7,
                                       "e_d": 0.3}))
        code, out, err = invoke(capsys, [
            "skr-curve", "--protocol", protocol, "--channel", str(channel),
            "--loss-max", "2", "--loss-step", "1"])
        assert code == 0 and err == ""
        _, _, rows, footer = parse_csv(out)
        assert rows == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        assert math.isnan(footer["mcl_db"])


class TestGammaMap:
    def test_small_grid_structure(self, capsys):
        _, out, _ = invoke(capsys, ["gamma-map", "--grid", "8"])
        _, header, rows, footer = parse_csv(out)
        assert header == ("p1", "p2", "gamma_db")
        assert len(rows) == 64
        assert footer["wcs_mcl_db"] == wcs_mcl(load_channel("channel"))
        assert {"fit_slope", "fit_intercept"} <= footer.keys()

    @pytest.mark.parametrize("eta_c", [1.0, 0.8])
    @pytest.mark.parametrize("n", [8, 41])
    def test_rows_are_the_map_formatted_point_by_point(self, capsys, n, eta_c):
        # eta_c < 1 takes the apply_collection path; both grids hold no-key
        # NaN cells inside the simplex as well as the p1 + p2 > 1 corner
        _, out, _ = invoke(capsys, ["gamma-map", "--grid", str(n),
                                    "--eta-c", str(eta_c)])
        gmap = gamma_map_dtb(load_channel("channel"), eta_c=eta_c, n=n)
        inside = gmap.p1[:, None] + gmap.p2[None, :] <= 1.0
        assert np.isnan(gmap.gamma_db[inside]).any()
        rows = [",".join(cli._fmt(v) for v in
                         (gmap.p1[i], gmap.p2[j], gmap.gamma_db[i, j]))
                for i in range(n) for j in range(n)]
        slope, intercept = gmap.fit_zero_contour()
        footer = [f"# wcs_mcl_db = {cli._fmt(gmap.wcs_mcl_db)}",
                  f"# fit_slope = {cli._fmt(slope)}",
                  f"# fit_intercept = {cli._fmt(intercept)}"]
        assert out.splitlines()[2:] == ["p1,p2,gamma_db"] + rows + footer

    @pytest.mark.parametrize("eta_c", [1.0, 0.8])
    def test_gammas_are_whole_grid_steps_within_the_cap(self, eta_c):
        # _map_rows formats each distinct gamma once; the table stays small
        # because every gamma is a difference of two MCLs on one dyadic
        # grid, a whole number of 25/4096 dB steps (MCL_TOL_DB 0.01) within
        # the 200 dB cap: at most 65,537 values
        g = gamma_map_dtb(load_channel("channel"), eta_c=eta_c, n=25).gamma_db
        steps = g[np.isfinite(g)] / (25 / 4096)
        assert steps.size > 0
        assert np.array_equal(steps, np.round(steps))
        assert np.abs(steps).max() <= 200 / (25 / 4096)

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "0"], "the grid needs n >= 2 points per axis"),
        (["--grid", "-3"], "the grid needs n >= 2 points per axis"),
        (["--grid", str(MAX_GRID + 1)], f"--grid must be at most {MAX_GRID}"),
        (["--eta-c", "1.5"], "eta_c must lie in [0, 1]"),
        (["--eta-c", "-0.1"], "eta_c must lie in [0, 1]"),
        (["--eta-c", "nan"], "eta_c must lie in [0, 1]")])
    def test_out_of_range_grid_or_collection_fails_cleanly(self, capsys, argv,
                                                           message):
        code, out, err = invoke(capsys, ["gamma-map"] + argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_grid_cap_is_in_the_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["gamma-map", "--help"])
        assert f"2 to {MAX_GRID}" in capsys.readouterr().out

    def test_contour_fit_round_trips_through_the_csv(self, capsys):
        _, out, _ = invoke(capsys, ["gamma-map", "--grid", "40"])
        _, _, rows, footer = parse_csv(out)
        assert len(rows) == 1600
        slope, intercept = gamma_map_dtb(load_channel("channel"),
                                         n=40).fit_zero_contour()
        assert footer["fit_slope"] == slope
        assert footer["fit_intercept"] == intercept
        assert 1.0 < slope < 1.3
        assert 0.1 < intercept < 0.3
        # infeasible corner cells must survive the text round trip as NaN
        assert any(math.isnan(r[2]) for r in rows)
        assert any(r[2] > 2.0 for r in rows)


class TestOptimalT:
    def test_dark_free_sweep_pins_the_balanced_splitter(self, capsys):
        _, out, _ = invoke(capsys, ["optimal-t", "--p-dc", "0"])
        _, header, rows, _ = parse_csv(out)
        assert header == ("p2", "t_opt")
        assert len(rows) == 10
        assert rows[0][0] == 0.05 and rows[-1][0] == pytest.approx(0.5)
        assert all(r[1] == 0.5 for r in rows)

    # each weight's search after its first t starts from its MCL predicted
    # by its earlier probes (263 and 259 calls when it started from its
    # MCL at its last t); a search from zero loss at every t takes 550
    # calls over 50,050 columns for either p1
    @pytest.mark.parametrize("p1, calls, columns", [("0", 121, 8835),
                                                    ("0.2", 119, 8867)])
    def test_the_benchmark_sweep_costs_a_pinned_number_of_rate_calls(
            self, capsys, monkeypatch, p1, calls, columns):
        seen = []
        kernel = analysis.skr_hp_array

        def counted(eff, *args, **kwargs):
            seen.append(eff.shape[1])
            return kernel(eff, *args, **kwargs)

        monkeypatch.setattr(analysis, "skr_hp_array", counted)
        code, _, _ = invoke(capsys, [
            "optimal-t", "--p1", p1, "--p2-min", "0.05", "--p2-max", "0.5",
            "--p2-step", "0.005"])
        assert code == 0 and (len(seen), sum(seen)) == (calls, columns)

    @pytest.mark.parametrize("p_dc", ["2e-07", "0"])
    def test_rows_without_key_print_nan(self, capsys, tmp_path, p_dc):
        channel = tmp_path / "noisy.json"
        channel.write_text(json.dumps({"eta_bob": 0.045, "p_dc": 2e-7,
                                       "e_d": 0.2}))
        code, out, err = invoke(capsys, [
            "optimal-t", "--channel", str(channel), "--p-dc", p_dc,
            "--p2-min", "0.1", "--p2-max", "0.3", "--p2-step", "0.1"])
        assert code == 0 and err == ""
        assert [line.split(",")[1] for line in out.splitlines()[3:]] == \
            ["nan"] * 3


class TestGammaVsEta:
    def test_collection_sweep_crosses_break_even(self, capsys):
        _, out, _ = invoke(capsys, [
            "gamma-vs-eta", "--protocol", "dtb", "--axis", "eta-c",
            "--source", "sps1", "--eta-min", "0.2", "--eta-max", "0.4",
            "--eta-step", "0.1"])
        _, header, rows, _ = parse_csv(out)
        assert header == ("eta", "gamma_db")
        assert [r[0] for r in rows] == pytest.approx([0.2, 0.3, 0.4])
        gammas = [r[1] for r in rows]
        assert gammas[0] == pytest.approx(-1.1536, abs=0.02)
        assert gammas[0] < 0.0 < gammas[-1]
        assert gammas == sorted(gammas)

    def test_herald_sweep_smoke(self, capsys):
        _, out, _ = invoke(capsys, [
            "gamma-vs-eta", "--protocol", "hp", "--axis", "eta-d",
            "--source", "sps2", "--eta-min", "0.85", "--eta-max", "0.95",
            "--eta-step", "0.05"])
        _, _, rows, _ = parse_csv(out)
        assert len(rows) == 3
        gammas = [r[1] for r in rows]
        assert all(math.isfinite(g) for g in gammas)
        assert gammas == sorted(gammas)

    def test_axis_choice_is_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gamma-vs-eta", "--protocol", "dtb", "--axis", "eta-x",
                  "--source", "sps1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["skr-curve", "--protocol", "dtb", "--source", "sps1", "--loss-max", "1",
      "--loss-step", "1", "--q-sift", "-1"], "q_sift must lie in (0, 1]"),
    (["skr-curve", "--protocol", "dtb", "--source", "sps1", "--loss-max", "1",
      "--loss-step", "1", "--q-sift", "nan"], "q_sift must lie in (0, 1]"),
    (["skr-curve", "--protocol", "hp", "--source", "sps2", "--q-sift", "2"],
     "q_sift must lie in (0, 1]"),
    (["skr-curve", "--protocol", "wcs", "--q-sift", "0"],
     "q_sift must lie in (0, 1]"),
    (["gamma-map", "--grid", "4", "--q-sift", "-0.5"],
     "q_sift must lie in (0, 1]"),
    (["gamma-vs-eta", "--protocol", "hp", "--axis", "eta-d", "--source",
      "sps2", "--eta-c", "1.5"], "eta_c must lie in [0, 1]"),
    (["gamma-vs-eta", "--protocol", "hp", "--axis", "eta-d", "--source",
      "sps2", "--eta-c", "nan"], "eta_c must lie in [0, 1]"),
    (["gamma-vs-eta", "--protocol", "hp", "--axis", "eta-c", "--source",
      "sps2", "--q-sift", "1.01"], "q_sift must lie in (0, 1]"),
    (["optimal-t", "--p1", "nan"], "need p1 >= 0 and p1 + p2 <= 1")],
    ids=["skr-curve-negative-q-sift", "skr-curve-nan-q-sift",
         "skr-curve-hp-q-sift-2", "skr-curve-wcs-zero-q-sift",
         "gamma-map-q-sift", "gamma-vs-eta-eta-c-1.5", "gamma-vs-eta-nan-eta-c",
         "gamma-vs-eta-q-sift", "optimal-t-nan-p1"])
def test_out_of_range_setting_fails_cleanly(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


HERALD_COMMANDS = {
    "skr-curve": ["skr-curve", "--protocol", "hp", "--source", "sps2"],
    "optimal-t": ["optimal-t"],
    "gamma-vs-eta": ["gamma-vs-eta", "--protocol", "hp", "--axis", "eta-c",
                     "--source", "sps2"],
    "simulate": ["simulate", "--protocol", "hp", "--source", "sps2"]}
HERALD_RANGES = {"--t": ("t must lie in (0, 1)", ["0", "1", "-0.5", "nan"]),
                 "--eta-d": ("eta_d must lie in (0, 1]", ["0", "1.5", "nan"])}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command in HERALD_COMMANDS
    for flag in ("--t", "--eta-d") if (command, flag) != ("optimal-t", "--t")
    for value in HERALD_RANGES[flag][1]])
def test_herald_flags_outside_their_range_fail_cleanly(
        capsys, monkeypatch, command, flag, value):
    # rejected where the flags enter, before any command runs
    for name in ("_rate_fn", "optimal_bs_transmission",
                 "gamma_vs_efficiency", "run"):
        monkeypatch.setattr(cli, name, None)
    code, out, err = invoke(capsys, HERALD_COMMANDS[command] + [flag, value])
    assert code == 1 and out == ""
    assert err == f"error: {HERALD_RANGES[flag][0]}\n"


ALICE_DARK_COMMANDS = {
    "skr-curve-dtb": ["skr-curve", "--protocol", "dtb", "--source", "sps1"],
    "skr-curve-wcs": ["skr-curve", "--protocol", "wcs"],
    "skr-curve-perfect-sps": ["skr-curve", "--protocol", "perfect-sps"],
    "skr-curve-hp": HERALD_COMMANDS["skr-curve"],
    "gamma-vs-eta-dtb": ["gamma-vs-eta", "--protocol", "dtb", "--axis",
                         "eta-c", "--source", "sps1"],
    "gamma-vs-eta-hp": HERALD_COMMANDS["gamma-vs-eta"],
    "simulate-dtb": ["simulate", "--protocol", "dtb", "--source", "bare-s2"],
    "simulate-hp": HERALD_COMMANDS["simulate"]}


@pytest.mark.parametrize("value", ["5", "-1", "nan", "inf",
                                   "1.0000000000000002"])
@pytest.mark.parametrize("command", ALICE_DARK_COMMANDS)
def test_alice_dark_rate_outside_zero_one_fails_where_it_enters(
        capsys, monkeypatch, command, value):
    # every protocol that takes the flag rejects it before any command runs,
    # also those that never read it
    for name in ("_rate_fn", "gamma_vs_efficiency", "run"):
        monkeypatch.setattr(cli, name, None)
    code, out, err = invoke(capsys, ALICE_DARK_COMMANDS[command]
                            + ["--p-dc-alice", value])
    assert code == 1 and out == ""
    assert err == "error: p_dc_alice must lie in [0, 1]\n"


@pytest.mark.parametrize("value", ["0", "-0.0", "1", "0.5"])
def test_alice_dark_rate_in_zero_one_is_accepted(capsys, value):
    # dtb never reads it: the rows and footer are those without the flag
    argv = ["skr-curve", "--protocol", "dtb", "--source", "sps1",
            "--loss-max", "2"]
    code, out, err = invoke(capsys, argv + ["--p-dc-alice", value])
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == invoke(capsys, argv)[1].splitlines()[2:]


def refuse(*args, **kwargs):
    raise AssertionError("a rejected input reached the analysis")


# each sweep's command, flag name and point cap
SWEEP_COMMANDS = {
    "skr-curve": (["skr-curve", "--protocol", "wcs"], "loss", MAX_LOSSES),
    "optimal-t": (["optimal-t"], "p2", MAX_WEIGHTS),
    "gamma-vs-eta": (["gamma-vs-eta", "--protocol", "dtb", "--axis", "eta-c",
                      "--source", "sps1"], "eta", MAX_EFFICIENCIES)}


@pytest.mark.parametrize("flags, message", [
    (["--{0}-step", "0"], "--{0}-step must be positive and finite"),
    (["--{0}-step", "nan"], "--{0}-step must be positive and finite"),
    (["--{0}-min", "0.5", "--{0}-max", "0.1"],
     "--{0}-max must be at least --{0}-min"),
    (["--{0}-max", "inf"], "--{0}-min and --{0}-max must be finite"),
    (["--{0}-min", "0", "--{0}-max", "1", "--{0}-step", "1e-6"],
     "--{0} sweep exceeds {1} points")],
    ids=["zero-step", "nan-step", "reversed", "infinite-bound",
         "over-a-million-points"])
@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_bad_sweep_fails_cleanly(capsys, monkeypatch, command, flags,
                                 message):
    argv, name, cap = SWEEP_COMMANDS[command]

    # rejected before any point is evaluated or any list is built
    for fn in ("skr_curve", "optimal_bs_transmission", "gamma_vs_efficiency"):
        monkeypatch.setattr(cli, fn, refuse)
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, argv + [f.format(name) for f in flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == f"error: {message.format(name, cap)}\n"
    assert peak < 2**20


@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_sweep_point_cap_is_exact(monkeypatch, command):
    argv, name, cap = SWEEP_COMMANDS[command]
    args = argparse.Namespace(loss_min=0.0, loss_max=cap - 1.0,
                              loss_step=1.0)
    assert len(cli._sweep(args, "loss", cap)) == cap
    # one point over the cap, a span too large for int(), a span that overflows
    for lo, hi, step in ((0.0, float(cap), 1.0), (0.0, 1.0, 1e-320),
                         (-1e308, 1e308, 1.0)):
        args = argparse.Namespace(loss_min=lo, loss_max=hi, loss_step=step)
        with pytest.raises(ConfigError, match=f"exceeds {cap} points"):
            cli._sweep(args, "loss", cap)
    # the command's own cap: cap points reach its analysis, stubbed to
    # refuse so that no sweep runs
    for fn in ("skr_curve", "optimal_bs_transmission", "gamma_vs_efficiency"):
        monkeypatch.setattr(cli, fn, refuse)
    with pytest.raises(AssertionError, match="reached the analysis"):
        main(argv + [f"--{name}-min", "0", f"--{name}-step", "1",
                     f"--{name}-max", str(cap - 1)])


@pytest.mark.parametrize("argv, count, last", [
    (["skr-curve", "--protocol", "wcs", "--loss-max", "1", "--loss-step",
      "0.6"], 2, 0.6),
    (["gamma-vs-eta", "--protocol", "dtb", "--axis", "eta-c", "--source",
      "sps1", "--eta-step", "0.02"], 48, 0.05 + 47 * 0.02),
    (["optimal-t", "--p2-min", "0.9", "--p2-max", "1.0", "--p2-step",
      "0.06"], 2, 0.96)],
    ids=["skr-curve", "gamma-vs-eta", "optimal-t"])
def test_sweep_stops_at_its_max(capsys, argv, count, last):
    # a step that does not divide the span ends below --x-max, not past it
    code, out, err = invoke(capsys, argv)
    assert code == 0 and err == ""
    _, _, rows, _ = parse_csv(out)
    assert len(rows) == count
    assert rows[-1][0] == last


@pytest.mark.parametrize("name, flags, count", [
    ("loss", {}, 81), ("loss", {"step": 0.05}, 801), ("p2", {}, 10),
    ("p2", {"step": 0.005}, 91), ("eta", {}, 96), ("eta", {"step": 0.001}, 951)],
    ids=["skr-curve", "skr-curve-bench", "optimal-t", "optimal-t-bench",
         "gamma-vs-eta", "gamma-vs-eta-bench"])
def test_default_and_benchmark_sweeps_keep_their_points(name, flags, count):
    command = {"loss": ["skr-curve", "--protocol", "wcs"],
               "p2": ["optimal-t"],
               "eta": ["gamma-vs-eta", "--protocol", "dtb", "--axis",
                       "eta-c", "--source", "sps1"]}[name]
    for end, value in flags.items():
        command += [f"--{name}-{end}", repr(value)]
    args = cli.build_parser().parse_args(command)
    cap = {"loss": MAX_LOSSES, "p2": MAX_WEIGHTS, "eta": MAX_EFFICIENCIES}
    assert len(cli._sweep(args, name, cap[name])) == count


# The ``# config`` hash of each subcommand at its defaults and with every
# flag set, recorded while the config records were written out by hand in
# each command; deriving them from the flags must not move one.
PINNED_CONFIG_HASHES = [
    (["skr-curve", "--protocol", "wcs"], "07738a322b0d"),
    (["skr-curve", "--protocol", "hp", "--source", "sps2", "--channel",
      "channel", "--loss-min", "1", "--loss-max", "3", "--loss-step", "1",
      "--q-sift", "0.4", "--t", "0.6", "--eta-d", "0.8", "--p-dc-alice",
      "1e-06", "--out", "out.csv"], "a9c8ba6e1ef8"),
    (["gamma-map"], "e3d6008f3fd0"),
    (["gamma-map", "--channel", "channel", "--grid", "5", "--eta-c", "0.9",
      "--q-sift", "0.4", "--out", "out.csv"], "381431b4d04a"),
    (["optimal-t"], "65e576eb5316"),
    (["optimal-t", "--channel", "channel", "--p2-min", "0.1", "--p2-max",
      "0.3", "--p2-step", "0.1", "--p-dc", "1e-06", "--eta-d", "0.8",
      "--p1", "0.1", "--out", "out.csv"], "b6fc42e20b52"),
    (["gamma-vs-eta", "--protocol", "dtb", "--axis", "eta-c", "--source",
      "sps1"], "aeef2bab7b4e"),
    (["gamma-vs-eta", "--protocol", "hp", "--axis", "eta-d", "--source",
      "sps2", "--channel", "channel", "--eta-min", "0.5", "--eta-max", "0.9",
      "--eta-step", "0.2", "--eta-c", "0.9", "--eta-d", "0.8", "--t", "0.6",
      "--p-dc-alice", "1e-06", "--q-sift", "0.4", "--out", "out.csv"],
     "8ced40fc7148")]


@pytest.mark.parametrize("argv, digest", PINNED_CONFIG_HASHES,
                         ids=[f"{a[0]}-{'all' if '--out' in a else 'defaults'}"
                              for a, _ in PINNED_CONFIG_HASHES])
def test_config_hash_is_pinned(capsys, monkeypatch, tmp_path, argv, digest):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, argv)
    assert code == 0 and err == ""
    text = out or (tmp_path / "out.csv").read_text()
    assert text.splitlines()[1] == f"# config {digest}"


@pytest.mark.parametrize("command, flags", [
    (["skr-curve", "--protocol", "wcs"], {"q_sift", "t", "eta_d"}),
    (["gamma-map"], {"q_sift"}),
    (["optimal-t"], {"eta_d"}),
    (["gamma-vs-eta", "--protocol", "hp", "--axis", "eta-d", "--source",
      "sps2"], {"q_sift", "t", "eta_d"}),
    (["simulate", "--protocol", "hp", "--source", "sps2"], {"t", "eta_d"}),
    (["ingest", "s1.csv"], {"q_sift"})],
    ids=["skr-curve", "gamma-map", "optimal-t", "gamma-vs-eta", "simulate",
         "ingest"])
def test_flag_defaults_are_the_protocol_defaults(command, flags):
    args = vars(cli.build_parser().parse_args(command))
    defaults = {"q_sift": DEFAULT_Q_SIFT, "t": DEFAULT_T,
                "eta_d": DEFAULT_ETA_D}
    assert {k: args[k] for k in flags} == {k: defaults[k] for k in flags}
    assert not set(defaults) - flags & set(args)


class TestSimulate:
    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        argv = ["simulate", "--protocol", "dtb", "--source", "bare-s2",
                "--decoy", "bare-s1", "--loss", "10",
                "--n-pulses", "200000", "--seed", "7"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["tool_version"] == __version__
        assert re.fullmatch(r"[0-9a-f]{12}", doc["config_hash"])
        assert doc["protocol"] == "dtb"
        assert doc["seed"] == 7
        assert set(doc["tallies"]) == {"s1", "s2"}
        sent = sum(t["sent"] for t in doc["tallies"].values())
        assert sent == 200000
        for tally in doc["tallies"].values():
            assert all(isinstance(v, int) for v in tally.values())
            assert tally["errors"] <= tally["detected"] <= tally["sent"]

    # SHA-256 of the report with its tool_version blanked, recorded
    # before SimConfig was built in one call; never re-record them to absorb
    # a change in the tallies.  hp's was re-recorded once when its config
    # hash stopped covering --decoy: only the config_hash line moved
    @pytest.mark.parametrize("protocol, digest", [
        ("dtb",
         "d01cdbbfa1afbfbabb1a7c38e7ba6bd4c9ca8528097cff5c30d7ac9e85dd15f5"),
        ("hp",
         "2525cfe1805da4a4f22e45f51c3ddb6b7c4134246febf09d035038ed191b8e53")])
    def test_report_bytes_are_pinned(self, capsys, protocol, digest):
        code, out, err = invoke(capsys, [
            "simulate", "--protocol", protocol, "--source", "sps2",
            "--n-pulses", "200000", "--seed", "7"])
        assert code == 0 and err == ""
        body = re.sub(r'"tool_version": "[^"]*"',
                      '"tool_version": "<version>"', out, count=1)
        assert hashlib.sha256(body.encode()).hexdigest() == digest

    # hp never loads --decoy, so the name need not exist
    @pytest.mark.parametrize("protocol, decoy, moves", [
        ("hp", "no-such", False), ("dtb", "bare-s2", True)])
    def test_config_hash_covers_the_decoy_only_where_it_is_loaded(
            self, capsys, protocol, decoy, moves):
        hashes = []
        for flags in ([], ["--decoy", decoy]):
            code, out, _ = invoke(capsys, [
                "simulate", "--protocol", protocol, "--source", "sps2",
                "--n-pulses", "1000"] + flags)
            assert code == 0
            hashes.append(json.loads(out)["config_hash"])
        assert (hashes[0] != hashes[1]) == moves

    def test_seed_changes_the_tallies(self, capsys, tmp_path):
        out = []
        for seed in ("7", "8"):
            path = tmp_path / f"s{seed}.json"
            assert main(["simulate", "--protocol", "dtb",
                         "--source", "bare-s2", "--n-pulses", "200000",
                         "--seed", seed, "--out", str(path)]) == 0
            out.append(json.loads(path.read_text())["tallies"])
        capsys.readouterr()
        assert out[0] != out[1]

    @pytest.mark.parametrize("pda", ["5", "-1", "nan"])
    def test_alice_dark_count_outside_zero_one_fails_cleanly(self, capsys,
                                                             pda):
        code, out, err = invoke(capsys, [
            "simulate", "--protocol", "hp", "--source", "sps2",
            "--n-pulses", "1000", "--p-dc-alice", pda])
        assert code == 1 and out == ""
        assert err == "error: p_dc_alice must lie in [0, 1]\n"

    @pytest.mark.parametrize("flag, field, value, low", [
        ("--seed", "seed", -1, 0), ("--n-pulses", "n_pulses", 0, 1)])
    def test_seed_and_pulse_count_out_of_range_fail_cleanly(
            self, capsys, flag, field, value, low):
        code, out, err = invoke(capsys, [
            "simulate", "--protocol", "hp", "--source", "sps2",
            flag, str(value)])
        assert code == 1 and out == ""
        assert err == f"error: {field} must be an integer >= {low}, not {value}\n"

    @pytest.mark.parametrize("protocol", ["dtb", "hp"])
    def test_a_pulse_count_past_the_cap_fails_cleanly(
            self, capsys, monkeypatch, protocol):
        # 10**30 written out; rejected before any pulse is drawn
        monkeypatch.setattr(cli, "run", refuse)
        code, out, err = invoke(capsys, [
            "simulate", "--protocol", protocol, "--source", "sps2",
            "--n-pulses", str(10**30)])
        assert code == 1 and out == ""
        assert err == (f"error: n_pulses must be at most {MAX_PULSES}, "
                       f"not {10**30}\n")

    def test_herald_counters_appear_for_hp(self, capsys):
        _, out, _ = invoke(capsys, [
            "simulate", "--protocol", "hp", "--source", "sps2",
            "--n-pulses", "100000", "--seed", "3"])
        doc = json.loads(out)
        assert doc["protocol"] == "hp"
        assert doc["herald_and_one"] + doc["herald_and_two"] <= doc["heralds"]
        assert doc["heralds"] > 0
        assert set(doc["tallies"]) == {"s3"}


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory, bare_decoy, bare_signal):
    """Simulated tomography CSVs for one ND setting, sidecars alongside."""
    channel = load_channel("channel")
    from spsqkd.ingest import AliceBudget

    budget = AliceBudget(rep_rate_n=2e6, eta_a=0.195, eta_c_na=0.1418)
    vacuum = PhotonDistribution(1.0, 0.0, 0.0)
    cfg = SimConfig(protocol="dtb", n_pulses=3_000_000, seed=100,
                    channel=channel.with_loss(1.0),
                    intensities={"s0": vacuum, "s1": bare_decoy,
                                 "s2": bare_signal},
                    intensity_weights={"s0": 1 / 3, "s1": 1 / 3, "s2": 1 / 3})
    maps = maps_from_report(run_dtb(cfg), cfg, budget, 1.0, seed=100)
    root = tmp_path_factory.mktemp("experiment")
    paths = []
    for tmap in maps:
        path = root / f"{tmap.intensity_label.lower()}.csv"
        write_tomography_csv(tmap, path)
        paths.append(str(path))
    return paths, maps, budget


def copy_experiment(paths, to: Path) -> list[str]:
    """Copies in ``to`` of the CSVs at ``paths`` and their sidecars."""
    copies = []
    for path in map(Path, paths):
        for src in (path, path.with_suffix(".csv.json")):
            (to / src.name).write_bytes(src.read_bytes())
        copies.append(str(to / path.name))
    return copies


class TestIngest:
    def test_json_report_structure(self, capsys, experiment_dir):
        paths, _, _ = experiment_dir
        code, out, err = invoke(capsys, ["ingest"] + paths)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["tool_version"] == __version__
        rates = {r["intensity"]: r for r in doc["rates"]}
        assert set(rates) == {"S0", "S1", "S2"}
        assert all(r["loss_db"] == 1.0 for r in rates.values())
        assert rates["S0"]["q"] < rates["S1"]["q"] < rates["S2"]["q"]
        (point,) = doc["skr_points"]
        assert point["protocol"] == "dtb"
        assert point["loss_db"] == 1.0
        assert 0.0 < point["skr"] < 1.0
        assert point["skr_sigma"] > 0.0

    def test_report_matches_the_library_call(self, capsys, experiment_dir,
                                             bare_decoy, bare_signal):
        paths, maps, budget = experiment_dir
        _, out, _ = invoke(capsys, ["ingest"] + paths)
        (point,) = json.loads(out)["skr_points"]
        stats = {"S1": bare_decoy, "S2": bare_signal}
        (direct,) = skr_from_experiment(maps, stats, budget)
        assert point["skr"] == direct.skr
        assert point["skr_sigma"] == direct.skr_sigma

    def test_stats_accepted_as_json_path(self, capsys, experiment_dir,
                                         tmp_path):
        paths, _, _ = experiment_dir
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({
            "S1": {"p0": 0.9023, "p1": 0.096, "p2": 0.0017},
            "S2": {"p0": 0.675, "p1": 0.296, "p2": 0.029}}))
        _, named, _ = invoke(capsys, ["ingest"] + paths)
        _, by_path, _ = invoke(capsys, ["ingest", "--stats", str(stats)]
                               + paths)
        assert json.loads(named)["skr_points"] == \
            json.loads(by_path)["skr_points"]

    def test_incomplete_stats_fail_cleanly(self, capsys, experiment_dir,
                                           tmp_path):
        paths, _, _ = experiment_dir
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(
            {"S2": {"p0": 0.675, "p1": 0.296, "p2": 0.029}}))
        code, _, err = invoke(capsys, ["ingest", "--stats", str(stats)]
                              + paths)
        assert code == 1
        assert err.startswith("error:")

    def test_missing_sidecar_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "orphan.csv"
        path.write_text("alice_state,bob_detector,counts\nH,H,5\n")
        code, _, err = invoke(capsys, ["ingest", str(path)])
        assert code == 1
        assert err.startswith("error:")

    def test_short_csv_row_fails_cleanly(self, capsys, tmp_path):
        # the row "H,H" without a count escaped main as a TypeError
        path = tmp_path / "short.csv"
        path.write_text("alice_state,bob_detector,counts\nH,H\n")
        path.with_suffix(".csv.json").write_text(json.dumps(
            {"exposure_s": 1.0, "intensity_label": "S1", "nd_filter_db": 0.0}))
        code, out, err = invoke(capsys, ["ingest", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: {path} line 2: bad row (H, H, )\n"

    def test_count_past_int64_fails_cleanly(self, capsys, tmp_path):
        # it escaped main as a bare OverflowError
        path = tmp_path / "huge.csv"
        path.write_text("alice_state,bob_detector,counts\n"
                        "H,H,99999999999999999999\n")
        path.with_suffix(".csv.json").write_text(json.dumps(
            {"exposure_s": 1.0, "intensity_label": "S1", "nd_filter_db": 0.0}))
        code, out, err = invoke(capsys, ["ingest", str(path)])
        assert code == 1 and out == ""
        assert err == (f"error: {path} line 2: (H, H) counts past "
                       f"{2**63 - 1}\n")

    @pytest.mark.parametrize("field, value, message", [
        ("exposure_s", math.inf, "exposure_s must be positive and finite"),
        ("nd_filter_db", math.nan, "nd_filter_db must be finite"),
        ("rep_rate_n", 1e400, "rep_rate_n must be positive and finite")])
    def test_non_finite_input_fails_cleanly(self, capsys, experiment_dir,
                                            tmp_path, field, value, message):
        # they gave a zero gain with a positive key rate, all-zero gains,
        # or a report of a missing S2 map; the json module writes them as
        # Infinity and NaN, and reads 1e400 as inf.  The error names the
        # file that holds the value
        copies = copy_experiment(experiment_dir[0], tmp_path)
        budget = tmp_path / "budget.json"
        budget.write_text(json.dumps(
            {"rep_rate_n": 2e6, "eta_a": 0.195, "eta_c_na": 0.1418}))
        if field == "rep_rate_n":
            budget.write_text(budget.read_text().replace("2000000.0", "1e400"))
            where = f"budget {str(budget)!r}"
        else:
            sidecar = tmp_path / "s2.csv.json"
            meta = json.loads(sidecar.read_text())
            meta[field] = value
            sidecar.write_text(json.dumps(meta))
            where = f"{sidecar}: missing or bad field"
        code, out, err = invoke(capsys, ["ingest", "--budget", str(budget)]
                                + copies)
        assert code == 1 and out == ""
        assert err == f"error: {where}: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("eta_a", 2, "eta_a must lie in (0, 1]"),
        ("exposure_s", -1, "exposure_s must be positive and finite")])
    def test_out_of_range_input_fails_naming_the_file(
            self, capsys, experiment_dir, tmp_path, field, value, message):
        # each printed its message without the file that held the value
        copies = copy_experiment(experiment_dir[0], tmp_path)
        budget = tmp_path / "budget.json"
        fields = {"rep_rate_n": 2e6, "eta_a": 0.195, "eta_c_na": 0.1418}
        if field in fields:
            budget.write_text(json.dumps({**fields, field: value}))
            where = f"budget {str(budget)!r}"
        else:
            budget.write_text(json.dumps(fields))
            sidecar = tmp_path / "s2.csv.json"
            sidecar.write_text(json.dumps(
                {**json.loads(sidecar.read_text()), field: value}))
            where = f"{sidecar}: missing or bad field"
        code, out, err = invoke(capsys, ["ingest", "--budget", str(budget)]
                                + copies)
        assert code == 1 and out == ""
        assert err == f"error: {where}: {message}\n"


@pytest.mark.parametrize("flags, digest", [
    ([], "6c8921f212fb"),
    (["--budget", "budget", "--stats", "stats-bare", "--q-sift", "0.4",
      "--out", "out.json"], "3b166953b12e")], ids=["defaults", "all"])
def test_ingest_config_hash_is_pinned(capsys, monkeypatch, experiment_dir,
                                      flags, digest):
    # the hash covers the map paths as given, so they are given relative
    paths, _, _ = experiment_dir
    root = Path(paths[0]).parent
    monkeypatch.chdir(root)
    code, out, err = invoke(capsys, ["ingest", "s0.csv", "s1.csv", "s2.csv"]
                            + flags)
    assert code == 0 and err == ""
    if "--out" in flags:
        out = (root / "out.json").read_text()
    assert json.loads(out)["config_hash"] == digest


# Arguments that run each subcommand; ingest also takes experiment_dir's maps.
FLOAT_FLAG_COMMANDS = {
    "skr-curve": ["skr-curve", "--protocol", "hp", "--source", "sps2"],
    "gamma-map": ["gamma-map", "--grid", "3"],
    "optimal-t": ["optimal-t"],
    "gamma-vs-eta": ["gamma-vs-eta", "--protocol", "hp", "--axis", "eta-d",
                     "--source", "sps2"],
    "simulate": ["simulate", "--protocol", "hp", "--source", "sps2",
                 "--n-pulses", "10"],
    "ingest": ["ingest"]}
(_SUBCOMMANDS,) = (action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
FLOAT_FLAGS = [(command, action.option_strings[0])
               for command, parser in _SUBCOMMANDS.items()
               for action in parser._actions if action.type is float]


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NAN", "-1e3"])
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS,
                         ids=[f"{c}{f}" for c, f in FLOAT_FLAGS])
def test_a_negative_float_literal_reaches_the_range_check(
        capsys, experiment_dir, command, flag, value):
    # read as a value, as "--flag=value" is, not as an unknown flag
    argv = FLOAT_FLAG_COMMANDS[command] + (
        experiment_dir[0] if command == "ingest" else [])
    code, out, err = invoke(capsys, argv + [flag, value])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (code, out, err) == invoke(capsys, argv + [f"{flag}={value}"])


# A valid fixture of each kind; each number of a fixture must be a JSON number.
FIXTURES = {
    "channel": {"loss_db": 0.0, "eta_bob": 0.045, "p_dc": 2e-07, "e_d": 0.033},
    "source": {"p0": 0.5, "p1": 0.5},
    "budget": {"rep_rate_n": 2e6, "eta_a": 0.195, "eta_c_na": 0.1418}}
NOT_NUMBERS = ('"0.5"', "true", "false", "null", "[]", "{}")


def not_a_number(kind: str, field: str, text: str) -> tuple[str, str]:
    """The ``kind`` fixture with ``field`` set to the JSON ``text``, and
    the message (a template for ``str.format(path=...)``) that names it."""
    value = json.loads(text)
    shown = repr(value).replace("{", "{{").replace("}", "}}")
    return (json.dumps({**FIXTURES[kind], field: value}),
            f"{kind} {{path!r}}: {field} must be a JSON number, not {shown}")


class TestFixtureResolution:
    @pytest.mark.parametrize("loader, text, message", [
        (load_channel, None, "channel file not found: {path}"),
        (load_channel, "{not json", "channel file {path} is not valid JSON: "),
        # a file that is not UTF-8 text
        pytest.param(cli.load_source, b'{"p0": 1.0}\xff',
                     "source file {path} is not valid JSON: ",
                     id="source-not-utf-8"),
        (load_channel, "[0.045, 2e-07, 0.033]",
         "channel file {path} must hold a JSON object"),
        (load_channel, '{"p_dc": 2e-07, "e_d": 0.033}',
         "channel {path!r} lacks required field 'eta_bob'"),
        (cli.load_stats, '{"note": "no intensity entries"}',
         "stats {path!r} defines no intensities"),
        # a required and an optional field of each kind: a number as text,
        # a bool, null, a list or an object is no number
        *[pytest.param(loader, *not_a_number(kind, field, text),
                       id=f"{kind}-{field}-{text}")
          for loader, kind, field in [(load_channel, "channel", "eta_bob"),
                                      (load_channel, "channel", "loss_db"),
                                      (cli.load_source, "source", "p1"),
                                      (cli.load_source, "source", "p3"),
                                      (cli.load_budget, "budget", "eta_a")]
          for text in NOT_NUMBERS],
        # a whole number too large for a float
        pytest.param(
            load_channel, not_a_number("channel", "eta_bob", "1" + "0" * 400)[0],
            "channel {path!r}: int too large to convert to float",
            id="channel-eta_bob-10**400"),
        # only "note" annotates: every other entry holds a source
        *[pytest.param(
            cli.load_stats, '{"note": "x", "S1": {"p0": 1.0}, "S3": %s}' % text,
            "stats {path!r} entry 'S3' must be a JSON object",
            id=f"stats-S3-{text}") for text in ('"x"', "null", "0.5", "[]")],
        # a number out of the range the fixture's class takes
        pytest.param(cli.load_budget, json.dumps({**FIXTURES["budget"],
                                                  "eta_a": 2}),
                     "budget {path!r}: eta_a must lie in (0, 1]",
                     id="budget-eta_a-2")])
    def test_a_bad_fixture_file_is_a_config_error(self, tmp_path, loader,
                                                  text, message):
        path = str(tmp_path / "fixture.json")
        if isinstance(text, bytes):
            Path(path).write_bytes(text)
        elif text is not None:
            Path(path).write_text(text)
        with pytest.raises(ConfigError,
                           match="^" + re.escape(message.format(path=path))):
            loader(path)

    @pytest.mark.parametrize("kind, argv, text, field", [
        ("channel", ["skr-curve", "--protocol", "wcs", "--channel"],
         not_a_number("channel", "p_dc", '"2e-07"')[0], "p_dc"),
        ("source", ["skr-curve", "--protocol", "dtb", "--source"],
         not_a_number("source", "p0", "true")[0], "p0"),
        ("budget", ["ingest", "missing.csv", "--budget"],
         not_a_number("budget", "rep_rate_n", "null")[0], "rep_rate_n"),
        ("stats", ["ingest", "missing.csv", "--stats"],
         '{"note": "x", "S1": {"p0": 1.0}, "S2": []}', "'S2'")],
        ids=["channel", "source", "budget", "stats"])
    def test_a_bad_field_is_one_error_line(self, capsys, tmp_path, kind,
                                           argv, text, field):
        # exit 1 and one line on stderr that names the file and the field
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        code, out, err = invoke(capsys, [*argv, str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {kind} {str(path)!r}")
        assert field in err and err.count("\n") == 1

    def test_env_root_overrides_the_bundled_fixtures(self, capsys,
                                                     monkeypatch, tmp_path):
        noisy = tmp_path / "noisy.json"
        noisy.write_text(json.dumps({"loss_db": 0.0, "eta_bob": 0.045,
                                     "p_dc": 2e-7, "e_d": 0.06}))
        monkeypatch.setenv("QKD_FIXTURES_DIR", str(tmp_path))
        _, out, _ = invoke(capsys, ["skr-curve", "--protocol", "wcs",
                                    "--channel", "noisy", "--loss-min", "0",
                                    "--loss-max", "1", "--loss-step", "1"])
        _, _, _, footer = parse_csv(out)
        assert footer["mcl_db"] < 39.0  # noisier receiver than the default
        # the bundled names are shadowed while the override is in force
        code, _, err = invoke(capsys, ["skr-curve", "--protocol", "wcs"])
        assert code == 1
        assert "unknown channel fixture" in err

    def test_perfect_source_is_read_from_the_fixtures(self, capsys,
                                                      monkeypatch, tmp_path):
        channel = json.loads((cli.fixtures_root() / "channel.json")
                             .read_text())
        (tmp_path / "channel.json").write_text(json.dumps(channel))
        argv = ["skr-curve", "--protocol", "perfect-sps", "--loss-min", "0",
                "--loss-max", "1", "--loss-step", "1"]
        monkeypatch.setenv("QKD_FIXTURES_DIR", str(tmp_path))
        code, _, err = invoke(capsys, argv)
        assert code == 1 and "unknown source fixture 'perfect'" in err
        # an override's perfect source with some vacuum tolerates less loss
        (tmp_path / "perfect.json").write_text(json.dumps(
            {"p0": 0.1, "p1": 0.9}))
        _, out, _ = invoke(capsys, argv)
        _, _, _, footer = parse_csv(out)
        assert footer["mcl_db"] == mcl(dtb_rate_fn(
            PhotonDistribution(p0=0.1, p1=0.9, p2=0.0),
            load_channel(str(tmp_path / "channel.json"))))
        assert footer["mcl_db"] < 45.3094482421875
