import math
import os
import stat
from fractions import Fraction

import numpy as np
import pytest

from ghostbench import ioutil, optics
from ghostbench.errors import ConfigError
from ghostbench.optics import ObjectMask, OpticalConfig, SlitGeometry


def make_config(**overrides):
    kwargs = dict(coherence_length=260e-6, grid_n=100, pixel_pitch=15e-6)
    kwargs.update(overrides)
    return OpticalConfig(**kwargs)


class TestOpticalConfigValidation:
    @pytest.mark.parametrize("field", ["coherence_length", "pixel_pitch"])
    def test_rejects_nonpositive_lengths(self, field):
        with pytest.raises(ConfigError):
            make_config(**{field: 0.0})
        with pytest.raises(ConfigError):
            make_config(**{field: -1e-6})

    def test_rejects_small_grid(self):
        with pytest.raises(ConfigError):
            make_config(grid_n=7)

    def test_rejects_unresolvable_speckle(self):
        # l_c = 26 um < 2 * 15 um
        with pytest.raises(ConfigError, match="pixel pitch"):
            make_config(coherence_length=26e-6)

    def test_rejects_bad_oversample(self):
        with pytest.raises(ConfigError):
            make_config(source_oversample=0)

    @pytest.mark.parametrize("args", [(1e-4, 48, 15e-6, True), (True, 48, 15e-6)],
                             ids=["source_oversample", "coherence_length"])
    def test_rejects_bools(self, args):
        with pytest.raises(ConfigError):
            OpticalConfig(*args)


def bruteforce_double_slit(grid_n, pitch, width, height, separation, center):
    """Integer-exact rasterization oracle: all lengths as Fractions of a meter."""
    pitch, width, height, separation = map(Fraction, map(str, (pitch, width, height, separation)))
    cx, cy = (Fraction(str(c)) for c in center)
    mask = np.zeros((grid_n, grid_n))
    for i in range(grid_n):
        y = (i - grid_n // 2) * pitch
        for j in range(grid_n):
            x = (j - grid_n // 2) * pitch
            for slit_cx in (cx - separation / 2, cx + separation / 2):
                if abs(x - slit_cx) <= width / 2 and abs(y - cy) <= height / 2:
                    mask[i, j] = 1.0
    return mask


class TestDoubleSlit:
    def test_counts_match_bruteforce_oracle(self):
        cfg = make_config()
        mask = optics.make_double_slit(cfg, SlitGeometry(1e-4, 1e-3, 2e-4))
        oracle = bruteforce_double_slit(100, "15e-6", 1e-4, 1e-3, 2e-4, (0, 0))
        assert np.array_equal(mask.values, oracle)
        # 0.1 mm / 15 um rasterizes to 7 columns, 1.0 mm to 67 rows
        cols = mask.values.any(axis=0)
        widths = np.diff(np.flatnonzero(np.diff(np.concatenate([[0], cols, [0]]))))[::2]
        assert list(widths) == [7, 7]
        rows = mask.values.any(axis=1)
        assert int(rows.sum()) == 67
        assert int(mask.values.sum()) == 2 * 7 * 67

    def test_overlapping_slits_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            optics.make_double_slit(make_config(), SlitGeometry(2e-4, 1e-3, 2e-4))

    @pytest.mark.parametrize("bad", [
        {"width": math.nan}, {"height": math.inf}, {"separation": math.nan},
        {"center": (math.nan, 0.0)}, {"center": (0.0, -math.inf)},
        {"width": True, "separation": 2.0}, {"center": (False, 0.0)}])
    def test_non_finite_geometry_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            SlitGeometry(**{"width": 1e-4, "height": 1e-3, "separation": 2e-4, **bad})

    def test_out_of_grid_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            optics.make_double_slit(make_config(), SlitGeometry(1e-4, 2e-3, 2e-4))
        with pytest.raises(ConfigError, match="outside"):
            optics.make_double_slit(make_config(), SlitGeometry(1e-4, 1e-3, 1.5e-3))

    def test_mirror_symmetry_about_pixel_boundary(self):
        # x = -pitch/2 is a pixel boundary; mirroring there is exactly fliplr
        cfg = make_config()
        mask = optics.make_double_slit(cfg, SlitGeometry(1e-4, 1e-3, 2e-4, center=(-7.5e-6, 0.0)))
        assert np.array_equal(mask.values, np.fliplr(mask.values))

    def test_nonzero_total_matches_oracle_for_odd_geometry(self):
        cfg = make_config(grid_n=64)
        mask = optics.make_double_slit(cfg, SlitGeometry(7e-5, 4.2e-4, 1.9e-4, center=(1e-5, -2e-5)))
        oracle = bruteforce_double_slit(64, "15e-6", 7e-5, 4.2e-4, 1.9e-4, (1e-5, -2e-5))
        assert np.array_equal(mask.values, oracle)


class TestObjectMask:
    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            ObjectMask(np.full((8, 8), 1.5))
        with pytest.raises(ConfigError):
            ObjectMask(np.full((8, 8), -0.1))

    def test_rejects_all_opaque(self):
        with pytest.raises(ConfigError, match="opaque"):
            ObjectMask(np.zeros((8, 8)))

    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            ObjectMask(np.ones((8, 9)))

    def test_values_are_immutable(self):
        mask = ObjectMask(np.ones((8, 8)))
        with pytest.raises(ValueError):
            mask.values[0, 0] = 0.5


class TestPgm:
    def test_roundtrip_binary_16bit(self, tmp_path):
        cfg = make_config(grid_n=16)
        rng = np.random.default_rng(0)
        mask = ObjectMask(rng.uniform(0, 1, (16, 16)))
        path = tmp_path / "m.pgm"
        ioutil.write_pgm(path, mask.values)
        assert path.read_bytes().startswith(b"P5\n16 16\n65535\n")
        back = optics.load_mask_pgm(path, cfg)
        assert np.max(np.abs(back.values - mask.values)) <= 0.5 / 65535

    def test_roundtrip_ascii_8bit(self, tmp_path):
        cfg = make_config(grid_n=12)
        rng = np.random.default_rng(1)
        samples = rng.integers(0, 256, (12, 12))
        path = tmp_path / "m.pgm"
        rows = "\n".join(" ".join(map(str, row)) for row in samples.tolist())
        path.write_bytes(f"P2\n12 12\n255\n{rows}\n".encode("ascii"))
        back = optics.load_mask_pgm(path, cfg)
        assert np.array_equal(back.values, samples / 255.0)

    def test_full_grid_binary_load(self, tmp_path):
        cfg = make_config(grid_n=100)
        rng = np.random.default_rng(2)
        samples = rng.integers(0, 65536, size=(100, 100))
        path = tmp_path / "full.pgm"
        path.write_bytes(b"P5\n100 100\n65535\n" + samples.astype(">u2").tobytes())
        mask = optics.load_mask_pgm(path, cfg)
        assert mask.grid_n == 100
        assert mask.values.max() <= 1.0

    def test_midscale_sample_value(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P2\n8 8\n255\n" + (b"128 " * 64))
        cfg = make_config(grid_n=8)
        mask = optics.load_mask_pgm(path, cfg)
        assert mask.values[0, 0] == pytest.approx(128 / 255)
        assert mask.values[0, 0] == pytest.approx(0.5019607843137255)

    def test_all_ones_is_valid(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P2\n8 8\n255\n" + (b"255 " * 64))
        mask = optics.load_mask_pgm(path, make_config(grid_n=8))
        assert (mask.values == 1.0).all()

    def test_all_zero_rejected(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P2\n8 8\n255\n" + (b"0 " * 64))
        with pytest.raises(ConfigError, match="all zero"):
            optics.load_mask_pgm(path, make_config(grid_n=8))

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P2\n8 8\n255\n" + (b"7 " * 64))
        with pytest.raises(ConfigError, match="grid"):
            optics.load_mask_pgm(path, make_config(grid_n=100))

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P2\n8 4\n255\n" + (b"7 " * 32))
        with pytest.raises(ConfigError, match="square"):
            optics.load_mask_pgm(path, make_config(grid_n=8))

    @pytest.mark.parametrize("values", [np.full((4, 4), 1.5), np.full((4, 4), -0.1),
                                        np.full((4, 4), np.nan), np.full(4, 0.5)],
                             ids=["above_one", "negative", "nan", "one_d"])
    def test_writer_takes_only_a_2d_unit_range_array(self, tmp_path, values):
        with pytest.raises(ConfigError, match="graymap values"):
            ioutil.write_pgm(tmp_path / "w.pgm", values)
        assert not any(tmp_path.iterdir())

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P2 # magic\n# a comment line\n8 8\n255\n" + (b"9 " * 64))
        samples, maxval = ioutil.read_pgm(path)
        assert samples.shape == (8, 8) and maxval == 255

    def test_comment_in_raster_ends_at_its_newline(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P2\n2 1\n255\n12#note\n34\n")
        samples, _ = ioutil.read_pgm(path)
        assert samples.tolist() == [[12, 34]]

    @pytest.mark.parametrize("payload", [
        b"P3\n8 8\n255\n" + b"1 " * 64,        # wrong magic
        b"P2\n8 8\n",                          # truncated header
        b"P2\n8 8\n70000\n" + b"1 " * 64,      # maxval too large
        b"P2\n8 8\n255\n" + b"1 " * 63,        # short raster
        b"P2\n8 8\n255\n" + b"300 " * 64,      # sample above maxval
        b"P5\n4 4\n255\n" + b"\x01" * 15,      # short binary raster
        b"P5\n4 4\n255\n" + b"\x01" * 17,      # trailing garbage
    ])
    def test_malformed_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.pgm"
        path.write_bytes(payload)
        with pytest.raises(ConfigError):
            ioutil.read_pgm(path)


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    @pytest.mark.parametrize("write", [
        lambda path: ioutil.write_pgm(path, np.zeros((2, 2))),
        lambda path: ioutil.write_csv(path, [("x",)])], ids=["pgm", "csv"])
    def test_file_mode_follows_umask(self, tmp_path, write, umask, mode):
        path = tmp_path / "out"
        previous = os.umask(umask)
        try:
            write(path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode


class TestCsv:
    def test_cell_format_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        ioutil.write_csv(path, [("a", None, True, np.bool_(False)),
                                (0.1, np.float64(1e-5), math.inf, 7, (1, 2.5, None))])
        assert path.read_bytes() == b"a,,true,false\n0.1,1e-05,inf,7,1,2.5,\n"
        assert ioutil.format_cell(np.float64(2.0) / 3) == repr(2.0 / 3)


class TestConfigFile:
    """Flat key=value text, the format of scenario files."""

    def test_comments_and_spacing(self):
        pairs = ioutil.parse_kv_text(
            "# bench geometry\noptics.grid_n= 100\noptics.pixel_pitch_m=15e-6\n"
            "optics.lc_target_m =68.8e-6  # object plane\n\noptics.source_oversample =4\n")
        assert pairs == {"optics.grid_n": "100", "optics.pixel_pitch_m": "15e-6",
                         "optics.lc_target_m": "68.8e-6", "optics.source_oversample": "4"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ioutil.parse_kv_text("a=1\na=2\n")
