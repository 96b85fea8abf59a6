"""Toy datasets, correlation estimation, and the two evaluation metrics."""

import numpy as np
import pytest

from rgflow import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    InsufficientData,
    ToyDataset,
    degrade,
    energy_distance,
    estimate_rho,
    load_dataset,
    make_gaussian_pairs,
    make_scurve,
    make_scurve_dataset,
    mse,
    save_dataset,
    standardize,
)
from rgflow.toydata import sidecar_path


class TestScurve:
    def test_points_lie_on_the_curve(self):
        """Without jitter every raw point satisfies one of the two circle
        equations that make up the S."""
        pts = make_scurve(400, jitter=0.0, seed=3, standardized=False)
        upper = pts[:, 1] >= 0.0
        res_up = pts[upper, 0] ** 2 + (pts[upper, 1] - 0.5) ** 2 - 0.25
        res_dn = pts[~upper, 0] ** 2 + (pts[~upper, 1] + 0.5) ** 2 - 0.25
        np.testing.assert_allclose(res_up, 0.0, atol=1e-12)
        np.testing.assert_allclose(res_dn, 0.0, atol=1e-12)

    def test_standardized_moments(self):
        pts = make_scurve(5000, jitter=0.1, seed=3, sigma_d=1.5)
        np.testing.assert_allclose(pts.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(pts.std(axis=0), 1.5, rtol=1e-9)

    def test_deterministic(self):
        a = make_scurve(100, jitter=0.05, seed=9)
        b = make_scurve(100, jitter=0.05, seed=9)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_scurve(1)
        with pytest.raises(DomainError):
            make_scurve(10, jitter=-0.1)


class TestStandardize:
    def test_idempotent(self):
        rng = np.random.default_rng(1)
        cloud = rng.normal(2.0, 3.0, size=(500, 2))
        once = standardize(cloud)
        twice = standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_zero_spread_rejected(self):
        with pytest.raises(DomainError):
            standardize(np.ones((10, 2)))


class TestDegrade:
    def test_identity_degradation_keeps_pairing(self):
        clean = make_scurve(200, jitter=0.05, seed=2)
        out = degrade(clean, strength=0.0, noise=0.0, seed=0, sigma_d=1.0)
        assert np.array_equal(out, clean)
        assert estimate_rho(clean, out) == pytest.approx(1.0, abs=1e-12)

    def test_partial_degradation_correlation(self):
        clean = make_scurve(5000, jitter=0.05, seed=2)
        out = degrade(clean, strength=0.5, noise=0.1, seed=4, sigma_d=1.0)
        rho = estimate_rho(clean, out)
        assert 0.0 < rho < 1.0

    def test_restandardized(self):
        clean = make_scurve(5000, jitter=0.05, seed=2)
        out = degrade(clean, strength=1.0, noise=0.3, seed=4, sigma_d=2.0)
        np.testing.assert_allclose(out.std(axis=0), 2.0, rtol=1e-9)

    def test_validation(self):
        clean = make_scurve(50, seed=1)
        with pytest.raises(DomainError):
            degrade(clean, strength=-1.0, noise=0.1, seed=0, sigma_d=1.0)
        with pytest.raises(DimensionMismatch):
            degrade(np.zeros((10, 3)), strength=0.5, noise=0.1, seed=0, sigma_d=1.0)


class TestGaussianPairs:
    def test_uncorrelated(self):
        ds = make_gaussian_pairs(0.0, 100_000, seed=5)
        assert abs(estimate_rho(ds.x0, ds.x1)) <= 0.01

    def test_strongly_correlated(self):
        ds = make_gaussian_pairs(0.9, 100_000, seed=5)
        assert 0.89 <= estimate_rho(ds.x0, ds.x1) <= 0.91

    def test_anticorrelated(self):
        ds = make_gaussian_pairs(-0.5, 50_000, seed=5)
        assert estimate_rho(ds.x0, ds.x1) == pytest.approx(-0.5, abs=0.02)

    def test_rejects_degenerate_rho(self):
        with pytest.raises(DomainError):
            make_gaussian_pairs(1.0, 10)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0)])
def test_bad_seed_is_config_error(seed):
    """Every generator rejects a seed that is not a non-negative integer
    with ConfigError, before numpy sees it."""
    clean = make_scurve(10, seed=0)
    for make in (
        lambda: make_scurve(10, seed=seed),
        lambda: degrade(clean, strength=0.5, noise=0.1, seed=seed, sigma_d=1.0),
        lambda: make_gaussian_pairs(0.5, 10, seed=seed),
        lambda: make_scurve_dataset(10, seed=seed),
    ):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            make()


class TestEstimateRho:
    def test_reference_constant_recovered(self):
        ds = make_gaussian_pairs(0.7482, 100_000, seed=6)
        assert estimate_rho(ds.x0, ds.x1) == pytest.approx(0.7482, abs=0.01)

    def test_identical_and_negated_clouds(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 2))
        assert estimate_rho(x, x.copy()) == pytest.approx(1.0, abs=1e-12)
        assert estimate_rho(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_needs_two_pairs(self):
        with pytest.raises(InsufficientData):
            estimate_rho(np.ones((1, 2)), np.ones((1, 2)))

    def test_mismatched_matrices_rejected(self):
        with pytest.raises(DimensionMismatch):
            estimate_rho(np.ones((5, 2)), np.ones((5, 3)))


class TestMetrics:
    def test_mse_identities(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(50, 2))
        assert mse(a, a) == 0.0
        v = np.array([0.3, -0.4])
        assert mse(a, a + v) == pytest.approx(float(v @ v), abs=1e-12)
        with pytest.raises(DimensionMismatch):
            mse(a, a[:10])

    def test_energy_distance_identities(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(500, 2))
        assert energy_distance(a, a) == pytest.approx(0.0, abs=1e-12)
        b = rng.normal(size=(400, 2))
        assert energy_distance(a, b) == pytest.approx(energy_distance(b, a), abs=1e-12)
        assert energy_distance(a, b) >= 0.0

    def test_energy_distance_null_calibration(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(2000, 2))
        b = rng.normal(size=(2000, 2))
        assert energy_distance(a, b) < 0.05

    def test_energy_distance_detects_shift(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(1000, 2))
        assert energy_distance(a, a + 1.0) > 0.5


class TestToyDataset:
    def test_matrices_are_read_only_copies(self, tmp_path):
        """A ToyDataset keeps read-only copies of the matrices given: those
        stay writable, and later writes to them are not seen.  The datasets
        of every generator and of load_dataset hold read-only matrices too."""
        x0 = np.arange(6.0).reshape(3, 2)
        x1 = -x0
        ds = ToyDataset(x0, x1, sigma_d=1.0, rho_hat=-1.0)
        x0[0, 0] = x1[0, 0] = 99.0
        assert ds.x0[0, 0] == 0.0 and ds.x1[0, 0] == 0.0
        assert len(ds) == 3 and ds.dim == 2
        assert ds.x0_matrix() is ds.x0 and ds.x1_matrix() is ds.x1

        made = [make_scurve_dataset(50, seed=2), make_gaussian_pairs(0.3, 40, seed=2, dim=3)]
        path = tmp_path / "d.csv"
        save_dataset(made[0], path)
        loaded = load_dataset(path)
        path.with_suffix(".meta.json").unlink()
        for d in (ds, *made, loaded, load_dataset(path)):
            for m in (d.x0, d.x1):
                assert m.dtype == np.float64 and m.flags.c_contiguous
                assert not m.flags.writeable
                with pytest.raises(ValueError):
                    m[0, 0] = 1.0

    @pytest.mark.parametrize(
        "x0, x1",
        [
            (np.zeros(3), np.zeros(3)),
            (np.zeros((3, 2)), np.zeros((3, 3))),
            (np.zeros((3, 2)), np.zeros((4, 2))),
            (np.zeros((3, 0)), np.zeros((3, 0))),
        ],
        ids=["not-2d", "widths-differ", "rows-differ", "no-columns"],
    )
    def test_mismatched_matrices_rejected(self, x0, x1):
        with pytest.raises(DimensionMismatch):
            ToyDataset(x0, x1, sigma_d=1.0, rho_hat=0.0)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            ToyDataset(np.zeros((0, 2)), np.zeros((0, 2)), sigma_d=1.0, rho_hat=0.0)


class TestScurveDataset:
    def test_both_clouds_standardized(self):
        ds = make_scurve_dataset(3000, jitter=0.05, strength=1.0, noise=0.25, seed=2)
        for cloud in (ds.x0, ds.x1):
            np.testing.assert_allclose(cloud.std(axis=0), ds.sigma_d, rtol=0.01)

    def test_provenance_recorded(self):
        ds = make_scurve_dataset(100, jitter=0.02, strength=0.7, noise=0.1, seed=5)
        assert ds.provenance["kind"] == "scurve"
        assert ds.provenance["strength"] == 0.7
        assert ds.provenance["seed"] == 5
        assert 0.0 < ds.rho_hat < 1.0

    def test_defaults_are_the_task(self):
        """The defaults are the one S-curve task: jitter 0.05, then a shear
        of strength 1.0 plus noise 0.25."""
        ds = make_scurve_dataset(100, seed=5)
        want = make_scurve_dataset(100, jitter=0.05, strength=1.0, noise=0.25, sigma_d=1.0,
                                   seed=5)
        assert ds.provenance == want.provenance
        assert ds.x0.tobytes() == want.x0.tobytes() and ds.x1.tobytes() == want.x1.tobytes()


class TestDatasetIO:
    def test_roundtrip_with_sidecar(self, tmp_path):
        ds = make_scurve_dataset(50, seed=3)
        path = tmp_path / "toy.csv"
        save_dataset(ds, path)
        assert (tmp_path / "toy.meta.json").exists()
        back = load_dataset(path)
        assert back.sigma_d == ds.sigma_d
        assert back.rho_hat == ds.rho_hat
        np.testing.assert_array_equal(back.x0, ds.x0)
        np.testing.assert_array_equal(back.x1, ds.x1)

    def test_load_without_sidecar(self, tmp_path):
        ds = make_gaussian_pairs(0.5, 200, seed=1, dim=2)
        path = tmp_path / "g.csv"
        save_dataset(ds, path)
        (tmp_path / "g.meta.json").unlink()
        back = load_dataset(path)
        assert len(back) == 200
        assert back.rho_hat == pytest.approx(0.5, abs=0.15)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        """A UTF-8 byte-order mark before the header (as some spreadsheet
        programs write) loads as the same data set, sidecar or not."""
        ds = make_gaussian_pairs(0.5, 30, seed=2, dim=2)
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        save_dataset(ds, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (tmp_path / "plain.meta.json").unlink()
        for path in (plain, bom):
            back = load_dataset(path)
            assert back.x0.tobytes() == ds.x0.tobytes()
            assert back.x1.tobytes() == ds.x1.tobytes()
        assert load_dataset(bom).rho_hat == load_dataset(plain).rho_hat

    def test_sidecar_byte_order_mark_is_not_part_of_the_json(self, tmp_path):
        """A UTF-8 byte-order mark before a sidecar loads as the same
        sidecar; bytes that are not UTF-8 are still a DomainError."""
        ds = make_gaussian_pairs(0.5, 30, seed=2, dim=2)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        meta = sidecar_path(path)
        text = meta.read_bytes()
        meta.write_bytes(b"\xef\xbb\xbf" + text)
        back = load_dataset(path)
        assert (back.sigma_d, back.rho_hat, back.provenance) == (
            ds.sigma_d, ds.rho_hat, ds.provenance)
        meta.write_bytes(b"\xff" + text)
        with pytest.raises(DomainError, match="is not JSON"):
            load_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DomainError):
            load_dataset(path)
