import numpy as np
import pytest
from scipy import integrate, stats

from daodet import synthgen
from daodet.synthgen import (
    SynthSpec,
    chi2_quantile,
    generate,
    random_rotation,
    sidecar_metadata,
    suite_specs,
)


def small_spec(**kw) -> SynthSpec:
    base = dict(cluster_size=120, dim_c2=4, seed=11)
    base.update(kw)
    return SynthSpec(**base)


def test_chi2_quantile_one_sigma_identity():
    # P(chi2_1 <= 1) is the two-sided one-sigma mass of a standard normal
    p = 0.6826894921370859
    assert abs(chi2_quantile(1, p) - 1.0) < 1e-9


def test_chi2_quantile_closed_form_m2():
    assert abs(chi2_quantile(2, 0.95) - (-2.0 * np.log(0.05))) < 1e-9


def test_chi2_quantile_against_quadrature():
    # independent oracle: integrate the chi2(8) density up to the quantile
    q = chi2_quantile(8, 0.95)

    def pdf(x):
        # x^(m/2-1) e^(-x/2) / (2^(m/2) Gamma(m/2)) with m=8: 2^4 * 3! = 96
        return x**3 * np.exp(-x / 2.0) / 96.0

    mass, _ = integrate.quad(pdf, 0.0, q)
    assert abs(mass - 0.95) < 1e-6
    assert abs(q - stats.chi2.ppf(0.95, 8)) < 1e-8


def test_chi2_quantile_validation():
    with pytest.raises(ValueError):
        chi2_quantile(0, 0.5)
    with pytest.raises(ValueError):
        chi2_quantile(3, 1.0)


def test_seeded_determinism():
    ds1, rep1 = generate(small_spec())
    ds2, rep2 = generate(small_spec())
    np.testing.assert_array_equal(ds1.points, ds2.points)
    np.testing.assert_array_equal(ds1.labels, ds2.labels)
    assert rep1.rejections == rep2.rejections
    assert ds1.name == ds2.name and ds1.seed == 11


def test_outlier_fraction_band():
    # count per cluster is Binomial(size, 0.05); the [2%, 9%] band holds
    # outside ~5e-6 tail mass at size 800, deterministic at these seeds
    for seed in range(4):
        ds, report = generate(SynthSpec(dim_c2=16, seed=seed))
        for count in (report.outliers_c1, report.outliers_c2):
            assert 0.02 * 800 <= count <= 0.09 * 800
        assert report.outliers_c1 + report.outliers_c2 == ds.labels.sum()


def test_rotation_is_isometry(rng):
    q = random_rotation(rng, 32)
    np.testing.assert_allclose(q @ q.T, np.eye(32), atol=1e-12)
    pts = rng.standard_normal((50, 32))
    d_before = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    rotated = pts @ q
    d_after = np.linalg.norm(rotated[:, None] - rotated[None, :], axis=-1)
    np.testing.assert_allclose(d_after, d_before, atol=1e-9)


def test_rotation_deterministic_given_rng_state():
    q1 = random_rotation(np.random.default_rng(5), 8)
    q2 = random_rotation(np.random.default_rng(5), 8)
    np.testing.assert_array_equal(q1, q2)


def test_labels_reproduce_in_rotated_frame():
    spec = small_spec(seed=29)
    ds, report = generate(spec)
    size = spec.cluster_size
    thresholds = [
        chi2_quantile(spec.dim_c1, synthgen.OUTLIER_QUANTILE),
        chi2_quantile(spec.dim_c2, synthgen.OUTLIER_QUANTILE),
    ]
    for c, (start, stop) in enumerate([(0, size), (size, 2 * size)]):
        maha = report.transform.mahalanobis_sq(ds.points[start:stop], c)
        np.testing.assert_array_equal(maha > thresholds[c], ds.labels[start:stop] == 1)


def test_rejection_shells_are_disjoint():
    for seed in range(6):
        spec = small_spec(seed=seed, dim_c2=2)
        ds, report = generate(spec)
        r1 = chi2_quantile(spec.dim_c1, synthgen.REJECT_QUANTILE)
        r2 = chi2_quantile(spec.dim_c2, synthgen.REJECT_QUANTILE)
        inside1 = report.transform.mahalanobis_sq(ds.points, 0) < r1
        inside2 = report.transform.mahalanobis_sq(ds.points, 1) < r2
        assert not np.any(inside1 & inside2)


def test_cluster_sample_means_near_centers():
    spec = SynthSpec(dim_c2=8, seed=1)
    ds, report = generate(spec)
    t = report.transform
    size = spec.cluster_size
    for c, (start, stop) in enumerate([(0, size), (size, 2 * size)]):
        # recover pre-transform subspace coordinates of the cluster sample
        pre = ds.points[start:stop] @ t.rotation.T - t.translations[c]
        coords = pre[:, t.subspaces[c]]
        assert np.abs(coords.mean(axis=0)).max() < 5.0 / np.sqrt(size)


def test_complement_coordinates_are_zero():
    ds, report = generate(small_spec(seed=3))
    t = report.transform
    pre = ds.points @ t.rotation.T
    size = 120
    for c, (start, stop) in enumerate([(0, size), (size, 2 * size)]):
        off = np.setdiff1d(np.arange(32), t.subspaces[c])
        np.testing.assert_allclose(
            (pre[start:stop] - t.translations[c])[:, off], 0.0, atol=1e-9
        )


def test_benchmark_suite_counts():
    small = SynthSpec(cluster_size=40)
    suite = [generate(spec)[0] for spec in suite_specs(30, range(2, 33, 2), template=small)]
    assert len(suite) == 480
    assert len({ds.name for ds in suite}) == 480

    one = suite_specs(1, [8], seed0=5, template=small)
    assert len(one) == 1
    meta = generate(one[0])[0].name
    assert "d1-8" in meta and "d2-8" in meta

    with pytest.raises(ValueError, match="reps"):
        suite_specs(0, [8])
    with pytest.raises(ValueError, match="dim_c2"):
        suite_specs(1, [40], template=small)


def test_suite_specs_seed_schedule_is_replicate_major():
    template = SynthSpec(cluster_size=40, dim_c1=4)
    specs = suite_specs(2, [4, 8, 2], seed0=10, template=template)
    assert [(s.dim_c2, s.seed) for s in specs] == [
        (4, 10), (8, 11), (2, 12), (4, 13), (8, 14), (2, 15)
    ]
    assert {(s.cluster_size, s.dim_c1) for s in specs} == {(40, 4)}
    with pytest.raises(ValueError, match="ambient"):
        suite_specs(1, [33])


def test_retry_cap_reports_seed(monkeypatch):
    # zero translation keeps both clusters at the origin, so every attempt
    # finds points inside both reject shells and regenerates
    monkeypatch.setattr(synthgen, "TRANSLATION_RANGE", (0.0, 0.0))
    monkeypatch.setattr(synthgen, "MAX_RETRIES", 3)
    with pytest.raises(RuntimeError, match=r"persisted for 3 regenerations \(seed 77\)"):
        generate(SynthSpec(cluster_size=50, dim_c2=4, seed=77))


def test_spec_validation():
    with pytest.raises(ValueError, match="dimensions"):
        SynthSpec(dim_c2=33)
    with pytest.raises(ValueError, match="cluster_size"):
        SynthSpec(cluster_size=1)


def test_sidecar_metadata_consistent():
    spec = small_spec()
    ds, report = generate(spec)
    meta = sidecar_metadata(spec, report)
    assert meta["dim_c1"] == 8 and meta["dim_c2"] == 4
    assert meta["outliers_c1"] + meta["outliers_c2"] == int(ds.labels.sum())
