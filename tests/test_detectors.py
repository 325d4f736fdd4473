import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daodet.detectors import score_dao, score_knn, score_lof, score_slof
from daodet.neighbors import build_neighbor_graph, euclidean

from conftest import fake_graph, fake_profile


def naive_lof(points, k):
    """Independent two-pass reference: dict-based, python loops."""
    n = len(points)
    nn, kd = {}, {}
    for i in range(n):
        pairs = sorted(
            (float(euclidean(points[i], points[j])), j) for j in range(n) if j != i
        )
        nn[i] = [j for _, j in pairs[:k]]
        kd[i] = pairs[k - 1][0]
    lrd = {}
    for i in range(n):
        reach = [max(kd[s], float(euclidean(points[i], points[s]))) for s in nn[i]]
        lrd[i] = k / sum(reach)
    return np.array([sum(lrd[o] for o in nn[i]) / (k * lrd[i]) for i in range(n)])


def test_knn_hand_case():
    g = build_neighbor_graph(np.array([[0.0], [1.0], [3.0]]), kmax=2)
    np.testing.assert_allclose(score_knn(g, 1).scores, [1.0, 1.0, 2.0])


def test_knn_symmetric_grid_interior_equal():
    xs, ys = np.meshgrid(np.arange(6.0), np.arange(6.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    g = build_neighbor_graph(pts, kmax=4)
    sv = score_knn(g, 4)
    interior = [i for i, p in enumerate(pts) if 0 < p[0] < 5 and 0 < p[1] < 5]
    assert np.ptp(sv.scores[interior]) == 0.0


def test_knn_matches_kth_smallest(rng):
    pts = rng.standard_normal((100, 4))
    g = build_neighbor_graph(pts, kmax=12)
    for k in (1, 5, 12):
        expected = np.array(
            [
                sorted(float(euclidean(pts[i], pts[j])) for j in range(100) if j != i)[k - 1]
                for i in range(100)
            ]
        )
        np.testing.assert_array_equal(score_knn(g, k).scores, expected)


def test_slof_hand_case():
    # query kdist 2 with neighbor kdists {1, 4}: (2/1 + 2/4)/2 = 1.25
    g = fake_graph([[1, 2], [0, 2], [0, 1]], [[1.0, 2.0], [0.5, 1.0], [3.0, 4.0]])
    sv = score_slof(g, 2)
    assert sv.scores[0] == 1.25


def test_slof_symmetric_square_is_one():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    g = build_neighbor_graph(pts, kmax=3)
    for k in (1, 2, 3):
        np.testing.assert_allclose(score_slof(g, k).scores, 1.0, atol=1e-15)


def test_lof_hand_case_frozen():
    # points {0, 1, 3} at k=2; lrd values 2/5, 1/3, 2/5 give these scores
    g = build_neighbor_graph(np.array([[0.0], [1.0], [3.0]]), kmax=2)
    sv = score_lof(g, 2)
    np.testing.assert_allclose(sv.scores, [11.0 / 12.0, 1.2, 11.0 / 12.0], rtol=1e-14)


def test_lof_three_point_line_k1():
    g = build_neighbor_graph(np.array([[0.0], [1.0], [2.0]]), kmax=2)
    np.testing.assert_allclose(score_lof(g, 1).scores, [1.0, 1.0, 1.0], rtol=1e-14)


def test_lof_uniform_lattice_interior_is_one():
    pts = np.arange(30.0)[:, None]
    g = build_neighbor_graph(pts, kmax=2)
    scores = score_lof(g, 2).scores
    np.testing.assert_allclose(scores[3:-3], 1.0, atol=1e-12)


def test_lof_matches_naive_reference(rng):
    pts = rng.standard_normal((100, 4))
    g = build_neighbor_graph(pts, kmax=15)
    for k in (3, 10, 15):
        np.testing.assert_allclose(score_lof(g, k).scores, naive_lof(pts, k), rtol=1e-12)


def test_dao_hand_case():
    # neighbors (kdist 1, id 1) and (kdist 4, id 2): ((2/1)^1 + (2/4)^2)/2
    g = fake_graph([[1, 2], [0, 2], [0, 1]], [[1.0, 2.0], [0.5, 1.0], [3.0, 4.0]])
    sv = score_dao(g, 2, fake_profile([5.0, 1.0, 2.0]))
    np.testing.assert_allclose(sv.scores[0], 1.125, rtol=1e-14)
    assert sv.lid_estimator == "mle"


def test_dao_equal_kdist_gives_one(rng):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    g = build_neighbor_graph(pts, kmax=2)
    ids = fake_profile(rng.uniform(0.1, 50.0, size=4))
    np.testing.assert_allclose(score_dao(g, 2, ids).scores, 1.0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 8), st.sampled_from([2, 8, 32]))
def test_dao_with_unit_ids_equals_slof(seed, k, dim):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((40, dim))
    g = build_neighbor_graph(pts, kmax=k)
    dao = score_dao(g, k, fake_profile(np.ones(40)))
    slof = score_slof(g, k)
    np.testing.assert_allclose(dao.scores, slof.scores, rtol=0, atol=1e-12)


def seed_dao_exponents(g, k, ids):
    """id(o) * ln(kdist(q) / kdist(o)) as DAO was first written."""
    kd = g.distances[:, k - 1]
    nb = g.indices[:, :k]
    return ids[nb] * (np.log(kd)[:, None] - np.log(kd)[nb])


@pytest.mark.parametrize("clip_bites", [False, True])
def test_dao_kernel_bitwise_equals_seed_formula(rng, clip_bites):
    n, kmax = 60, 12
    indices = np.array([rng.choice(np.delete(np.arange(n), i), kmax, replace=False)
                        for i in range(n)])
    if clip_bites:  # kdists spread over 26 decades, ids at the 4*d cap
        distances = np.sort(np.exp(rng.uniform(-30.0, 30.0, (n, kmax))), axis=1)
        ids = rng.uniform(1.0, 128.0, n)
        ids[:10] = 128.0
    else:
        distances = np.sort(rng.uniform(0.5, 2.0, (n, kmax)), axis=1)
        ids = rng.uniform(0.5, 16.0, n)
    g = fake_graph(indices, distances)
    for k in (1, 5, kmax):
        exponents = seed_dao_exponents(g, k, ids)
        if k > 1:
            assert (np.abs(exponents).max() > 700) == clip_bites
        expected = np.exp(np.clip(exponents, -700, 700)).mean(axis=1)
        got = score_dao(g, k, fake_profile(ids)).scores
        assert np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()


def test_dao_lid_length_checked(rng):
    pts = rng.standard_normal((10, 2))
    g = build_neighbor_graph(pts, kmax=3)
    with pytest.raises(ValueError, match="length"):
        score_dao(g, 3, fake_profile(np.ones(9)))


def test_k_out_of_range_everywhere(rng):
    pts = rng.standard_normal((10, 2))
    g = build_neighbor_graph(pts, kmax=3)
    prof = fake_profile(np.ones(10))
    for call in (
        lambda: score_knn(g, 4),
        lambda: score_lof(g, 0),
        lambda: score_slof(g, 4),
        lambda: score_dao(g, 4, prof),
    ):
        with pytest.raises(ValueError, match="out of range"):
            call()


def test_scaling_behaviour(rng):
    pts = rng.standard_normal((60, 3))
    c = 37.5
    g1 = build_neighbor_graph(pts, kmax=8)
    g2 = build_neighbor_graph(pts * c, kmax=8)
    np.testing.assert_allclose(score_knn(g2, 8).scores, c * score_knn(g1, 8).scores, rtol=1e-12)
    np.testing.assert_allclose(score_slof(g2, 8).scores, score_slof(g1, 8).scores, rtol=1e-12)
    np.testing.assert_allclose(score_lof(g2, 8).scores, score_lof(g1, 8).scores, rtol=1e-12)
    ids = fake_profile(rng.uniform(0.5, 4.0, size=60))
    np.testing.assert_allclose(
        score_dao(g2, 8, ids).scores, score_dao(g1, 8, ids).scores, rtol=1e-12
    )


def test_permutation_invariance(rng):
    pts = rng.standard_normal((40, 3))
    perm = rng.permutation(40)
    ids = rng.uniform(0.5, 4.0, size=40)
    g = build_neighbor_graph(pts, kmax=6)
    gp = build_neighbor_graph(pts[perm], kmax=6)
    for name, scorer in (
        ("knn", lambda g_, p_: score_knn(g_, 6).scores),
        ("lof", lambda g_, p_: score_lof(g_, 6).scores),
        ("slof", lambda g_, p_: score_slof(g_, 6).scores),
        ("dao", lambda g_, p_: score_dao(g_, 6, fake_profile(p_)).scores),
    ):
        base = scorer(g, ids)
        permuted = scorer(gp, ids[perm])
        np.testing.assert_allclose(base[perm], permuted, rtol=1e-12, err_msg=name)


def test_knn_monotone_in_outlier_distance(rng):
    cluster = rng.standard_normal((30, 2))
    prev = -np.inf
    for shift in (3.0, 5.0, 10.0, 50.0):
        pts = np.vstack([cluster, [[shift, 0.0]]])
        g = build_neighbor_graph(pts, kmax=5)
        score = score_knn(g, 5).scores[-1]
        assert score >= prev
        prev = score


def test_scores_csv_export(tmp_path, rng):
    from daodet.detectors import write_scores_csv

    pts = rng.standard_normal((20, 2))
    g = build_neighbor_graph(pts, kmax=5)
    sv = score_slof(g, 5)
    out = tmp_path / "scores.csv"
    write_scores_csv(sv, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "point_index,score"
    assert len(lines) == 21
    assert float(lines[1].split(",")[1]) == sv.scores[0]


def test_all_scores_finite_and_positive_on_extreme_data(rng):
    # tight cluster plus far-flung outliers stress the dao exponential
    pts = np.vstack(
        [
            rng.standard_normal((50, 3)) * 1e-6,
            rng.standard_normal((5, 3)) * 1e6,
        ]
    )
    g = build_neighbor_graph(pts, kmax=10)
    ids = fake_profile(np.full(55, 12.0))
    for sv in (
        score_knn(g, 10),
        score_lof(g, 10),
        score_slof(g, 10),
        score_dao(g, 10, ids),
    ):
        assert np.isfinite(sv.scores).all()
        if sv.detector != "knn":
            assert (sv.scores > 0).all()
