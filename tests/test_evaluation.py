import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from daodet.evaluation import (
    IncompleteGridError,
    SweepConfig,
    _midranks,
    dispersion_R,
    evaluate_dataset,
    friedman_nemenyi,
    morans_I,
    morans_I_maxmag,
    nemenyi_q,
    ols_regression,
    read_records_csv,
    roc_auc,
    time_detector,
    time_detectors,
    write_records_csv,
)
from daodet.dataset import Dataset
from daodet.lid import FeatureUnavailableError
from daodet.neighbors import build_neighbor_graph
from daodet.synthgen import SynthSpec, generate

from conftest import dao_kernel_data, fake_graph, fake_profile


def pairwise_auc(scores, labels):
    """All-pairs oracle: wins + half ties over (outlier, inlier) pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_roc_auc_perfect_ranking():
    assert roc_auc(np.array([1.0, 2, 3, 4]), np.array([0, 0, 1, 1])) == 1.0


def test_roc_auc_all_tied_is_half():
    assert roc_auc(np.ones(10), np.r_[np.zeros(5), np.ones(5)]) == 0.5


def test_roc_auc_single_class_errors():
    with pytest.raises(ValueError, match="both classes"):
        roc_auc(np.arange(4.0), np.zeros(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_roc_auc_equals_pairwise_oracle(seed, quantize):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    scores = rng.standard_normal(n)
    if quantize:  # force plenty of exact ties
        scores = np.round(scores * 2) / 2
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_roc_auc_antisymmetry_and_monotone_invariance(seed):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.standard_normal(40), 1)
    labels = rng.integers(0, 2, 40)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    a = roc_auc(scores, labels)
    assert a + roc_auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)
    assert roc_auc(np.exp(scores) * 3 + 1, labels) == pytest.approx(a, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.integers(-4, 4).map(lambda v: v / 2.0),  # heavy ties
                st.floats(-100, 100).map(lambda v: round(v, 1)),
                st.sampled_from([np.inf, -np.inf]),
            ),
            st.integers(0, 1),
        ),
        min_size=2,
        max_size=80,
    ),
    st.one_of(st.none(), st.integers(0, 79)),
)
@example([(-0.0, 1), (0.0, 0), (1.0, 0), (0.0, 1)], None)  # -0.0 ties 0.0
def test_roc_auc_matches_rankdata_formula_bitwise(pairs, nan_at):
    s = np.array([v for v, _ in pairs])
    y = np.array([c for _, c in pairs])
    assume(0 < y.sum() < len(y))
    if nan_at is not None:
        s[nan_at % len(s)] = np.nan
    n_pos, n_neg = int(y.sum()), int(len(y) - y.sum())
    expected = (stats.rankdata(s)[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    got = roc_auc(s, y)
    if nan_at is not None:
        assert np.isnan(got) and np.isnan(expected)
    else:
        assert got == expected


def test_dispersion_examples():
    assert dispersion_R(np.full(10, 3.7)) == 0.0
    assert dispersion_R(np.array([np.e, np.e**3])) == pytest.approx(2.0, abs=1e-12)


def test_dispersion_matches_double_loop(rng):
    ids = rng.uniform(0.1, 30.0, size=100)
    logs = np.log(ids)
    brute = sum(
        abs(logs[i] - logs[j]) for i in range(100) for j in range(i + 1, 100)
    ) * 2.0 / (100 * 99)
    assert dispersion_R(ids) == pytest.approx(brute, abs=1e-10)
    assert dispersion_R(fake_profile(ids)) == pytest.approx(brute, abs=1e-10)


def test_dispersion_scale_invariant(rng):
    ids = rng.uniform(0.5, 8.0, size=50)
    assert dispersion_R(ids * 123.4) == pytest.approx(dispersion_R(ids), abs=1e-12)


def morans_brute(values, graph, k):
    """Direct double-sum evaluation with explicit row-normalized weights."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    w = np.zeros((n, n))
    for i in range(n):
        for j in graph.indices[i, :k]:
            w[i, j] = 1.0 / k
    z = x - x.mean()
    return (n / w.sum()) * (z @ w @ z) / (z @ z)


def lattice_graph(n=60, kmax=6):
    return build_neighbor_graph(np.arange(float(n))[:, None], kmax=kmax)


def test_morans_constant_errors():
    g = lattice_graph()
    with pytest.raises(ValueError, match="undefined"):
        morans_I(np.ones(60), g, 2)


def test_morans_smooth_field_positive_and_matches_brute():
    g = lattice_graph()
    values = np.linspace(0.0, 1.0, 60)
    i2 = morans_I(values, g, 2)
    assert i2 > 0
    assert i2 == pytest.approx(morans_brute(values, g, 2), abs=1e-12)
    rng = np.random.default_rng(4)
    noisy = values + rng.standard_normal(60) * 0.05
    for k in (1, 3, 5):
        assert morans_I(noisy, g, k) == pytest.approx(morans_brute(noisy, g, k), abs=1e-12)


def test_morans_peak_is_one_block():
    n, k = 4000, 100
    rng = np.random.default_rng(3)
    indices = (np.arange(n)[:, None] + rng.integers(1, n, (n, k))) % n
    g = fake_graph(indices, np.sort(rng.uniform(0.5, 2.0, (n, k)), axis=1))
    values = rng.standard_normal(n)
    tracemalloc.start()
    try:
        morans_I(values, g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * k * 8


def test_morans_permutation_null(rng):
    g = lattice_graph()
    values = np.linspace(0.0, 1.0, 60)
    sims = [morans_I(rng.permutation(values), g, 3) for _ in range(300)]
    expected = -1.0 / (60 - 1)
    se = np.std(sims) / np.sqrt(len(sims))
    assert abs(np.mean(sims) - expected) < 3 * se


def test_morans_maxmag_matches_exhaustive(rng):
    g = lattice_graph()
    values = np.sin(np.arange(60) / 5.0) + rng.standard_normal(60) * 0.1
    ks = range(1, 7)
    by_k = [(morans_I(values, g, k), k) for k in ks]
    expected = max(by_k, key=lambda t: (abs(t[0]), -t[1]))
    assert morans_I_maxmag(values, g, ks) == expected


def test_morans_maxmag_single_k_and_tie_rule():
    g = lattice_graph()
    values = np.linspace(0, 1, 60)
    i5, k5 = morans_I_maxmag(values, g, [5])
    assert k5 == 5 and i5 == morans_I(values, g, 5)
    # exact tie constructed by repeating one k: smallest comes first
    assert morans_I_maxmag(values, g, [4, 4])[1] == 4


def test_ols_exact_line():
    x = np.arange(10.0)
    res = ols_regression(x, 2.0 * x)
    assert res.slope == pytest.approx(2.0, abs=1e-12)
    assert res.intercept == pytest.approx(0.0, abs=1e-12)
    assert res.pearson_rho == pytest.approx(1.0, abs=1e-12)
    assert res.p_value < 1e-10


def test_ols_matches_scipy(rng):
    for _ in range(10):
        x = rng.standard_normal(25)
        y = 0.4 * x + rng.standard_normal(25)
        res = ols_regression(x, y)
        ref = stats.linregress(x, y)
        assert res.slope == pytest.approx(ref.slope, rel=1e-10)
        assert res.intercept == pytest.approx(ref.intercept, rel=1e-10)
        assert res.pearson_rho == pytest.approx(ref.rvalue, rel=1e-10)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-7)


def test_ols_null_pvalues_uniformish(rng):
    # under independence p < 0.05 should occur for roughly 5% of trials
    hits = 0
    trials = 400
    for _ in range(trials):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        if ols_regression(x, y).p_value < 0.05:
            hits += 1
    # Binomial(400, 0.05): +-4 sd band
    assert 6 <= hits <= 38


def test_ols_validation(rng):
    with pytest.raises(ValueError, match="zero variance"):
        ols_regression(np.ones(5), rng.standard_normal(5))
    with pytest.raises(ValueError, match="at least 3"):
        ols_regression(np.arange(2.0), np.arange(2.0))


def test_friedman_two_methods_total_order():
    table = np.array([[0.9, 0.5], [0.8, 0.4], [0.7, 0.3]])
    ranks, _ = friedman_nemenyi(table)
    np.testing.assert_array_equal(ranks, [1.0, 2.0])


def test_friedman_all_tied():
    ranks, _ = friedman_nemenyi(np.full((4, 3), 0.75))
    np.testing.assert_array_equal(ranks, [2.0, 2.0, 2.0])


def test_friedman_matches_sort_oracle(rng):
    table = rng.random((10, 4))
    ranks, cd = friedman_nemenyi(table, alpha=0.05)
    oracle = np.zeros(4)
    for row in table:
        order = sorted(range(4), key=lambda j: -row[j])
        for pos, j in enumerate(order):
            oracle[j] += pos + 1
    oracle /= 10
    np.testing.assert_allclose(ranks, oracle, atol=1e-12)
    assert cd == pytest.approx(2.569032 * np.sqrt(4 * 5 / 60.0), abs=1e-5)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 10).flatmap(  # Nemenyi q is tabulated for 2..10 methods
        lambda m: st.lists(
            st.lists(
                st.one_of(
                    st.integers(-3, 3).map(lambda v: v / 4.0),  # heavy ties
                    st.floats(0, 1).map(lambda v: round(v, 1)),
                ),
                min_size=m,
                max_size=m,
            ),
            min_size=2,
            max_size=6,
        )
    )
)
def test_midranks_equal_rankdata_bitwise(rows):
    table = np.array(rows)
    for row in table:
        order, edges, midranks = _midranks(-row)
        ranks = np.empty(row.size)
        ranks[order] = np.repeat(midranks, np.diff(edges))
        assert ranks.tobytes() == stats.rankdata(-row, method="average").tobytes()
    # so friedman_nemenyi's average ranks (ranks.csv) match the rankdata ones
    ranks, _ = friedman_nemenyi(table)
    expected = np.vstack([stats.rankdata(-row, method="average") for row in table]).mean(axis=0)
    assert ranks.tobytes() == expected.tobytes()


def test_nemenyi_q_against_studentized_range():
    for alpha in (0.10, 0.05, 0.01):
        for m in (2, 4, 7, 10):
            ref = stats.studentized_range.ppf(1 - alpha, m, np.inf) / np.sqrt(2)
            assert nemenyi_q(alpha, m) == pytest.approx(ref, abs=1e-5)
    with pytest.raises(ValueError, match="not tabulated"):
        nemenyi_q(1e-16, 4)


def test_friedman_invariant_under_monotone_transforms(rng):
    table = rng.random((8, 4))
    ranks, _ = friedman_nemenyi(table)
    # a different strictly increasing transform per dataset row
    warped = np.vstack([np.exp((i + 1) * row) + i for i, row in enumerate(table)])
    ranks2, _ = friedman_nemenyi(warped)
    np.testing.assert_allclose(ranks, ranks2, atol=1e-12)


def test_friedman_validation():
    with pytest.raises(ValueError, match="at least 2"):
        friedman_nemenyi(np.array([[0.9, 0.5]]))
    with pytest.raises(IncompleteGridError):
        friedman_nemenyi(np.array([[0.9, np.nan], [0.8, 0.4]]))


# ---------------------------------------------------------------------------
# sweeps on a small synthetic dataset
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_ds():
    return generate(SynthSpec(cluster_size=150, dim_c2=2, seed=5))[0]


def test_best_k_sweep_argmax_and_tie(monkeypatch, small_ds):
    # scripted AUC profile: best at k=10 with a tie at k=20
    from daodet import evaluation as ev

    profile = {5: 0.7, 10: 0.9, 20: 0.9}

    def fake_auc(scores, labels):
        return profile[scores.k]

    monkeypatch.setattr(ev, "roc_auc", fake_auc)
    config = SweepConfig(("knn",), k_range=[5, 10, 20], lid_k_grid=[5])
    (rec,) = ev.evaluate_dataset(small_ds, config)
    assert rec.best_k == 10 and rec.roc_auc == 0.9


def test_dao_sweep_is_argmax_of_every_pair(monkeypatch, small_ds):
    from daodet import evaluation as ev
    from daodet.detectors import score_dao
    from daodet.lid import estimate_profile

    g = build_neighbor_graph(small_ds, 20)
    det_ks = [5, 10, 15]
    profiles = {lk: estimate_profile("mle", g, lk) for lk in (20, 5, 10)}
    pairs = [(k, lk) for k in det_ks for lk in profiles]
    aucs = {(k, lk): roc_auc(score_dao(g, k, profiles[lk]), small_ds.labels) for k, lk in pairs}
    auc, k, lk = max((aucs[p], -p[0], -p[1]) for p in pairs)
    assert ev._best_config(g, small_ds.labels, "dao", det_ks, profiles) == (auc, -k, -lk)

    # scripted ties: the smallest detector k wins, then the smallest LID k
    script = {(5, 20): 0.8, (10, 20): 0.9, (10, 10): 0.9, (15, 5): 0.9}
    by_scores = {
        score_dao(g, k, profiles[lk]).scores.tobytes(): script.get((k, lk), 0.5)
        for k, lk in pairs
    }
    assert len(by_scores) == len(pairs)
    monkeypatch.setattr(ev, "roc_auc", lambda scores, labels: by_scores[scores.tobytes()])
    assert ev._best_config(g, small_ds.labels, "dao", det_ks, profiles) == (0.9, 10, 10)


def _reference_records(ds, config, graph):
    """evaluate_dataset's records by brute force: every baseline k and every
    (k, LID k) DAO pair scored, with a profile estimated at each grid k."""
    from daodet.detectors import SCORERS, score_dao
    from daodet.lid import estimate_profile

    det_ks, lid_ks, _ = config.grids(ds.n)
    profiles = {lk: estimate_profile(config.lid_estimator, graph, lk) for lk in lid_ks}
    best = {}
    for det in config.detectors:
        for k in det_ks:
            if det == "dao":
                candidates = [(score_dao(graph, k, profiles[lk]), lk) for lk in lid_ks]
            else:
                candidates = [(SCORERS[det](graph, k), None)]
            for scores, lk in candidates:
                auc = roc_auc(scores, ds.labels)
                if det not in best or auc > best[det][0]:
                    best[det] = (auc, k, lk)
    ref = profiles[best["dao"][2] if "dao" in best else lid_ks[-1]]
    mi, mk = morans_I_maxmag(ref.log_ids, graph, det_ks)
    return [
        (det, auc, k, lk, dispersion_R(ref), mi, mk) for det, (auc, k, lk) in best.items()
    ]


@pytest.mark.parametrize("estimator, kernel_calls", [("twonn", 3), ("mle", 9)])
@pytest.mark.parametrize("detectors", [("knn", "lof", "slof", "dao"), ("knn", "slof")])
def test_dao_sweeps_each_distinct_profile_once(
    detectors, estimator, kernel_calls, monkeypatch, small_ds
):
    # twonn ignores k, so DAO scores one profile per detector k; mle scores
    # every (k, LID k) pair. Either way the records are those of the sweep
    # over every pair.
    from daodet import evaluation as ev

    config = SweepConfig(
        detectors, k_range=[5, 10, 15], lid_k_grid=[5, 10, 20], lid_estimator=estimator
    )
    g = build_neighbor_graph(small_ds, 20)
    calls = []
    kernel = ev.dao_kernel
    monkeypatch.setattr(ev, "dao_kernel", lambda *args: calls.append(1) or kernel(*args))
    records = ev.evaluate_dataset(small_ds, config, graph=g)
    assert len(calls) == (kernel_calls if "dao" in detectors else 0)
    got = [
        (r.detector, r.roc_auc, r.best_k, r.best_lid_k, r.dispersion_R, r.morans_I, r.morans_k)
        for r in records
    ]
    assert got == _reference_records(small_ds, config, g)


def test_best_k_sweep_unlabeled_and_k_range(small_ds):
    unlabeled = Dataset(points=small_ds.points, name="nolab")
    with pytest.raises(ValueError, match="labels"):
        evaluate_dataset(unlabeled, SweepConfig(("knn",), k_range=[5]))
    with pytest.raises(ValueError, match="no usable k"):
        evaluate_dataset(small_ds, SweepConfig(("knn",), k_range=[small_ds.n]))


def test_sweep_config_checks_names():
    with pytest.raises(ValueError, match="unknown detector 'bogus'"):
        SweepConfig(detectors=("knn", "bogus"))
    with pytest.raises(ValueError, match="detector 'dao' is named twice"):
        SweepConfig(detectors=("dao", "knn", "dao"))
    with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
        SweepConfig(lid_estimator="bogus")
    with pytest.raises(FeatureUnavailableError, match="tle"):
        SweepConfig(lid_estimator="tle")
    with pytest.raises(ValueError, match="mle needs every LID grid size >= 2, got 1"):
        SweepConfig(lid_k_grid=[5, 1])
    SweepConfig(lid_estimator="twonn", lid_k_grid=[1])


def test_sweep_config_grids():
    config = SweepConfig(k_range=[40, 5, 200, 5])
    assert config.grids(100) == ([5, 40], [5, 10, 15, 30, 50, 90], 90)
    assert config.grids(41) == ([5, 40], [5, 10, 15, 30], 40)
    config = SweepConfig(k_range=[5, 10], lid_k_grid=[20, 3])
    assert config.grids(100) == ([5, 10], [3, 20], 20)
    assert config.grids(12) == ([5, 10], [3], 10)
    with pytest.raises(ValueError, match="no usable k in range for n=4"):
        config.grids(4)  # no detector k fits
    with pytest.raises(ValueError, match="no usable k in range for n=5"):
        SweepConfig(k_range=[2]).grids(5)  # no K_GRID size fits


def test_evaluate_dataset_records(small_ds):
    config = SweepConfig(k_range=range(5, 26, 5), lid_k_grid=[10, 30])
    records = evaluate_dataset(small_ds, config)
    assert [r.detector for r in records] == ["knn", "lof", "slof", "dao"]
    for rec in records:
        assert 0.0 <= rec.roc_auc <= 1.0
        assert rec.best_k in range(5, 26, 5)
        assert rec.dispersion_R == records[0].dispersion_R
        assert rec.morans_I == records[0].morans_I
    dao = records[-1]
    assert dao.lid_estimator == "mle" and dao.best_lid_k in (10, 30)
    assert records[0].lid_estimator is None and records[0].best_lid_k is None


def test_evaluate_dataset_reuses_graph(small_ds):
    config = SweepConfig(k_range=[5, 10], lid_k_grid=[5])
    g = build_neighbor_graph(small_ds, 10)
    records = evaluate_dataset(small_ds, config, graph=g)
    records2 = evaluate_dataset(small_ds, config)
    assert [(r.detector, r.best_k, r.roc_auc) for r in records] == [
        (r.detector, r.best_k, r.roc_auc) for r in records2
    ]
    with pytest.raises(ValueError, match="kmax"):
        evaluate_dataset(small_ds, SweepConfig(k_range=[20], lid_k_grid=[5]), graph=g)


@pytest.mark.parametrize("estimator", ["mle", "twonn"])
@pytest.mark.parametrize(
    "k_range, lid_k_grid",
    [(range(5, 41, 5), [5, 10, 20]), ([5, 10], None)],  # k range above, then below, the grid's top
)
def test_streamed_sweep_equals_the_graph_sweep(estimator, k_range, lid_k_grid, small_ds):
    assert small_ds.n % 64 != 0  # a short last leaf
    config = SweepConfig(k_range=k_range, lid_estimator=estimator, lid_k_grid=lid_k_grid)
    kmax = config.grids(small_ds.n)[2]
    streamed = evaluate_dataset(small_ds, config)
    given = evaluate_dataset(small_ds, config, build_neighbor_graph(small_ds, kmax))
    assert repr(streamed) == repr(given)  # field for field, NaN included


@pytest.mark.parametrize("estimator", ["mle", "twonn"])
def test_streamed_lid_rows_equal_estimate_profile(estimator):
    from daodet import evaluation as ev
    from daodet.lid import K_GRID, estimate_profile

    ds = generate(SynthSpec(cluster_size=420, dim_c2=3, seed=11))[0]
    kmax, keep = K_GRID[-1], 100
    graph, profiles = ev._streamed_inputs(ds, kmax, keep, estimator, list(K_GRID))
    full = build_neighbor_graph(ds, kmax)
    assert graph.kmax == keep
    assert graph.indices.tobytes() == full.indices[:, :keep].tobytes()
    assert graph.distances.tobytes() == full.distances[:, :keep].tobytes()
    # twonn ignores k: one profile, under the grid's first k.
    assert sorted(profiles) == (list(K_GRID) if estimator == "mle" else [K_GRID[0]])
    for lk in K_GRID:
        want = estimate_profile(estimator, full, lk)
        got = profiles[lk if estimator == "mle" else K_GRID[0]]
        assert got.k_used == want.k_used
        assert got.ids.tobytes() == want.ids.tobytes()
        assert got.log_ids.tobytes() == want.log_ids.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("leaf_rows", [64, 4])
def test_stream_raises_like_the_build(leaf_rows, monkeypatch):
    from daodet import neighbors

    monkeypatch.setattr(neighbors, "_LEAF_ROWS", leaf_rows)
    config = SweepConfig(k_range=[5], lid_k_grid=[5])
    non_finite = (
        "non-finite distances in graph: a pairwise distance exceeds the float range"
        " or the input is not finite"
    )
    duplicate = "zero distance in graph: input contains duplicate points"
    for dup, far, message in ((True, False, duplicate), (False, True, non_finite),
                              (True, True, non_finite)):  # the non-finite check comes first
        pts = np.random.default_rng(3).standard_normal((40, 2))
        if dup:
            pts[[2, 30]] = pts[21]
        if far:
            pts[9] = 1.5e308
        # Dataset rejects duplicate rows itself, so this one skips its checks.
        ds = object.__new__(Dataset)
        fields = dict(points=pts, labels=(np.arange(40) % 8 == 0).astype(np.int64), name="bad")
        for name, value in fields.items():
            object.__setattr__(ds, name, value)
        with pytest.raises(ValueError) as streamed:
            evaluate_dataset(ds, config)
        with pytest.raises(ValueError) as built:
            build_neighbor_graph(ds, config.grids(ds.n)[2])
        assert str(streamed.value) == str(built.value) == message


def test_streamed_sweep_never_holds_the_graph():
    # The lowdim benchmark's shape: kmax 780 for the LID grid, k <= 100 for
    # the sweeps. Without a graph, evaluate_dataset keeps the first 100
    # columns and one leaf's rows, so it peaks below one (n, kmax) graph.
    ds = generate(SynthSpec(ambient_dim=2, cluster_size=3200, dim_c1=2, dim_c2=1, seed=42))[0]
    config = SweepConfig(k_range=range(5, 101, 5))
    kmax = config.grids(ds.n)[2]
    assert kmax == 780
    tracemalloc.start()
    try:
        evaluate_dataset(ds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.n * kmax * (4 + 8)


def test_sweep_peak_is_three_blocks_above_the_graph():
    # The DAO sweep's row blocks and the MLE row block, each up to 4 MiB,
    # about 1.1 (n, kmax) blocks here, set the peak. A sweep holding two
    # k's working sets at once, or a temporary per block, exceeds the bound.
    n, kmax = 4000, 120
    rng = np.random.default_rng(23)
    ds = Dataset(
        points=rng.standard_normal((n, 2)),
        labels=(np.arange(n) % 10 == 0).astype(np.int64),
        name="mem",
    )
    indices = (np.arange(n)[:, None] + rng.integers(1, n, (n, kmax))) % n
    graph = fake_graph(indices, np.sort(rng.uniform(0.5, 2.0, (n, kmax)), axis=1))
    config = SweepConfig(k_range=range(5, 101, 5), lid_k_grid=(10, 60, kmax))
    tracemalloc.start()
    try:
        evaluate_dataset(ds, config, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    profiles = len(config.lid_k_grid) * 2 * n * 8
    assert peak <= 3 * n * kmax * 8 + profiles


def test_dao_sweep_peak_is_one_block():
    # One detector k of n * k * 8 = 6.4 MB: a sweep holding the whole
    # neighbor, log-ratio and kernel blocks of that k reads 3 blocks; with
    # row blocks under _BLOCK_BYTES, Moran's I's one (n, k) gather sets the
    # peak.
    n, kmax, k = 8000, 120, 100
    rng = np.random.default_rng(29)
    ds = Dataset(
        points=rng.standard_normal((n, 2)),
        labels=(np.arange(n) % 10 == 0).astype(np.int64),
        name="mem",
    )
    indices = (np.arange(n)[:, None] + rng.integers(1, n, (n, kmax))) % n
    graph = fake_graph(indices, np.sort(rng.uniform(0.5, 2.0, (n, kmax)), axis=1))
    config = SweepConfig(("dao",), k_range=[k], lid_k_grid=(10, 60, kmax))
    tracemalloc.start()
    try:
        evaluate_dataset(ds, config, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    profiles = len(config.lid_k_grid) * 2 * n * 8
    assert peak <= 1.5 * n * k * 8 + profiles


def test_dao_row_blocks_keep_every_score_bit(rng, monkeypatch):
    from daodet import evaluation as ev
    from daodet.detectors import dao_kernel, dao_log_ratios

    g, ids = dao_kernel_data(rng, clip_bites=True)
    ds = Dataset(
        points=rng.standard_normal((g.n, 2)),
        labels=(np.arange(g.n) % 6 == 0).astype(np.int64),
        name="clip",
    )
    # At these scales of the ids the clip bites in every block, is decided
    # block by block, and is never needed.
    profiles = {lk: fake_profile(ids / scale, k_used=lk) for lk, scale in ((2, 1), (3, 4), (4, 8))}
    monkeypatch.setattr(ev, "estimate_profile", lambda estimator, graph, lk: profiles[lk])
    config = SweepConfig(("dao",), k_range=range(1, g.kmax + 1), lid_k_grid=sorted(profiles))
    whole = ev.evaluate_dataset(ds, config, graph=g)

    blocks, scored = [], []

    def kernel(ids, nb, log_ratio, ratio_max):
        exponents = np.abs(np.take(ids, nb) * log_ratio)
        skipped = float(ids.max()) * ratio_max <= 700
        blocks.append((nb.shape, float(ids.max()), skipped, bool((exponents > 700).any())))
        return dao_kernel(ids, nb, log_ratio, ratio_max)

    auc = ev.roc_auc
    monkeypatch.setattr(ev, "dao_kernel", kernel)
    monkeypatch.setattr(ev, "roc_auc", lambda s, y: scored.append(s.copy()) or auc(s, y))
    monkeypatch.setattr(ev, "_BLOCK_BYTES", 3 * 8 * g.kmax * 7)  # 7 rows at k = kmax
    assert ev.evaluate_dataset(ds, config, graph=g) == whole

    runs: dict[tuple[int, float], list] = {}  # (k, max id): (rows, skipped, bites) per block
    for (rows, k), top, skipped, bites in blocks:
        runs.setdefault((k, top), []).append((rows, skipped, bites))
    assert [rows for rows, _, _ in runs[g.kmax, ids.max()]] == [7] * 8 + [4]
    # Some (k, profile) skips the clip in one block and needs it in another.
    assert any(
        any(skipped for _, skipped, _ in run) and any(bites for _, _, bites in run)
        for run in runs.values()
    )
    expected = [
        dao_kernel(profiles[lk].ids, *dao_log_ratios(g, k))
        for k in config.k_range
        for lk in sorted(profiles)
    ]
    assert len(scored) == len(expected)
    for got, want in zip(scored, expected):
        assert got.tobytes() == want.tobytes()


def test_records_csv_roundtrip(tmp_path, small_ds):
    records = evaluate_dataset(small_ds, SweepConfig(k_range=[5, 10], lid_k_grid=[5, 10]))
    # Names that csv must quote, and every optional field both set and None.
    records += [
        replace(records[0], dataset='a, "b" c', runtime_mean_s=0.5, runtime_std_s=0.0),
        replace(records[-1], dataset=" d ", dim_c1=8, dim_c2=2),
    ]
    assert records[0].dim_c1 is None and records[0].runtime_mean_s is None
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert back == records
    with pytest.raises(ValueError, match="columns"):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,detector\nx,knn\n")
        read_records_csv(bad)

    header, first, second = path.read_text().splitlines()[:3]
    cells = first.split(",")  # dataset, detector, lid_estimator, best_k, ...
    for line, column, message in [
        (cells[:-3], "runtime_std_s", "missing cell"),  # a short row
        (cells[:3] + ["five"] + cells[4:], "best_k", "'five'"),
        (cells[:3] + [""] + cells[4:], "best_k", "empty cell"),
        ([""] + cells[1:], "dataset", "empty cell"),
    ]:
        bad.write_text("\n".join([header, second, ",".join(line), ""]))
        with pytest.raises(ValueError) as err:
            read_records_csv(bad)
        assert str(err.value).startswith(f"records file {bad}, line 3, column {column}: ")
        assert message in str(err.value)


def test_records_csv_write_is_atomic(tmp_path, small_ds):
    records = evaluate_dataset(small_ds, SweepConfig(k_range=[5, 10], lid_k_grid=[5, 10]))
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    before = path.read_bytes()

    def failing_midway():
        yield from records[:2]
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_records_csv(failing_midway(), path)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_time_detector_smoke(small_ds):
    mean_s, std_s = time_detector(small_ds, "slof", k_range=[5, 10, 15])
    assert mean_s > 0 and std_s >= 0
    mean_dao, _ = time_detector(small_ds, "dao", k_range=[5, 10], lid_k_grid=[5, 10])
    assert mean_dao > 0
    with pytest.raises(ValueError, match="unknown detector"):
        time_detector(small_ds, "nope", k_range=[5])


def test_timed_scores_deterministic(small_ds):
    # timing never perturbs scoring: the records are the same after a timing pass
    config = SweepConfig(k_range=[5, 10], lid_k_grid=[5, 10])
    before = evaluate_dataset(small_ds, config)
    timed = time_detectors(small_ds, config)
    assert list(timed) == list(config.detectors)
    assert evaluate_dataset(small_ds, config) == before
