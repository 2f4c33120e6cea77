import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpl.graph import GraphError, heterophily_ratio
from gpl.synth import (
    DatasetError,
    PlantedConfig,
    binarize_labels,
    generate_planted,
    load_dataset,
    make_pu_split,
    save_dataset,
)

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
IDS = st.integers(-2, 5) | st.integers(-(2**70), 2**70)


@st.composite
def dataset_files(draw):
    """Lines of edges.tsv, features.csv and labels.txt for n nodes: ids and
    labels up to and past the int64 range, any floats, and sometimes one
    more line of arbitrary text in one of the files."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    files = [
        draw(st.lists(st.tuples(IDS, IDS).map(lambda t: f"{t[0]}\t{t[1]}"), max_size=6)),
        draw(st.lists(st.lists(st.floats(), min_size=d, max_size=d).map(
            lambda r: ",".join(map(repr, r))), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(["+1", "-1"]) | IDS.map(str), min_size=n, max_size=n)),
    ]
    if draw(st.booleans()):
        lines = files[draw(st.integers(0, 2))]
        lines.insert(draw(st.integers(0, len(lines))), draw(TEXT))
    return files


class TestGeneratePlanted:
    def test_pure_homophily(self):
        g = generate_planted(PlantedConfig(n=300, pi_p=0.4, h=0.0, avg_degree=8, seed=1))
        assert heterophily_ratio(g) <= 0.03

    def test_half_heterophily(self):
        cfg = PlantedConfig(n=1000, pi_p=0.5, h=0.5, avg_degree=10, seed=2)
        g = generate_planted(cfg)
        assert 0.47 <= heterophily_ratio(g) <= 0.53

    def test_deterministic(self):
        cfg = PlantedConfig(n=200, pi_p=0.3, h=0.6, avg_degree=6, seed=5)
        a, b = generate_planted(cfg), generate_planted(cfg)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_positive_count(self):
        g = generate_planted(PlantedConfig(n=250, pi_p=0.3, h=0.2, avg_degree=5, seed=0))
        assert (g.labels == 1).sum() == int(0.3 * 250)

    def test_degree_near_target(self):
        g = generate_planted(PlantedConfig(n=500, pi_p=0.5, h=0.3, avg_degree=12, seed=3))
        assert abs(g.degrees().mean() - 12) / 12 <= 0.1

    def test_feature_separation_visible(self):
        cfg = PlantedConfig(n=400, pi_p=0.5, h=0.5, avg_degree=6,
                            feature_dim=4, feature_separation=2.0, seed=4)
        g = generate_planted(cfg)
        mu_pos = g.features[g.labels == 1, 0].mean()
        mu_neg = g.features[g.labels == -1, 0].mean()
        assert mu_pos - mu_neg > 3.0  # means at +2 and -2, noise ~1/sqrt(200)

    def test_infeasible_errors_with_range(self):
        # 2 positives offer 2*(n-2) cross pairs; demand more cross edges than exist
        cfg = PlantedConfig(n=40, pi_p=0.05, h=1.0, avg_degree=12, seed=0)
        with pytest.raises(GraphError, match="achievable"):
            generate_planted(cfg)

    @staticmethod
    def positive_shares(g):
        """Each class's mean share of positive neighbours, and the standard
        error of their difference, over the nodes with an edge."""
        deg = g.degrees()
        pos_nb = np.bincount(g.edges.ravel(), weights=(g.labels[g.edges[:, ::-1]] == 1).ravel(), minlength=g.n)
        share = pos_nb[deg > 0] / deg[deg > 0]
        by_class = [share[g.labels[deg > 0] == c] for c in (1, -1)]
        se = np.sqrt(sum(s.var(ddof=1) / s.size for s in by_class))
        return by_class[0].mean(), by_class[1].mean(), se

    @pytest.mark.parametrize("pi_p, h_star", [(0.25, 0.375), (0.5, 0.5)])
    def test_classes_see_one_neighbour_mix_at_h_star(self, pi_p, h_star):
        # a positive's expected positive share is 0.2(1-h)/(0.2(1-h)+h) at
        # pi_p=0.25, a negative's h/(h+1.8(1-h)): equal at h*=0.375 (README)
        pos, neg, se = self.positive_shares(generate_planted(PlantedConfig(n=4000, pi_p=pi_p, h=h_star, seed=0)))
        assert abs(pos - neg) < 4 * se
        assert abs(pos - pi_p) < 4 * se
        # away from h* the mixes part by many standard errors (0.079 / 0.565 at pi_p=0.25, h=0.7)
        pos, neg, se = self.positive_shares(generate_planted(PlantedConfig(n=4000, pi_p=pi_p, h=0.7, seed=0)))
        assert neg - pos > 40 * se

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           h=st.floats(0.0, 1.0),
           pi=st.floats(0.2, 0.8))
    def test_heterophily_tracks_target(self, seed, h, pi):
        cfg = PlantedConfig(n=300, pi_p=pi, h=h, avg_degree=8, seed=seed)
        try:
            g = generate_planted(cfg)
        except GraphError:
            return  # infeasible corner, reported rather than mis-generated
        assert abs(heterophily_ratio(g) - h) <= 0.03

    def test_config_validation(self):
        with pytest.raises(GraphError):
            PlantedConfig(n=10, pi_p=0.0)
        with pytest.raises(GraphError):
            PlantedConfig(n=10, h=1.5)
        with pytest.raises(GraphError):
            PlantedConfig(n=10, avg_degree=0.5)

    @pytest.mark.parametrize("bad,why", [
        (dict(n=1), "n must be >= 2"),
        (dict(n=-5), "n must be >= 2"),
        (dict(feature_dim=0), "feature_dim must be >= 1"),
        (dict(avg_degree=float("inf")), "avg_degree must be finite"),
        (dict(avg_degree=float("nan")), "avg_degree must be finite"),
        (dict(feature_separation=float("nan")), "feature_separation must be finite"),
        (dict(feature_separation=float("-inf")), "feature_separation must be finite"),
        # counts and the seed are integers, not cast: n=10.5 reported an infeasible h
        (dict(n=10.5), "n must be an integer, got 10.5"),
        (dict(n=True), "n must be an integer, got True"),
        (dict(feature_dim=2.5), "feature_dim must be an integer, got 2.5"),
        (dict(seed=-1), "seed must be >= 0"),
        (dict(seed=1.0), "seed must be an integer, got 1.0"),
    ])
    def test_config_rejects(self, bad, why):
        with pytest.raises(GraphError, match=why):
            PlantedConfig(**bad)

    def test_smallest_config_generates(self):
        g = generate_planted(PlantedConfig(n=2, pi_p=0.5, h=1.0, avg_degree=1.0, feature_dim=1))
        assert (g.n, g.m, g.features.shape) == (2, 1, (2, 1))


class TestBinarize:
    def test_majority_positive(self):
        np.testing.assert_array_equal(binarize_labels([0, 0, 1, 2]), [1, 1, -1, -1])

    def test_tie_smallest_class_id(self):
        np.testing.assert_array_equal(binarize_labels([1, 1, 0, 0]), [-1, -1, 1, 1])

    def test_single_class_errors(self):
        with pytest.raises(DatasetError, match="class"):
            binarize_labels([3, 3, 3])


class TestMakePuSplit:
    @pytest.mark.parametrize("seed, why", [(-1, "seed must be >= 0"), (1.5, "seed must be an integer, got 1.5"),
                                           (False, "seed must be an integer, got False")])
    def test_seed_is_a_checked_integer(self, two_blocks, seed, why):
        with pytest.raises(DatasetError, match=f"^{re.escape(why)}$"):
            make_pu_split(two_blocks, 0.5, seed=seed)

    def test_full_observation(self, two_blocks):
        split = make_pu_split(two_blocks, 1.0, seed=0)
        assert split.pi_true == 0.0
        assert (two_blocks.labels[split.U] == -1).all()

    def test_counts(self):
        g = generate_planted(PlantedConfig(n=400, pi_p=0.25, h=0.3, avg_degree=6, seed=1))
        split = make_pu_split(g, 0.5, seed=2)  # 100 positives, 300 negatives
        assert split.P.size == 50
        assert split.U.size == 350
        assert split.pi_true == pytest.approx(50 / 350)

    def test_observed_are_true_positives(self, two_blocks):
        split = make_pu_split(two_blocks, 0.5, seed=9)
        assert (two_blocks.labels[split.P] == 1).all()

    def test_partition(self, two_blocks):
        split = make_pu_split(two_blocks, 0.4, seed=3)
        merged = np.sort(np.concatenate([split.P, split.U]))
        np.testing.assert_array_equal(merged, np.arange(two_blocks.n))

    def test_deterministic(self, two_blocks):
        a = make_pu_split(two_blocks, 0.5, seed=11)
        b = make_pu_split(two_blocks, 0.5, seed=11)
        np.testing.assert_array_equal(a.P, b.P)

    def test_pi_true_formula(self):
        g = generate_planted(PlantedConfig(n=300, pi_p=0.4, h=0.2, avg_degree=5, seed=7))
        split = make_pu_split(g, 0.3, seed=7)
        hidden = (g.labels[split.U] == 1).sum()
        assert split.pi_true == pytest.approx(hidden / split.U.size)

    @pytest.mark.parametrize("rp", [0.1, 0.5, 1.0])
    def test_unlabeled_set_matches_setdiff(self, rp):
        g = generate_planted(PlantedConfig(n=500, pi_p=0.3, h=0.4, avg_degree=4, seed=2))
        split = make_pu_split(g, rp, seed=5)
        want = np.setdiff1d(np.arange(g.n), split.P)
        assert split.U.dtype == np.int64 and (np.diff(split.U) > 0).all()
        np.testing.assert_array_equal(split.U, want)

    def test_no_positives_errors(self):
        from gpl.graph import build_graph
        g = build_graph(3, [(0, 1)], np.zeros((3, 2)), np.array([-1, -1, -1]))
        with pytest.raises(DatasetError, match="positive"):
            make_pu_split(g, 0.5, seed=0)

    def test_no_observed_positive_names_rp_and_count(self):
        g = generate_planted(PlantedConfig(n=60, h=0.3, seed=0))  # 15 positives
        with pytest.raises(DatasetError, match=r"r_p=0\.01 observes 0 of 15 positives"):
            make_pu_split(g, 0.01, seed=0)

    def test_empty_unlabeled_set_names_rp_and_count(self):
        from gpl.graph import build_graph
        g = build_graph(3, [(0, 1)], np.zeros((3, 2)), np.array([1, 1, 1]))
        with pytest.raises(DatasetError, match=r"r_p=1 observes all 3 positives.*U is empty"):
            make_pu_split(g, 1.0, seed=0)


class TestDatasetIO:
    def test_roundtrip_identity(self, two_blocks, tmp_path):
        save_dataset(two_blocks, tmp_path)
        g2 = load_dataset(tmp_path)
        assert g2.n == two_blocks.n
        np.testing.assert_array_equal(g2.edges, two_blocks.edges)
        np.testing.assert_array_equal(g2.labels, two_blocks.labels)
        np.testing.assert_allclose(g2.features, two_blocks.features, rtol=1e-15)

    def test_layout(self, two_blocks, tmp_path):
        save_dataset(two_blocks, tmp_path)
        for name in ("edges.tsv", "features.csv", "labels.txt"):
            assert (tmp_path / name).exists()

    def test_malformed_edge_reports_line(self, two_blocks, tmp_path):
        save_dataset(two_blocks, tmp_path)
        edges = tmp_path / "edges.tsv"
        lines = edges.read_text().splitlines()
        lines[4] = "a\tb"
        edges.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"edges\.tsv:5"):
            load_dataset(tmp_path)

    def test_missing_file_errors(self, two_blocks, tmp_path):
        save_dataset(two_blocks, tmp_path)
        (tmp_path / "labels.txt").unlink()
        with pytest.raises(DatasetError, match="labels.txt"):
            load_dataset(tmp_path)

    def test_row_count_mismatch(self, two_blocks, tmp_path):
        save_dataset(two_blocks, tmp_path)
        feats = tmp_path / "features.csv"
        lines = feats.read_text().splitlines()
        feats.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DatasetError):
            load_dataset(tmp_path)

    def test_nan_feature_rejected(self, two_blocks, tmp_path):
        save_dataset(two_blocks, tmp_path)
        feats = tmp_path / "features.csv"
        lines = feats.read_text().splitlines()
        lines[3] = ",".join(["nan"] * len(lines[3].split(",")))
        feats.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"features\.csv:4: unparseable feature row: 'nan,"):
            load_dataset(tmp_path)

    def test_inf_feature_line_counts_blank_lines(self, two_blocks, tmp_path):
        # a blank line is skipped, so it shifts the row index but not the
        # line the error names
        save_dataset(two_blocks, tmp_path)
        feats = tmp_path / "features.csv"
        lines = [""] + feats.read_text().splitlines()
        lines[4] = "inf" + lines[4][lines[4].index(","):]
        feats.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"features\.csv:5: unparseable feature row: 'inf,"):
            load_dataset(tmp_path)

    def test_edge_id_beyond_int64_names_file_and_line(self, two_blocks, tmp_path):
        save_dataset(two_blocks, tmp_path)
        edges = tmp_path / "edges.tsv"
        lines = edges.read_text().splitlines()
        lines[1] = "0\t99999999999999999999999"
        edges.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"edges\.tsv:2: unparseable edge"):
            load_dataset(tmp_path)

    def test_undecodable_bytes_name_file_and_line(self, two_blocks, tmp_path):
        save_dataset(two_blocks, tmp_path)
        labels = tmp_path / "labels.txt"
        lines = labels.read_bytes().splitlines()
        lines[6] = b"+\xff1"
        labels.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DatasetError, match=r"labels\.txt:7: unparseable label"):
            load_dataset(tmp_path)

    def test_single_class_labels_name_the_directory(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n")
        (tmp_path / "labels.txt").write_text("3\n3\n")
        with pytest.raises(DatasetError, match=re.escape(f"{tmp_path}: need at least two")):
            load_dataset(tmp_path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(files=dataset_files())
    def test_fuzzed_lines_load_or_name_the_path(self, tmp_path, files):
        for name, lines in zip(("edges.tsv", "features.csv", "labels.txt"), files):
            (tmp_path / name).write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        try:
            g = load_dataset(tmp_path)
        except DatasetError as exc:
            assert str(tmp_path) in str(exc)
        else:
            with open(tmp_path / "labels.txt", encoding="utf-8") as f:
                assert g.n == sum(1 for ln in f if ln.strip())

    def test_multiclass_labels_binarized(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n1\t2\n2\t3\n")
        (tmp_path / "features.csv").write_text("1.0\n2.0\n3.0\n4.0\n")
        (tmp_path / "labels.txt").write_text("0\n0\n1\n2\n")
        g = load_dataset(tmp_path)
        np.testing.assert_array_equal(g.labels, [1, 1, -1, -1])
