import numpy as np
import pytest

from lotnn import data
from lotnn.errors import DataError
from lotnn.data import (
    LabeledDataset,
    PointCloud,
    SyntheticSpec,
    gen_synthetic,
    load_csv_dir,
    save_csv_dir,
    split,
)
from lotnn.nncore import Rng
from lotnn.otsolve import exact_w2_discrete


@pytest.mark.parametrize("dim", [1, 2, 10])
@pytest.mark.parametrize("base", ["gaussian", "mixture", "ring"])
@pytest.mark.parametrize("scale_jitter", [0.0, 0.3])
@pytest.mark.parametrize("shift_bound", [0.0, 1.0])
def test_every_cloud_is_scale_times_base_plus_shift(dim, base, scale_jitter, shift_bound):
    spec = SyntheticSpec(dim=dim, base=base, scale_jitter=scale_jitter,
                         shift_bound=shift_bound)
    ds = gen_synthetic(spec, n_clouds_per_class=3, n_points=20, seed=11)
    rng = Rng(11)
    for label in (0, 1):
        center = np.zeros(dim)
        center[0] = (label - 0.5) * spec.separation
        pts = data._base_points(spec, center, 20, rng.spawn(100 + label))
        for c in (ds.cloud(cid) for cid in ds.class_ids(label)):
            want = c.meta["scale"] * pts + np.asarray(c.meta["shift"])
            assert c.points.tobytes() == want.tobytes()
            assert c.meta["scale"] == 1.0 or scale_jitter > 0
            assert (np.linalg.norm(c.meta["shift"]) == 0.0) == (shift_bound == 0.0)


class TestSyntheticGenerator:
    def test_no_transform_reproduces_bases(self):
        spec = SyntheticSpec(shift_bound=0.0, scale_jitter=0.0)
        ds = gen_synthetic(spec, n_clouds_per_class=1, n_points=50, seed=1)
        assert len(ds.clouds) == 2
        assert sorted(ds.labels.values()) == [0, 1]

    def test_clouds_within_class_are_shifts_of_one_base(self):
        spec = SyntheticSpec(shift_bound=1.0)
        ds = gen_synthetic(spec, n_clouds_per_class=3, n_points=40, seed=2)
        c0 = [c for c in ds.clouds if ds.labels[c.id] == 0]
        diff = c0[1].points - c0[0].points
        assert np.max(np.abs(diff - diff[0])) < 1e-12

    def test_shift_bound_respected(self):
        spec = SyntheticSpec(shift_bound=0.7)
        ds = gen_synthetic(spec, n_clouds_per_class=25, n_points=5, seed=3)
        for c in ds.clouds:
            assert np.linalg.norm(c.meta["shift"]) <= 0.7 + 1e-12

    def test_known_shift_difference_matches_exact_ot(self):
        spec = SyntheticSpec(shift_bound=1.5, base_scale=0.5)
        ds = gen_synthetic(spec, n_clouds_per_class=4, n_points=200, seed=4)
        c0 = [c for c in ds.clouds if ds.labels[c.id] == 0]
        a0 = np.asarray(c0[0].meta["shift"])
        a1 = np.asarray(c0[1].meta["shift"])
        want = float(np.linalg.norm(a1 - a0))
        got = exact_w2_discrete(c0[0].points, c0[1].points)
        assert abs(got - want) <= 0.1

    def test_deterministic(self):
        spec = SyntheticSpec()
        d1 = gen_synthetic(spec, 2, 30, seed=9)
        d2 = gen_synthetic(spec, 2, 30, seed=9)
        for a, b in zip(d1.clouds, d2.clouds):
            assert a.id == b.id and np.array_equal(a.points, b.points)

    def test_invalid_counts_rejected(self):
        with pytest.raises(DataError):
            gen_synthetic(SyntheticSpec(), 0, 10, seed=0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        ds = gen_synthetic(SyntheticSpec(), 3, 25, seed=5)
        save_csv_dir(ds, tmp_path)
        loaded = load_csv_dir(tmp_path, subsample_n=100, seed=0)
        assert sorted(loaded.ids) == sorted(ds.ids)
        for c in ds.clouds:
            assert np.array_equal(loaded.cloud(c.id).points, c.points)
            assert loaded.labels[c.id] == ds.labels[c.id]

    def test_undersized_cloud_flagged(self, tmp_path):
        (tmp_path / "cloud_a.csv").write_text("1.0,2.0\n3.0,4.0\n")
        (tmp_path / "labels.csv").write_text("id,label\na,1\n")
        ds = load_csv_dir(tmp_path, subsample_n=1000, seed=0)
        assert ds.cloud("a").n == 2
        assert ds.cloud("a").meta["undersized"]

    def test_incomplete_rows_dropped(self, tmp_path):
        (tmp_path / "cloud_a.csv").write_text(
            "1.0,2.0\n1.0,,3.0\nnan,2.0\n5.0,6.0\n")
        (tmp_path / "labels.csv").write_text("id,label\na,0\n")
        ds = load_csv_dir(tmp_path, subsample_n=10, seed=0)
        assert ds.cloud("a").n == 2
        assert ds.cloud("a").meta["dropped_rows"] == 2

    @pytest.mark.parametrize("lines, width", [
        (["1,2", "3,4", "5,6,7", "8,9,10"], 2),
        (["5,6,7", "8,9,10", "1,2", "3,4"], 3),
        (["5,6,7", "1,2", "8,9,10", "3,4"], 3),
    ])
    def test_width_tie_keeps_the_first_seen_width(self, tmp_path, lines, width):
        (tmp_path / "cloud_a.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "labels.csv").write_text("id,label\na,0\n")
        cloud = load_csv_dir(tmp_path, subsample_n=10, seed=0).cloud("a")
        assert cloud.points.shape == (2, width)
        assert cloud.meta["dropped_rows"] == 2

    def test_dim_mismatch_between_files_rejected(self, tmp_path):
        (tmp_path / "cloud_a.csv").write_text("1.0,2.0\n")
        (tmp_path / "cloud_b.csv").write_text("1.0,2.0,3.0\n")
        (tmp_path / "labels.csv").write_text("id,label\na,0\nb,1\n")
        with pytest.raises(DataError):
            load_csv_dir(tmp_path, subsample_n=10, seed=0)

    def test_missing_labels_rejected(self, tmp_path):
        (tmp_path / "cloud_a.csv").write_text("1.0,2.0\n")
        with pytest.raises(DataError):
            load_csv_dir(tmp_path, subsample_n=10, seed=0)

    def test_subsample_deterministic(self, tmp_path, rng):
        pts = rng.normal((100, 2))
        ds = LabeledDataset([PointCloud("a", pts), PointCloud("b", pts + 1)],
                            {"a": 0, "b": 1})
        save_csv_dir(ds, tmp_path)
        l1 = load_csv_dir(tmp_path, subsample_n=20, seed=7)
        l2 = load_csv_dir(tmp_path, subsample_n=20, seed=7)
        assert np.array_equal(l1.cloud("a").points, l2.cloud("a").points)
        assert l1.cloud("a").n == 20

    def test_repeated_label_id_rejected(self, tmp_path):
        (tmp_path / "cloud_a.csv").write_text("1.0,2.0\n")
        (tmp_path / "labels.csv").write_text("id,label\na,0\na,1\n")
        with pytest.raises(DataError, match="repeats id 'a'"):
            load_csv_dir(tmp_path, subsample_n=10, seed=0)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_writer_bytes_match_the_row_writer(self, tmp_path, rng, dim):
        pts = rng.normal((40, dim)) * 10.0 ** rng.uniform((40, dim), -300, 300)
        pts[0] = -0.0
        pts[1] = [0.1] * dim
        save_csv_dir(LabeledDataset([PointCloud("a", pts)], {"a": 0}), tmp_path)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:  # one write per row
            fh.write(f"#dim={dim}\n")
            for row in pts.tolist():
                fh.write(",".join(map(repr, row)) + "\n")
        assert (tmp_path / "cloud_a.csv").read_bytes() == want.read_bytes()

    def test_dim_header_respected(self, tmp_path):
        (tmp_path / "cloud_a.csv").write_text("#dim=2\n1.0,2.0\n1.0,2.0,9.0\n")
        (tmp_path / "labels.csv").write_text("id,label\na,0\n")
        ds = load_csv_dir(tmp_path, subsample_n=10, seed=0)
        assert ds.cloud("a").n == 1 and ds.cloud("a").dim == 2


class TestSplit:
    def _dataset(self, n_pos, n_neg, rng):
        clouds, labels = [], {}
        for i in range(n_pos):
            cid = f"p{i:03d}"
            clouds.append(PointCloud(cid, rng.normal((3, 2))))
            labels[cid] = 1
        for i in range(n_neg):
            cid = f"n{i:03d}"
            clouds.append(PointCloud(cid, rng.normal((3, 2))))
            labels[cid] = 0
        return LabeledDataset(clouds, labels)

    def test_paper_scale_counts(self, rng):
        ds = self._dataset(43, 316, rng)
        train, val, test = split(ds, seed=0)
        assert len(train.class_ids(1)) == 21
        assert len(train.class_ids(0)) == 42
        assert len(val.class_ids(1)) == 2    # floor(0.1 * 22)
        assert len(val.class_ids(0)) == 27   # floor(0.1 * 274)
        assert len(test.clouds) == 359 - 63 - 29

    def test_smallest_viable(self, rng):
        train, val, test = split(self._dataset(2, 4, rng), seed=1)
        assert len(train.class_ids(1)) == 1
        assert len(train.class_ids(0)) == 2

    def test_partition(self, rng):
        ds = self._dataset(11, 40, rng)
        train, val, test = split(ds, seed=3)
        all_ids = sorted(train.ids + val.ids + test.ids)
        assert all_ids == sorted(ds.ids)

    def test_two_to_one_ratio(self, rng):
        for n_pos, n_neg in [(10, 30), (7, 20), (43, 316)]:
            train, _, _ = split(self._dataset(n_pos, n_neg, rng), seed=2)
            assert len(train.class_ids(0)) == 2 * len(train.class_ids(1))

    def test_deterministic(self, rng):
        ds = self._dataset(9, 25, rng)
        t1 = split(ds, seed=5)
        t2 = split(ds, seed=5)
        for a, b in zip(t1, t2):
            assert a.ids == b.ids

    def test_insufficient_negatives_rejected(self, rng):
        with pytest.raises(DataError):
            split(self._dataset(10, 8, rng), seed=0)

    def test_single_class_rejected(self, rng):
        clouds = [PointCloud(f"c{i}", rng.normal((3, 2))) for i in range(4)]
        ds = LabeledDataset(clouds, {c.id: 1 for c in clouds})
        with pytest.raises(DataError):
            split(ds, seed=0)
