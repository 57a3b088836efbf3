import numpy as np
import pytest

from effridge import (
    CsvParseError,
    Dataset,
    DuplicateRowError,
    InvalidInputError,
    generate_clusters,
    generate_sinusoid,
    generate_spectrum,
)
from effridge.datasets import read_csv_table


class TestSinusoid:
    def test_labels_are_sine_of_abscissae(self):
        ds, _ = generate_sinusoid(4)
        assert np.array_equal(ds.y, np.sin(ds.X.ravel()))

    def test_test_grid_spacing(self):
        _, test_X = generate_sinusoid(4, n_test=100)
        x = test_X.ravel()
        assert x[0] == 0.0
        assert np.allclose(np.diff(x), 2 * np.pi / 100)

    def test_train_in_range(self):
        ds, _ = generate_sinusoid(50, seed=3)
        assert np.all((ds.X >= 0) & (ds.X < 2 * np.pi))

    def test_deterministic(self):
        a, _ = generate_sinusoid(5, seed=8)
        b, _ = generate_sinusoid(5, seed=8)
        assert np.array_equal(a.X, b.X)

    def test_f_star_on_test_grid(self):
        ds, test_X = generate_sinusoid(4, n_test=10)
        assert np.array_equal(ds.f_star, np.sin(test_X.ravel()))


class TestClusters:
    def test_shapes_and_labels(self):
        ds, test_X = generate_clusters(n=20, n_test=10, dim=3)
        assert ds.X.shape == (20, 3)
        assert test_X.shape == (10, 3)
        assert set(np.unique(ds.y)) == {-1.0, 1.0}
        assert set(np.unique(ds.f_star)) == {-1.0, 1.0}

    def test_balanced(self):
        ds, _ = generate_clusters(n=40, n_test=10)
        assert np.sum(ds.y == 1.0) == 20

    def test_deterministic(self):
        a, ta = generate_clusters(n=10, n_test=4, seed=2)
        b, tb = generate_clusters(n=10, n_test=4, seed=2)
        assert np.array_equal(a.X, b.X) and np.array_equal(ta, tb)

    def test_cluster_centers_separate(self):
        ds, _ = generate_clusters(n=400, n_test=2, dim=5, separation=3.0, seed=0)
        mu_pos = ds.X[ds.y == 1].mean(axis=0)
        mu_neg = ds.X[ds.y == -1].mean(axis=0)
        assert np.linalg.norm(mu_pos - mu_neg) == pytest.approx(3.0, abs=0.5)


class TestSpectrum:
    def test_exponential_first_value(self):
        assert generate_spectrum("exponential", 3)[0] == 1.0

    def test_exponential_third_value(self):
        assert generate_spectrum("exponential", 3)[2] == pytest.approx(np.exp(-1.0))

    def test_polynomial(self):
        assert generate_spectrum("polynomial", 4)[3] == pytest.approx(0.25)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            generate_spectrum("geometric", 4)


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_two_row_file(self, tmp_path):
        t = read_csv_table(self.write(tmp_path, "x_0,y\n0,1\n1,-1\n"))
        assert t.shape == (2, 2)
        assert np.array_equal(t[:, -1], [1.0, -1.0])
        assert np.array_equal(t[:, 0], [0.0, 1.0])

    def test_row_order_preserved(self, tmp_path):
        t = read_csv_table(self.write(tmp_path, "x_0,y\n5,0\n1,1\n3,2\n"))
        assert np.array_equal(t[:, 0], [5.0, 1.0, 3.0])

    def test_nan_cell_names_line(self, tmp_path):
        with pytest.raises(CsvParseError) as err:
            read_csv_table(self.write(tmp_path, "x_0,y\n0,1\nnan,2\n"))
        assert err.value.line == 3

    def test_duplicate_rows_rejected(self, tmp_path):
        t = read_csv_table(self.write(tmp_path, "x_0,y\n1,0\n1,0\n"))
        with pytest.raises(DuplicateRowError):
            Dataset(X=t[:, :-1], y=t[:, -1])

    def test_bad_header(self, tmp_path):
        with pytest.raises(CsvParseError) as err:
            read_csv_table(self.write(tmp_path, "a,b\n1,2\n"))
        assert err.value.line == 1

    def test_inconsistent_column_count(self, tmp_path):
        with pytest.raises(CsvParseError) as err:
            read_csv_table(self.write(tmp_path, "x_0,x_1,y\n1,2,3\n1,2\n"))
        assert err.value.line == 3

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(CsvParseError) as err:
            read_csv_table(self.write(tmp_path, "x_0,y\n1,2\nfoo,3\n"))
        assert err.value.line == 3

    def test_max_rows_stops_before_the_tail(self, tmp_path):
        # Blank lines do not count; the bad cell after the second row is never parsed.
        t = read_csv_table(self.write(tmp_path, "x_0,y\n0,1\n\n1,2\nfoo,3\n"), max_rows=2)
        assert np.array_equal(t, [[0.0, 1.0], [1.0, 2.0]])

    def test_line_endings_and_numbers_match_splitlines(self, tmp_path):
        # CR, CRLF and form-feed line breaks; line 4 is the empty line the form feed ends.
        with pytest.raises(CsvParseError) as err:
            read_csv_table(self.write(tmp_path, "x_0,y\r0,1\r\n1,2\x0c\n2,x\n"))
        assert err.value.line == 5

    def test_invalid_utf8_is_a_parse_error(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes(b"x_0,y\n0,1\n\xff,2\n")
        with pytest.raises(CsvParseError, match="not valid UTF-8") as err:
            read_csv_table(p)
        assert err.value.line is None

    def test_multidimensional(self, tmp_path):
        t = read_csv_table(self.write(tmp_path, "x_0,x_1,y\n0,1,0.5\n2,3,-0.5\n"))
        assert t.shape == (2, 3)
