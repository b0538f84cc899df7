"""CSV ingestion, serialization, and the model-to-dataset synthesizer."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from pytest import approx

from kshrink import (
    CanonicalModel,
    ParseError,
    canonicalize_ksample,
    canonicalize_regression,
    read_ksample_csv,
    read_regression_csv,
    write_ksample_csv,
)
from kshrink.datasets import quote_cell


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReadKsample:
    def test_with_header(self, tmp_path):
        path = write_lines(tmp_path, "d.csv", [
            "group,x1,x2",
            "a,1.0,2.0",
            "b,3.0,4.0",
            "a,5.0,6.0",
        ])
        groups, labels = read_ksample_csv(path)
        assert labels == ["a", "b"]
        assert groups[0] == approx(np.array([[1.0, 2.0], [5.0, 6.0]]))
        assert groups[1] == approx(np.array([[3.0, 4.0]]))

    def test_without_header(self, tmp_path):
        path = write_lines(tmp_path, "d.csv", [
            "1,0.5,0.5",
            "2,1.5,1.5",
        ])
        groups, labels = read_ksample_csv(path)
        assert labels == ["1", "2"]
        assert groups[0].shape == (1, 2)

    def test_groups_keep_first_appearance_order(self, tmp_path):
        path = write_lines(tmp_path, "d.csv", [
            "z,1.0",
            "a,2.0",
            "z,3.0",
        ])
        _, labels = read_ksample_csv(path)
        assert labels == ["z", "a"]

    def test_bad_cell_reports_column(self, tmp_path):
        # The column count includes the label column. A bad first row is
        # test_mistyped_first_row_is_an_error.
        path = write_lines(tmp_path, "d.csv", [
            "a,1.0,2.0",
            "b,2.0,oops",
        ])
        with pytest.raises(ParseError, match=r"d\.csv:2: column 3"):
            read_ksample_csv(path)

    def test_mistyped_first_row_is_an_error(self, tmp_path):
        # One numeric value cell makes the first row data, not a header,
        # so its mistyped cell is reported instead of the row being dropped.
        path = write_lines(tmp_path, "d.csv", [
            "1,0.5,O.5,1",
            "1,0.4,0.6,1.2",
            "1,0.7,0.1,0.9",
        ])
        with pytest.raises(ParseError) as info:
            read_ksample_csv(path)
        assert str(info.value) == f"{path}:1: column 3 is not numeric: 'O.5'"

    def test_line_numbers_count_the_lines_of_a_multi_line_label(self, tmp_path):
        # The label "a\nb" spans lines 2 and 3, so the bad cell is on line 4.
        path = write_lines(tmp_path, "d.csv", ["group,x1", '"a', 'b",1.0', "2,zz"])
        with pytest.raises(ParseError) as info:
            read_ksample_csv(path)
        assert str(info.value) == f"{path}:4: column 2 is not numeric: 'zz'"

    def test_empty_label(self, tmp_path):
        path = write_lines(tmp_path, "d.csv", [
            ",1.0,2.0",
            "b,2.0,3.0",
        ])
        with pytest.raises(ParseError, match="empty group label"):
            read_ksample_csv(path)

    def test_single_column(self, tmp_path):
        path = write_lines(tmp_path, "d.csv", ["justone"])
        with pytest.raises(ParseError, match="group column plus value"):
            read_ksample_csv(path)



def ksample_values(path):
    """The value columns of a multi-sample file, rows in group order."""
    return np.vstack(read_ksample_csv(path)[0])


def regression_values(path):
    """The response and covariate columns of one regression file, read as two groups."""
    designs, responses, _ = read_regression_csv([path, path])
    return np.column_stack([responses[0], designs[0]])


@pytest.mark.parametrize("read", [
    pytest.param(ksample_values, id="ksample"),
    pytest.param(regression_values, id="regression"),
])
class TestEitherLayout:
    def test_blank_lines_skipped(self, tmp_path, read):
        path = write_lines(tmp_path, "d.csv", [
            "group,x1",
            "",
            "1,1.0",
            "   ",
            "2,2.0",
        ])
        assert read(path)[:, -1].tolist() == [1.0, 2.0]

    def test_empty_file(self, tmp_path, read):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            read(str(path))

    def test_header_only(self, tmp_path, read):
        path = write_lines(tmp_path, "d.csv", ["group,x1,x2"])
        with pytest.raises(ParseError, match="header only"):
            read(path)

    def test_ragged_row_reports_line(self, tmp_path, read):
        path = write_lines(tmp_path, "d.csv", [
            "group,x1,x2",
            "1,1.0,2.0",
            "1,1.0",
        ])
        with pytest.raises(ParseError, match=r"d\.csv:3"):
            read(path)

    def test_missing_file(self, tmp_path, read):
        with pytest.raises(ParseError, match="No such file"):
            read(str(tmp_path / "nope.csv"))

    def test_cell_past_the_field_limit_reports_line(self, tmp_path, read):
        # The csv module refuses a cell longer than 131,072 characters.
        path = write_lines(tmp_path, "d.csv", ["group,x1", "1,1.0", "2," + "1" * 140_000])
        with pytest.raises(ParseError, match=r"d\.csv:3: field larger than field limit"):
            read(path)

    def test_file_that_is_not_utf8_is_named(self, tmp_path, read):
        path = tmp_path / "d.csv"
        path.write_bytes(b"group,x1\n1,1.0\xff\n")
        with pytest.raises(ParseError, match=r"d\.csv: not UTF-8: .*0xff"):
            read(str(path))


# Labels come already stripped, as the reader strips them; ASCII holds every
# character that makes a cell need quoting.
LABELS = st.text(st.characters(codec="ascii"), min_size=1, max_size=6).map(str.strip).filter(bool)


@st.composite
def labelled_groups(draw):
    """Groups of one width, each with its own label, over every float64 including NaN."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    p = draw(st.integers(1, 4))
    groups = [
        draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), p), elements=st.floats()))
        for _ in labels
    ]
    return groups, labels


def same_bits(a, b):
    """a and b hold the same float64 bits, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))
    )


class TestWriteKsample:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        groups = [rng.normal(size=(3, 4)), rng.normal(size=(2, 4)) * 1e-7]
        path = str(tmp_path / "out.csv")
        write_ksample_csv(path, groups)
        back, labels = read_ksample_csv(path)
        assert labels == ["1", "2"]
        for orig, got in zip(groups, back):
            assert np.array_equal(orig, got)

    def test_custom_labels(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_ksample_csv(path, [np.ones((1, 2)), np.zeros((1, 2))], ["ctl", "trt"])
        _, labels = read_ksample_csv(path)
        assert labels == ["ctl", "trt"]

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(data=labelled_groups())
    @example(data=(
        [np.array([[np.inf, -np.inf, -0.0], [5e-324, np.nan, -2.2250738585072009e-308]]),
         np.array([[0.0, 1e308, -1.5]])],
        ['a,"b"\r\nc', "'x'"],
    ))
    def test_round_trip_property(self, tmp_path_factory, data):
        groups, labels = data
        path = str(tmp_path_factory.mktemp("rt") / "out.csv")
        write_ksample_csv(path, groups, labels)
        back, back_labels = read_ksample_csv(path)
        assert back_labels == labels
        assert len(back) == len(groups)
        for orig, got in zip(groups, back):
            assert same_bits(orig, got)

    @pytest.mark.parametrize("groups, labels, message", [
        pytest.param([], None, "no groups", id="no-groups"),
        pytest.param([np.ones((1, 2))] * 2, ["a"], "1 labels for 2 groups", id="fewer-labels"),
        pytest.param([np.ones((1, 2))] * 2, ["a", "b", "c"], "3 labels for 2 groups",
                     id="more-labels"),
        pytest.param([np.ones((1, 2))] * 2, ["a", " a "], "distinct once stripped",
                     id="labels-equal-once-stripped"),
        pytest.param([np.ones((1, 2))] * 2, ["a", " "], "non-empty", id="blank-label"),
        pytest.param([np.ones((1, 2))] * 2, [" ctl", "trt "], r"stripped of their whitespace: "
                     r"\[' ctl', 'trt '\]", id="padded-labels"),
        pytest.param([np.ones((1, 2))] * 2, ["ctl", "trt\t"], r"whitespace: \['trt\\t'\]",
                     id="trailing-tab"),
        pytest.param([np.ones((1, 2)), np.zeros((0, 2))], None, r"group 2 has shape \(0, 2\)",
                     id="no-rows"),
        pytest.param([np.ones((1, 2)), np.ones((1, 3))], None, r"group 2 has shape \(1, 3\)",
                     id="mixed-widths"),
        pytest.param([np.zeros((2, 0))] * 2, None, r"group 1 has shape \(2, 0\)", id="width-0"),
        pytest.param([np.ones((1, 2, 2))] * 2, None, r"group 1 has shape \(1, 2, 2\)",
                     id="3-d"),
    ])
    def test_refuses_what_would_not_read_back(self, tmp_path, groups, labels, message):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=message):
            write_ksample_csv(str(path), groups, labels)
        assert not path.exists()

    def test_vector_group_becomes_one_row(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_ksample_csv(path, [np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        back, _ = read_ksample_csv(path)
        assert back[0].shape == (1, 2)


class TestReadRegression:
    def make_pair(self, tmp_path):
        a = write_lines(tmp_path, "north.csv", [
            "y,z1,z2",
            "1.0,1.0,0.0",
            "2.0,1.0,1.0",
            "2.5,1.0,2.0",
        ])
        b = write_lines(tmp_path, "south.csv", [
            "y,z1,z2",
            "0.5,1.0,0.5",
            "1.5,1.0,1.5",
            "3.0,1.0,2.5",
        ])
        return [a, b]

    def test_happy_path(self, tmp_path):
        designs, responses, labels = read_regression_csv(self.make_pair(tmp_path))
        assert labels == ["north", "south"]
        assert designs[0].shape == (3, 2)
        assert responses[1] == approx(np.array([0.5, 1.5, 3.0]))
        assert designs[1][2] == approx(np.array([1.0, 2.5]))
        assert all(a.flags.c_contiguous for a in designs + responses)

    def test_covariate_count_must_agree(self, tmp_path):
        a = write_lines(tmp_path, "a.csv", ["1.0,1.0", "2.0,2.0"])
        b = write_lines(tmp_path, "b.csv", ["1.0,1.0,3.0", "2.0,2.0,4.0"])
        with pytest.raises(ParseError, match="other files have"):
            read_regression_csv([a, b])

    def test_line_numbers_count_the_lines_of_a_multi_line_header(self, tmp_path):
        # The header cell "response\n(y)" spans lines 1 and 2, so the short row is line 4.
        a = write_lines(tmp_path, "a.csv", ['"response', '(y)",z1', "1.0,1.0", "2.0"])
        with pytest.raises(ParseError) as info:
            read_regression_csv([a, a])
        assert str(info.value) == f"{a}:4: expected 2 columns, got 1"

    def test_needs_two_files(self, tmp_path):
        a = write_lines(tmp_path, "a.csv", ["1.0,1.0", "2.0,2.0"])
        with pytest.raises(ParseError, match="at least 2"):
            read_regression_csv([a])

    def test_single_column_file(self, tmp_path):
        a = write_lines(tmp_path, "a.csv", ["1.0", "2.0"])
        with pytest.raises(ParseError, match="response column plus covariates"):
            read_regression_csv([a])

    def test_bad_response_cell(self, tmp_path):
        files = self.make_pair(tmp_path)
        extra = write_lines(tmp_path, "west.csv", [
            "y,z1,z2",
            "high,1.0,0.0",
        ])
        with pytest.raises(ParseError, match=r"west\.csv:2: column 1"):
            read_regression_csv(files + [extra])

    def test_mistyped_first_row_is_an_error(self, tmp_path):
        # A numeric covariate makes the first row data, not a header.
        a = write_lines(tmp_path, "a.csv", [
            "high,1.0",
            "2.0,1.0",
            "3.0,2.0",
        ])
        with pytest.raises(ParseError) as info:
            read_regression_csv([a, a])
        assert str(info.value) == f"{a}:1: column 1 is not numeric: 'high'"


class TestQuoteCell:
    TEXTS = ["g1", "a,b", 'say "hi"', '"', "", " padded ", "line\nbreak", "cr\rhere", "a;b", "x'y"]

    @pytest.mark.parametrize("text", TEXTS)
    def test_matches_the_csv_writer(self, text):
        buf = io.StringIO()
        csv.writer(buf).writerow([text, "x"])
        assert quote_cell(text) + ",x\r\n" == buf.getvalue()

    def test_round_trips_through_the_csv_reader(self):
        line = ",".join(quote_cell(t) for t in self.TEXTS)
        assert next(csv.reader(io.StringIO(line))) == self.TEXTS


def model_to_ksample(model) -> tuple[list[np.ndarray], np.ndarray]:
    """Synthesize a two-observation-per-group dataset matching a model.

    Returns (groups, v0) such that the multi-sample reduction of the
    result reproduces the model's x exactly, its per-group scale matrices
    (v0[i] = 2 v[i], halved again by the group size), and its s up to
    rounding. The reduction's degrees of freedom are k * p, fixed by the
    two-observation layout, and will differ from the source model's n in
    general; callers comparing against the source model should compare x,
    v and s only.
    """
    k, p = model.x.shape
    v0 = 2.0 * model.v
    chol = np.linalg.cholesky(v0)
    scale = np.sqrt(model.s / (2.0 * k))
    groups = []
    for i in range(k):
        delta = scale * chol[i, :, 0]
        groups.append(np.stack([model.x[i] + delta, model.x[i] - delta]))
    return groups, v0


class TestModelToKsample:
    def test_reduction_recovers_model(self):
        rng = np.random.default_rng(21)
        k, p = 3, 2
        v = np.empty((k, p, p))
        for i in range(k):
            m = rng.normal(size=(p, p))
            v[i] = m @ m.T + p * np.eye(p)
        model = CanonicalModel(x=rng.normal(size=(k, p)), v=v, s=7.3, n=9)
        groups, v0 = model_to_ksample(model)
        reduced = canonicalize_ksample(groups, v0)
        assert reduced.x == approx(model.x, rel=1e-12, abs=1e-12)
        assert reduced.v == approx(model.v, rel=1e-12)
        assert reduced.s == approx(model.s, rel=1e-10)
        # Two observations per group fix the degrees of freedom at k * p,
        # regardless of the source model's count.
        assert reduced.n == k * p

    def test_survives_a_csv_cycle(self, tmp_path):
        model = CanonicalModel(
            x=np.array([[0.0, 0.0], [1.0, 2.0]]),
            v=np.array([np.eye(2), 2.0 * np.eye(2)]),
            s=4.0,
            n=6,
        )
        groups, v0 = model_to_ksample(model)
        path = str(tmp_path / "synth.csv")
        write_ksample_csv(path, groups)
        back, _ = read_ksample_csv(path)
        for orig, got in zip(groups, back):
            assert np.array_equal(orig, got)
        reduced = canonicalize_ksample(back, v0)
        assert reduced.x == approx(model.x, abs=1e-12)
        assert reduced.s == approx(model.s, rel=1e-12)


class TestRegressionReductionFromFiles:
    def test_files_feed_the_reduction(self, tmp_path):
        a = write_lines(tmp_path, "g1.csv", [
            "y,z1",
            "1.0,1.0",
            "2.0,1.0",
            "3.0,1.0",
        ])
        b = write_lines(tmp_path, "g2.csv", [
            "y,z1",
            "4.0,1.0",
            "6.0,1.0",
        ])
        designs, responses, _ = read_regression_csv([a, b])
        model = canonicalize_regression(designs, responses)
        # Intercept-only fits: coefficient = group mean, scale = 1/m_i.
        assert model.x == approx(np.array([[2.0], [5.0]]))
        assert model.v[0] == approx(np.array([[1.0 / 3.0]]))
        assert model.v[1] == approx(np.array([[0.5]]))
        assert model.s == approx(2.0 + 2.0)  # residual sums of squares
        assert model.n == 3  # (3 - 1) + (2 - 1)
