"""Dataset loading, standardization, splitting, and the synthetic benchmark."""

import codecs
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsnet import data
from fsnet.config import TrainConfig
from fsnet.data import (
    DataError,
    Dataset,
    SplitSpec,
    load_delimited,
    make_synthetic,
    save_delimited,
    split,
    standardize,
)
from fsnet.trainer import train
from helpers import ref_load_delimited, traced_peak


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- dataset


def test_dataset_validation():
    with pytest.raises(DataError, match="2-D"):
        Dataset(np.zeros(3), np.zeros(3, dtype=np.intp), 2, ["a", "b"])
    with pytest.raises(DataError, match="length 3"):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.intp), 2, ["a", "b"])
    with pytest.raises(DataError, match="non-finite"):
        Dataset(
            np.array([[1.0, np.nan]]), np.array([0]), 2, ["a", "b"]
        )
    with pytest.raises(DataError, match=r"labels must lie in 0\.\.1, found 0\.\.2"):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2, ["a", "b"])
    with pytest.raises(DataError, match="label_names must have one entry per class"):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2, ["a", "b", "c"])
    with pytest.raises(DataError, match="expected 2 feature names, got 3"):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2, ["a", "b"], ["x", "y", "z"])
    # a class without rows is a valid table; training on it is the error
    empty = Dataset(np.zeros((2, 2)), np.array([0, 0]), 2, ["a", "b"])
    with pytest.raises(DataError, match=r"classes \['b'\] have no samples"):
        train(empty, TrainConfig(n_select=1, embed_size=1, encoder=(2,), decoder=(2,)))


def test_dataset_subset_preserves_metadata():
    ds = Dataset(
        np.arange(8.0).reshape(4, 2),
        np.array([0, 1, 0, 1]),
        2,
        ["no", "yes"],
        ["f0", "f1"],
    )
    sub = ds.subset(np.array([1, 2]))
    assert np.array_equal(sub.X, [[2.0, 3.0], [4.0, 5.0]])
    assert np.array_equal(sub.y, [1, 0])
    assert sub.label_names == ["no", "yes"]
    assert sub.feature_names == ["f0", "f1"]
    assert not np.shares_memory(sub.X, ds.X) and not np.shares_memory(sub.y, ds.y)


# ---------------------------------------------------------------- loading


def test_load_first_appearance_label_coding(tmp_path):
    path = write(tmp_path, "f0,f1,label\n1,2,a\n3,4,b\n5,6,a\n")
    ds = load_delimited(path)
    assert ds.y.tolist() == [0, 1, 0]
    assert ds.label_names == ["a", "b"]
    assert ds.feature_names == ["f0", "f1"]
    assert np.array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_load_ragged_row_names_line(tmp_path):
    path = write(tmp_path, "f0,f1,label\n1,2,a\n3,b\n")
    with pytest.raises(DataError, match="line 3"):
        load_delimited(path)


def test_load_non_numeric_cell_names_location(tmp_path):
    path = write(tmp_path, "f0,f1,label\n1,2,a\n3,oops,b\n")
    with pytest.raises(DataError, match="line 3, column 2"):
        load_delimited(path)


def test_load_missing_label_errors(tmp_path):
    path = write(tmp_path, "f0,label\n1,a\n2,\n")
    with pytest.raises(DataError, match="missing label"):
        load_delimited(path)


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = write(tmp_path, "# generated\nf0,label\n\n1,a\n2,b\n")
    ds = load_delimited(path)
    assert ds.n_samples == 2


def test_load_without_header_and_custom_label_column(tmp_path):
    path = write(tmp_path, "a\t1.0\t2.0\nb\t3.0\t4.0\n", name="data.tsv")
    ds = load_delimited(path, delimiter="\t", header=False, label_col=0)
    assert ds.feature_names is None
    assert np.array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.label_names == ["a", "b"]


def test_a_single_class_table_loads_and_train_rejects_it(tmp_path):
    ds = load_delimited(write(tmp_path, "f0,label\n1,a\n2,a\n"))
    assert (ds.n_classes, ds.label_names) == (1, ["a"])
    with pytest.raises(DataError, match="need at least 2 classes, got 1"):
        train(ds, TrainConfig(n_select=1, embed_size=1, encoder=(2,), decoder=(2,)))


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(
        rng.normal(size=(6, 3)),
        np.array([0, 1, 0, 1, 1, 0]),
        2,
        ["neg", "pos"],
        ["a", "b", "c"],
    )
    path = str(tmp_path / "round.csv")
    save_delimited(ds, path)
    again = load_delimited(path)
    assert np.array_equal(again.X, ds.X)
    assert np.array_equal(again.y, ds.y)
    assert again.label_names == ds.label_names
    assert again.feature_names == ds.feature_names


def test_byte_order_mark_on_a_headerless_table_is_ignored(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"1,2,a\n3,4,b\n")
    ds = load_delimited(str(path), header=False)
    assert np.array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])


def test_byte_order_mark_stays_out_of_the_feature_names(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"f0,f1,label\n1,2,a\n3,4,b\n")
    assert load_delimited(str(path)).feature_names == ["f0", "f1"]


def test_byte_order_mark_stays_out_of_the_first_label(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"a,1\nb,2\na,3\n")
    ds = load_delimited(str(path), header=False, label_col=0)
    assert ds.label_names == ["a", "b"]
    assert ds.y.tolist() == [0, 1, 0]


# Tables the streaming loader must read exactly as the cell-by-cell oracle
# does: (file bytes, load_delimited keyword arguments).
AWKWARD_TABLES = {
    "quoted": (b'"f0","f,1",label\n"1.5","2","a"\n3,"-4e2",b\n', {}),
    "crlf": (b"f0,f1,label\r\n1,2,a\r\n3,4,b\r\n", {}),
    "spaces": (b"f0,f1,label\n 1 , 2.5 ,a\n\t3,4 , b \n", {}),
    "number_forms": (
        b"f0,f1,f2,f3,f4,label\n"
        b"1e5,5e-324,-0.0,1_0,+.5,a\n"
        b"-2.5E-3,2.2250738585072014e-308,0.0,3.4028234663852886e38,7.,b\n",
        {},
    ),
    "label_first": (b"label,f0,f1\na,1,2\nb,3,4\na,5,6\n", {"label_col": 0}),
    "label_middle": (b"f0,f1,label,f2\n1,2,a,3\n4,5,b,6\n", {"label_col": 2}),
    "label_middle_negative": (b"f0,label,f1\n1,a,2\n3,b,4\n", {"label_col": -2}),
    "tab": (b"a\t1.0\t2.0\nb\t3.0\t4.0\n", {"delimiter": "\t", "header": False, "label_col": 0}),
    "comments_and_blanks": (b"# made by hand\n\nf0,label\n  \n1,a\n# mid\n\n2,b\n", {}),
    "no_header": (b"1,2,a\n3,4,b\n", {"header": False}),
    "lone_cr": (b"f0,f1,label\r1,2,a\r3,4,b\r", {}),
    "quoted_header": (b'"f0","f 1","label"\n1,2,a\n3,4,b\n', {}),
    "one_quoted_label": (b'f0,f1,label\n1,2,a\n3,4,"b, c"\n5,6,a\n', {}),
    "nul_in_label": (b"f0,label\n1,a\x00b\n2,c\n", {}),
    "non_ascii_digit": ("f0,f1,label\n\u0661,2,a\n3,4,b\n".encode("utf-8"), {}),
    "one_feature": (b"f0,label\n1,a\n2,b\n3,a\n", {}),
    "one_row": (b"f0,f1,label\n1,2,a\n", {}),
    "space_delimiter": (b"f0 f1 label\n1 2.5 a\n-3 4e1 b\n", {"delimiter": " "}),
    # as save_delimited writes a make_synthetic table
    "plain_numeric": (
        b"# made by make_synthetic\n"
        b"x0,x1,x2,label\n"
        b"0.4967141530112327,-0.13826430117118466,0.6476885381006925,c0\n"
        b"1.5230298564080254,-0.23415337472333597,-0.23413695694918055,c1\n"
        b"1.5792128155073915,7.674347291529088e-05,-0.4694743859349521,c0\n",
        {},
    ),
}

# The AWKWARD_TABLES only the row path reads: their cells hold forms that
# `float()` accepts and np.loadtxt refuses.
ROW_PATH_TABLES = {"number_forms", "non_ascii_digit"}

BROKEN_TABLES = {
    "ragged": (b"f0,f1,label\n1,2,a\n3,b\n", {}),
    "short_row_before_middle_label": (b"f0,label,f1\n1,a,2\n3\n", {"label_col": 1}),
    "non_numeric_after_middle_label": (b"f0,label,f1,f2\n1,a,2,3\n4,b,5,x\n", {"label_col": 1}),
    "non_numeric_before_label": (b"f0,f1,label\n1,2,a\noops,4,b\n", {}),
    "empty_cell": (b"f0,f1,label\n1,,a\n3,4,b\n", {}),
    "missing_label": (b"f0,label\n1,a\n2, \n", {}),
    "header_only": (b"f0,f1,label\n# nothing else\n", {}),
    "header_only_bad_label_column": (b"f0,f1,label\n", {"label_col": 7}),
    "empty": (b"", {}),
    "comments_only": (b"# a\n\n# b\n", {"header": False}),
    "label_column_too_high": (b"f0,f1,label\n1,2,a\n3,4,b\n", {"label_col": 3}),
    "label_column_too_low": (b"1,2,a\n3,4,b\n", {"header": False, "label_col": -4}),
    "no_feature_column": (b"label\na\nb\n", {}),
    "ragged_before_non_numeric": (b"f0,f1,label\n1,x,a\n3,b\n", {}),
    "non_finite": (b"f0,f1,label\n1,inf,a\n3,4,b\n", {}),
    "non_finite_after_label": (b"f0,label,f1\n1,a,2\n3,b,-1e999\n", {"label_col": 1}),
    "non_numeric_after_non_finite": (b"f0,f1,label\n1,nan,a\n3,x,b\n", {}),
    "beyond_float32": (b"f0,f1,label\n1,2,a\n3,1.7976931348623157e308,b\n", {}),
    "beyond_float32_before_non_finite": (b"f0,label,f1\n1,a,-1e39\n3,b,inf\n", {"label_col": 1}),
    "nul_in_feature": (b"f0,f1,label\n1,2\x003,a\n4,5,b\n", {}),
    "trailing_delimiter": (b"f0,f1,label\n1,2,a\n3,4,b,\n", {}),
    "blank_feature_text": (b"f0,label\n1,a\n ,a\n", {}),
    "nul_at_cell_end": (b"f0,f1,label\n1,2\x00,a\n3,4,b\n", {}),
    "quoted_feature_holding_delimiter": (b'f0,f1,label\n1,"1,5",a\n3,4,b\n', {}),
    "tab_empty_cell": (b"f0\tf1\tlabel\n1\t\ta\n3\t4\tb\n", {"delimiter": "\t"}),
    # np.loadtxt skips an empty line and takes one row's width for all
    "lone_empty_feature": (b"f0,label\n1,a\n,b\n", {}),
    "one_row_quoted_delimiter": (b'f0,f1,label\n1,"1,5",a\n', {}),
    # np.loadtxt strips \x1c-\x1f from a cell's ends as whitespace; float() refuses them
    "information_separator": (b"f0,f1,label\n1,2,a\n3,4\x1c,b\n", {}),
}


@pytest.mark.parametrize("name", sorted(AWKWARD_TABLES))
def test_loader_equals_cell_by_cell_oracle(tmp_path, name):
    text, kwargs = AWKWARD_TABLES[name]
    path = tmp_path / "table.txt"
    path.write_bytes(text)
    got = load_delimited(str(path), **kwargs)
    want = ref_load_delimited(str(path), **kwargs)
    assert got.X.dtype == want.X.dtype and got.X.shape == want.X.shape
    assert got.X.tobytes() == want.X.tobytes()
    assert np.array_equal(got.y, want.y)
    assert got.label_names == want.label_names
    assert got.feature_names == want.feature_names


@pytest.mark.parametrize("name", sorted(BROKEN_TABLES))
def test_loader_fails_like_cell_by_cell_oracle(tmp_path, name):
    text, kwargs = BROKEN_TABLES[name]
    path = tmp_path / "table.txt"
    path.write_bytes(text)
    with pytest.raises(DataError) as want:
        ref_load_delimited(str(path), **kwargs)
    with pytest.raises(DataError) as got:
        load_delimited(str(path), **kwargs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted({**AWKWARD_TABLES, **BROKEN_TABLES}))
def test_loading_a_table_warns_of_nothing(tmp_path, name):
    # np.loadtxt warns "input contained no data" on a header-only table
    text, kwargs = {**AWKWARD_TABLES, **BROKEN_TABLES}[name]
    path = tmp_path / "table.txt"
    path.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load_delimited(str(path), **kwargs)
        except DataError:
            assert name in BROKEN_TABLES
        else:
            assert name in AWKWARD_TABLES


@pytest.mark.parametrize("name", sorted(AWKWARD_TABLES))
def test_only_forms_loadtxt_refuses_reach_the_row_path(tmp_path, monkeypatch, name):
    text, kwargs = AWKWARD_TABLES[name]
    path = tmp_path / "table.txt"
    path.write_bytes(text)
    calls = []
    row_path = data._Lines.rows
    monkeypatch.setattr(data._Lines, "rows", lambda self, fh: calls.append(1) or row_path(self, fh))
    got = load_delimited(str(path), **kwargs)
    assert got.X.tobytes() == ref_load_delimited(str(path), **kwargs).X.tobytes()
    assert bool(calls) == (name in ROW_PATH_TABLES)


def _load_or_error(loader, path, **kwargs):
    try:
        ds = loader(path, **kwargs)
    except DataError as exc:
        return str(exc)
    return ds.X.shape, ds.X.tobytes(), ds.y.tolist(), ds.label_names, ds.feature_names


_TOKENS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_0", "_1", "+.5", "7.", "-0.0", "1e5", "1e", "x", "", "inf", "\x00", "\x1c5"]),
    st.sampled_from(["a", "b", "c d", "e,f", "g;h", 'i"j']),
)


@st.composite
def _cells(draw):
    """One cell as a file might hold it: a token, padded with whitespace,
    then quoted (quotes doubled), left bare, or given a stray quote."""
    pad = st.sampled_from(["", " ", "\t"])
    text = draw(pad) + draw(_TOKENS) + draw(pad)
    style = draw(st.sampled_from(["bare", "bare", "bare", "quoted", "stray_quote"]))
    if style == "quoted":
        return '"' + text.replace('"', '""') + '"'
    if style == "stray_quote":
        return text + '"'
    return text


@st.composite
def _delimited_files(draw):
    """(file bytes, load_delimited keyword arguments) of a small table with
    mixed line endings, an optional byte-order mark, and comment and blank
    lines between the rows."""
    delimiter = draw(st.sampled_from([",", "\t", ";", " "]))
    width = draw(st.integers(2, 4))
    header = draw(st.booleans())
    label_col = draw(st.integers(-width, width - 1))
    n_rows = draw(st.integers(2, 6)) + header
    row = st.lists(_cells(), min_size=width, max_size=width).map(delimiter.join)
    if draw(st.booleans()):  # clean numeric rows, so that some tables load
        dress = st.sampled_from(["{}", "{}", "{}", "{}_0", '"{}"'])
        clean = st.lists(
            st.builds(str.format, dress, st.integers(-99, 99)),
            min_size=width - 1,
            max_size=width - 1,
        )
        labels = st.sampled_from(["a", "b", "a", "b", '"a"', '"b, c"'])
        k = label_col % width
        row = st.builds(
            lambda cells, label: delimiter.join([*cells[:k], label, *cells[k:]]), clean, labels
        )
    extra = st.sampled_from(["", "  ", "# a comment", ' # "quoted", comment'])
    lines = []
    for _ in range(n_rows):
        lines.extend(draw(st.lists(extra, max_size=2)))
        lines.append(draw(row))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    kwargs = {"delimiter": delimiter, "header": header, "label_col": label_col}
    return bom + text.encode("utf-8"), kwargs


@settings(max_examples=300, deadline=None)
@given(_delimited_files())
def test_loader_equals_the_oracle_on_generated_tables(tmp_path_factory, table):
    text, kwargs = table
    path = tmp_path_factory.getbasetemp() / "generated_table.txt"
    path.write_bytes(text)
    got = _load_or_error(load_delimited, str(path), **kwargs)
    assert got == _load_or_error(ref_load_delimited, str(path), **kwargs)


@pytest.mark.parametrize("delimiter", [";;", "", "\n", "\r", "\r\n"])
def test_load_rejects_a_delimiter_that_is_not_one_character(tmp_path, delimiter):
    # a quote-free line split on ";;" would load; the delimiter is refused first
    path = write(tmp_path, "f0;;label\n1;;a\n2;;b\n")
    with pytest.raises(DataError, match=f"got {re.escape(repr(delimiter))}$"):
        load_delimited(path, delimiter=delimiter)


def test_load_peak_memory_stays_near_the_array_size(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(72, 2000)), np.arange(72) % 2, 2, ["a", "b"])
    path = str(tmp_path / "wide.csv")
    save_delimited(ds, path)
    loaded, peak = traced_peak(load_delimited, path)
    assert np.array_equal(loaded.X, ds.X)
    assert peak <= 2 * ds.X.nbytes


# ---------------------------------------------------------------- scaling


def test_standardize_train_statistics(arithmetic_dtype):
    # the tolerance is 1e-12 in float64 and the same multiple of the
    # dtype's epsilon in float32
    atol = 1e-12 * np.finfo(arithmetic_dtype).eps / np.finfo(np.float64).eps
    rng = np.random.default_rng(1)
    train = Dataset(rng.normal(2.0, 3.0, size=(50, 4)), rng.integers(0, 2, 50), 2, ["a", "b"])
    out, _, transform = standardize(train)
    assert out.X.dtype == arithmetic_dtype
    assert np.allclose(out.X.mean(axis=0), 0.0, atol=atol)
    assert np.allclose(out.X.std(axis=0), 1.0, atol=atol)
    assert transform.mean.shape == (4,)


def test_standardize_constant_feature_maps_to_zero():
    X = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
    train = Dataset(X, np.array([0, 1, 0, 1, 0]), 2, ["a", "b"])
    test = Dataset(X + 1.0, np.array([0, 1, 0, 1, 0]), 2, ["a", "b"])
    tr, te, _ = standardize(train, test)
    assert np.all(tr.X[:, 0] == 0.0)
    # test split uses train statistics, so the shifted constant is nonzero
    assert np.allclose(te.X[:, 0], 1.0)


def test_standardize_uses_train_statistics_on_test():
    # train has mean 1 and std 1; the test rows must be shifted by those,
    # not by their own statistics
    train = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), 2, ["a", "b"])
    test = Dataset(np.array([[4.0], [6.0]]), np.array([0, 1]), 2, ["a", "b"])
    _, te, transform = standardize(train, test)
    assert np.allclose(te.X, [[3.0], [5.0]])
    assert transform.apply(np.array([[4.0]]))[0, 0] == te.X[0, 0]


def test_standardizer_not_idempotent():
    train = Dataset(np.array([[0.0], [4.0]]), np.array([0, 1]), 2, ["a", "b"])
    out, _, transform = standardize(train)
    once = out.X
    twice = transform.apply(once)
    assert not np.allclose(once, twice)


def test_standardizer_apply_gives_the_bytes_of_the_expression(arithmetic_dtype):
    # the float64 difference rounded to the dtype, over the scale in the dtype
    rng = np.random.default_rng(5)
    X = rng.normal(3.0, 2.0, size=(30, 50))
    _, _, transform = standardize(Dataset(X, np.arange(30) % 2, 2, ["a", "b"]))
    want = (X - transform.mean).astype(arithmetic_dtype) / transform.scale.astype(arithmetic_dtype)
    got = transform.apply(X)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def test_standardize_refuses_a_value_it_puts_beyond_the_dtypes_range():
    # 3e38 fits float32, but the training split's scale, 0.5, doubles it
    train = Dataset(np.array([[0.0, 1.0], [1.0, 2.0]]), np.array([0, 1]), 2, ["a", "b"])
    test = Dataset(np.array([[1.0, 3e38]]), np.array([0]), 2, ["a", "b"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"^feature 1 \(0-based\) of the test split is beyond float32's"):
            standardize(train, test)
        named = replace(test, feature_names=["g", "h"])
        with pytest.raises(DataError, match="^feature 'h' of the test split"):
            standardize(replace(train, feature_names=["g", "h"]), named)


def test_standardize_leaves_input_untouched():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    train = Dataset(X.copy(), np.array([0, 1]), 2, ["a", "b"])
    standardize(train)
    assert np.array_equal(train.X, X)


# ---------------------------------------------------------------- splits


def balanced_dataset(n=10):
    y = np.array([0, 1] * (n // 2))
    return Dataset(np.arange(n * 2.0).reshape(n, 2), y, 2, ["a", "b"])


def test_split_half_keeps_class_balance():
    tr, te = split(balanced_dataset(10), SplitSpec(0.5, seed=0))
    assert tr.n_samples == 5 and te.n_samples == 5
    assert abs(np.sum(tr.y == 0) - np.sum(tr.y == 1)) <= 1


def test_split_is_deterministic_per_seed():
    ds = balanced_dataset(20)
    a1, b1 = split(ds, SplitSpec(0.7, seed=3))
    a2, b2 = split(ds, SplitSpec(0.7, seed=3))
    assert np.array_equal(a1.X, a2.X) and np.array_equal(b1.X, b2.X)
    a3, _ = split(ds, SplitSpec(0.7, seed=4))
    assert not np.array_equal(a1.X, a3.X)


def test_split_partitions_the_index_set():
    ds = balanced_dataset(14)
    tr, te = split(ds, SplitSpec(0.6, seed=1))
    combined = np.sort(np.concatenate([tr.X[:, 0], te.X[:, 0]]))
    assert np.array_equal(combined, ds.X[:, 0])
    assert tr.n_samples + te.n_samples == ds.n_samples


def test_split_every_class_present_on_both_sides():
    y = np.array([0] * 17 + [1] * 3)
    ds = Dataset(np.arange(40.0).reshape(20, 2), y, 2, ["a", "b"])
    tr, te = split(ds, SplitSpec(0.9, seed=2))
    for side in (tr, te):
        assert set(side.y.tolist()) == {0, 1}


def test_split_singleton_class_errors():
    y = np.array([0, 0, 0, 1])
    ds = Dataset(np.zeros((4, 2)), y, 2, ["a", "b"])
    with pytest.raises(DataError, match="'b'"):
        split(ds, SplitSpec(0.5, seed=0))


def test_split_unstratified_ignores_classes():
    y = np.array([0] * 7 + [1] * 3)
    ds = Dataset(np.arange(20.0).reshape(10, 2), y, 2, ["a", "b"])
    tr, te = split(ds, SplitSpec(0.5, seed=0, stratified=False))
    assert tr.n_samples == 5 and te.n_samples == 5
    got = sorted(tr.X[:, 0].tolist() + te.X[:, 0].tolist())
    assert got == ds.X[:, 0].tolist()
    # no per-class balancing: an unlucky draw orphans a class on the training
    # side, and train() rejects it
    tr, _ = split(ds, SplitSpec(0.5, seed=3, stratified=False))
    with pytest.raises(DataError, match=r"classes \['b'\] have no samples"):
        train(tr, TrainConfig(n_select=1, embed_size=1, encoder=(2,), decoder=(2,)))


@pytest.mark.parametrize("fraction", [0.0, 1.0])
def test_split_spec_rejects_a_fraction_outside_the_open_interval(fraction):
    with pytest.raises(ValueError, match=r"train_fraction must lie in \(0, 1\), got"):
        SplitSpec(fraction, seed=0)


def test_split_empty_side_rejected():
    ds = balanced_dataset(4)
    with pytest.raises(DataError):
        split(ds, SplitSpec(0.05, seed=0, stratified=False))


# ---------------------------------------------------------------- synthetic


def test_synthetic_label_balance():
    ds, planted = make_synthetic(101, 20, 4, seed=0)
    assert abs(int(np.sum(ds.y == 1)) - int(np.sum(ds.y == 0))) <= 1
    assert len(planted) == 4
    assert all(0 <= j < 20 for j in planted)
    assert planted == sorted(planted)


def test_synthetic_deterministic():
    a, pa = make_synthetic(50, 10, 3, seed=7)
    b, pb = make_synthetic(50, 10, 3, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y) and pa == pb
    c, _ = make_synthetic(50, 10, 3, seed=8)
    assert not np.array_equal(a.X, c.X)


def test_synthetic_label_matches_planted_rule():
    ds, planted = make_synthetic(60, 12, 3, seed=1)
    sub = ds.X[:, planted]
    score = np.sin(sub).sum(axis=1) + (sub**2).sum(axis=1)
    assert np.array_equal(ds.y, (score > np.median(score)).astype(ds.y.dtype))


def test_synthetic_planted_features_carry_signal():
    # at large n the planted features have clear mutual information with the
    # label while a non-planted feature has nearly none
    from fsnet.evaluator import mutual_information

    ds, planted = make_synthetic(20000, 6, 2, seed=2)
    spare = next(j for j in range(6) if j not in planted)
    mi_planted = min(mutual_information(ds.X[:, j], ds.y.astype(float)) for j in planted)
    mi_null = mutual_information(ds.X[:, spare], ds.y.astype(float))
    assert mi_planted > 5 * max(mi_null, 1e-4)
    assert mi_null < 0.01


def test_synthetic_gaussian_features():
    ds, _ = make_synthetic(5000, 3, 1, seed=3)
    assert abs(ds.X.mean()) < 0.05
    assert abs(ds.X.std() - 1.0) < 0.05


def test_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic(10, 3, 4, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(1, 3, 2, seed=0)
    for k_star in (0, -1):  # -1 would plant d - 1 features through permutation(d)[:-1]
        with pytest.raises(ValueError, match="cannot plant"):
            make_synthetic(10, 3, k_star, seed=0)
