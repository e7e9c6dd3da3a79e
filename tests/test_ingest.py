import csv

import pytest

from conftest import make_matrix, random_matrix
from apspace import ingest
from apspace.core import (DuplicateCellError, EmptyRowError,
                          InvalidLabelError, PerformanceMatrix,
                          ScoreOutOfRangeError, build_matrix)
from apspace.ingest import (MalformedHeaderError, MalformedRowError,
                            RaggedRowError, fixture_path,
                            load_thesis_metadata, load_thesis_metric_columns,
                            parse_csv, parse_long, parse_wide, validate,
                            write_long, write_wide)

LONG_SAMPLE = "dataset,algorithm,score\nJester,MultiVAE,0.5023\n"


def test_parse_long_single_cell():
    m = parse_long(LONG_SAMPLE)
    assert m.datasets == ("Jester",)
    assert m.algorithms == ("MultiVAE",)
    assert m.cells == ((0.5023,),)


def test_parse_long_gap_spellings():
    text = ("dataset,algorithm,score\n"
            "Epinions,BPR,0.0722\n"
            "Epinions,MultiVAE,NaN\n"
            "Epinions,NeuMF,\n")
    m = parse_long(text)
    assert m.row("Epinions") == (0.0722, None, None)


def test_parse_long_bad_header():
    with pytest.raises(MalformedHeaderError):
        parse_long("name,algo,value\nd,a,0.5\n")


def test_parse_long_field_count_reports_line():
    text = "dataset,algorithm,score\nd,a,0.5\nd,b\n"
    with pytest.raises(MalformedRowError, match="line 3"):
        parse_long(text)


@pytest.mark.parametrize("cell", ["abc", "0,5", "--1"])
def test_parse_long_unparsable_score(cell):
    with pytest.raises(MalformedRowError, match="line 2"):
        parse_long(f"dataset,algorithm,score\nd,a,{cell}\n")


def test_parse_long_blank_name_reports_line():
    with pytest.raises(MalformedRowError) as info:
        parse_long("dataset,algorithm,score\nd1,A,0.5\nd1,B,0.4\nd2, ,0.5\n")
    assert str(info.value) == "line 4: empty name field"


def test_parse_long_out_of_range_score():
    with pytest.raises(ScoreOutOfRangeError):
        parse_long("dataset,algorithm,score\nd,a,1.5\n")


def test_parse_csv_rejects_unknown_format():
    with pytest.raises(ValueError) as info:
        parse_csv(LONG_SAMPLE, "csv")
    assert str(info.value) == "unknown input format 'csv'"


def test_parse_wide_basic():
    text = ("dataset,BPR,ItemKNN\n"
            "Food,0.0679,0.0767\n"
            "Gowalla,NaN,0.1526\n")
    m = parse_wide(text)
    assert m.algorithms == ("BPR", "ItemKNN")
    assert m.row("Food") == (0.0679, 0.0767)
    assert m.row("Gowalla") == (None, 0.1526)


def test_parse_wide_ragged_row_reports_line():
    with pytest.raises(RaggedRowError, match="line 3"):
        parse_wide("dataset,a,b\nd1,0.1,0.2\nd2,0.3\n")


def test_parse_wide_bad_header():
    with pytest.raises(MalformedHeaderError):
        parse_wide("name,a,b\nd,0.1,0.2\n")


def test_parse_wide_all_missing_row():
    with pytest.raises(EmptyRowError):
        parse_wide("dataset,a,b\nd,NaN,\n")


# Which fault wins when a file has several: every parse fault anywhere in
# the file (ragged row, unparsable score, empty name) beats every
# build_matrix fault; within build_matrix records fail in file order, each
# on its label, then a duplicate, then its range; an all-gap row only
# after every record has passed.
@pytest.mark.parametrize("text, error, message", [
    # out-of-range score in (row 1, column 1), empty label in column 2
    ("dataset,A,\nd1,1.5,0.3\n", ScoreOutOfRangeError,
     "score 1.5 for ('d1', 'A') is outside [0, 1]"),
    ("dataset,A,\nd1,0.5,0.3\n", InvalidLabelError,
     "bad algorithm name '': must be non-empty with no surrounding "
     "whitespace"),
    # duplicated header algorithm, even when its second cell is out of range
    ("dataset,A,B,A\nd1,0.1,0.2,0.3\n", DuplicateCellError,
     "duplicate cell for dataset 'd1', algorithm 'A'"),
    ("dataset,A,A\nd1,0.1,1.3\n", DuplicateCellError,
     "duplicate cell for dataset 'd1', algorithm 'A'"),
    # a duplicate dataset loses to a parse fault later in the file ...
    ("dataset,A,B\nd1,0.1,0.2\nd1,0.3,0.4\nd2,0.5,abc\n",
     MalformedRowError, "line 4: cannot parse score 'abc'"),
    ("dataset,A,B\nd1,0.1,0.2\nd1,0.3,0.4\nd2,0.5\n",
     RaggedRowError, "line 4: expected 3 fields, got 2"),
    ("dataset,A\nd1,3\n,0.5\n", MalformedRowError,
     "line 3: empty dataset name"),
    # ... and is found when nothing else is wrong ...
    ("dataset,A,B\nd1,0.1,0.2\nd1,0.3,0.4\n", DuplicateCellError,
     "duplicate cell for dataset 'd1', algorithm 'A'"),
    # ... and wins over a range fault in its own later row
    ("dataset,A,B\nd1,0.1,0.2\nd2,0.3,0.4\nd1,0.5,2\n",
     DuplicateCellError, "duplicate cell for dataset 'd1', algorithm 'A'"),
    # an all-gap row loses to any record fault, and the first one is named
    ("dataset,A,B\nd1,,NaN\nd2,0.3,7\n", ScoreOutOfRangeError,
     "score 7.0 for ('d2', 'B') is outside [0, 1]"),
    ("dataset,A,B\nd1,,NaN\nd2,0.3,0.1\nd2,0.3,0.2\n",
     DuplicateCellError, "duplicate cell for dataset 'd2', algorithm 'A'"),
    ("dataset,A,B\nd2,0.3,0.1\nd1,,NaN\nd3,,\n", EmptyRowError,
     "dataset 'd1' has no present scores"),
    # a header-only text keeps its algorithm columns, so their names are
    # checked there too, the first fault in header order
    ("dataset,a,a\n", MalformedHeaderError,
     "duplicate algorithm column 'a'"),
    ("dataset,a,\n", InvalidLabelError,
     "bad algorithm name '': must be non-empty with no surrounding "
     "whitespace"),
    ("dataset,a,b,a,\n", MalformedHeaderError,
     "duplicate algorithm column 'a'"),
    # a header with no algorithm columns leaves every data row empty
    ("dataset\nd1\n", EmptyRowError, "dataset 'd1' has no present scores"),
    # " NaN " and " " are gaps: a score token is stripped before it is read
    ("dataset,A,B\nd1,0.5, NaN \nd2, NaN ,NaN\n", EmptyRowError,
     "dataset 'd2' has no present scores"),
    ("dataset,A,B\nd1, ,0.5\nd2,, \n", EmptyRowError,
     "dataset 'd2' has no present scores"),
    # ... and "nan", even after a row with a padded NaN, is out of range
    ("dataset,A,B\nd1, NaN ,0.5\nd2,nan,0.5\n", ScoreOutOfRangeError,
     "score nan for ('d2', 'A') is outside [0, 1]"),
])
def test_parse_wide_error_precedence(text, error, message):
    with pytest.raises(error) as info:
        parse_wide(text)
    assert type(info.value) is error
    assert str(info.value) == message


# How a score token reads, the same through both parsers and in a wide
# row with or without a gap: only the exact spelling ``NaN`` (or an empty
# field), once stripped, is a gap; ``nan`` and the infinities parse as
# floats and are then rejected by their range, never taken as gaps; so
# is anything else ``float`` reads, such as ``1_0`` (10.0); tiny and
# negative-zero values are in range, and so is ``١`` (an Arabic-Indic
# one).  A quoted field must end at its closing quote: ``"0.2"5`` and a
# space after the quote are refused, not read as 0.25 or 0.5.
@pytest.mark.parametrize("parse, text", [
    (parse_wide, "dataset,A,B\nd1,{},0.5\n"),
    (parse_long, "dataset,algorithm,score\nd1,A,{}\nd1,B,0.5\n"),
    (parse_wide, "dataset,A,B,C\nd1,{},0.5,\n"),
], ids=["wide", "long", "wide-gap"])
@pytest.mark.parametrize("token, cell", [
    ("NaN", None), ("", None), (" NaN ", None), (" ", None),
    ("\tNaN", None), ("NaN\u00a0", None),
    ("-0.0", "-0.0"), ("1e-400", "0.0"), ("5e-324", "5e-324"),
    ("\u0661", "1.0"),
    ('"0.2"5', MalformedRowError), ('"0.5" ', MalformedRowError),
    ("nan", ScoreOutOfRangeError), (" nan ", ScoreOutOfRangeError),
    ("inf", ScoreOutOfRangeError), ("-inf", ScoreOutOfRangeError),
    ("infinity", ScoreOutOfRangeError), ("1_0", ScoreOutOfRangeError),
])
def test_score_token_reading(parse, text, token, cell):
    if cell is MalformedRowError:
        with pytest.raises(MalformedRowError) as info:
            parse(text.format(token))
        assert str(info.value) == "cannot read CSV: ',' expected after '\"'"
    elif cell is ScoreOutOfRangeError:
        with pytest.raises(ScoreOutOfRangeError) as info:
            parse(text.format(token))
        assert str(info.value) == (
            f"score {float(token)!r} for ('d1', 'A') is outside [0, 1]")
    else:
        got = parse(text.format(token)).cells[0]
        assert got[1] == 0.5
        # repr tells -0.0 from 0.0
        assert (got[0] if got[0] is None else repr(got[0])) == cell


def test_parse_wide_reads_its_text_once(monkeypatch):
    """Padded ``NaN`` tokens are gaps on the first read; the text is
    never read a second time to find them."""
    calls = []

    def counted(text):
        calls.append(text)
        return reader(text)

    reader = ingest._reader
    monkeypatch.setattr(ingest, "_reader", counted)
    m = parse_wide("dataset,A,B\nd1, NaN ,0.5\nd2,0.25,\tNaN\n")
    assert len(calls) == 1
    assert m.cells == ((None, 0.5), (0.25, None))


def test_parse_csv_splits_a_plain_wide_text_once(monkeypatch):
    """Auto-detection splits the header line alone: the text after it is
    split once, by ``parse_wide``."""
    split = []

    def counted(text, first):
        split.append(text)  # runs once the first row is asked for
        yield from plain_rows(text, first)

    plain_rows = ingest._plain_rows
    monkeypatch.setattr(ingest, "_plain_rows", counted)
    m = parse_csv("dataset,A,B\nd1,0.5,0.25\nd2, NaN ,1\n")
    assert split == ["dataset,A,B\n", "dataset,A,B\n",
                     "d1,0.5,0.25\nd2, NaN ,1\n"]
    assert m.cells == ((0.5, 0.25), (None, 1.0))


def test_parse_skips_blank_lines_and_crlf_and_bom():
    text = "﻿dataset,a\r\n\r\nd1,0.5\r\n"
    m = parse_wide(text)
    assert m.cells == ((0.5,),)
    long = "﻿dataset,algorithm,score\r\n\r\nd1,a,0.5\r\n"
    assert parse_long(long) == m


def test_write_wide_fixture_line_count(fixture_matrix):
    text = write_wide(fixture_matrix)
    lines = text.splitlines()
    assert len(lines) == 72  # header + 71 datasets
    assert lines[0] == "dataset,BPR,ItemKNN,MultiVAE,NeuMF,SGL"


def test_round_trip_fixture(fixture_matrix):
    assert parse_wide(write_wide(fixture_matrix)) == fixture_matrix
    assert parse_long(write_long(fixture_matrix)) == fixture_matrix


def test_round_trip_awkward_names():
    m = build_matrix([
        ('with,comma', 'algo "quoted"', 0.25),
        ("with\nnewline", 'algo "quoted"', None),
        ("with\nnewline", "plain", 0.75),
        ("with\rreturn", "plain", 0.5),
    ])
    assert parse_wide(write_wide(m)) == m
    assert parse_long(write_long(m)) == m
    # only the row with a carriage return is quoted field by field
    assert write_wide(m).endswith('\n"with\rreturn","","0.5"\n')


@pytest.mark.parametrize("text", [
    "dataset\x00,a\nd1,0.5\n",             # header, before its error
    "dataset,a\x00\nd1,0.5\n",             # algorithm name
    'dataset,a\n"d\x001",0.5\n',           # quoted dataset name
    "dataset,a\nd1,0.5\x00\n",             # score
    "dataset,a\nd1,0.5,0.1\n\x00\n",        # after a ragged row
    "dataset,algorithm,score\nd1,a,\x00\n",  # long
])
def test_nul_is_refused_the_same_way_everywhere(text):
    """Before Python 3.11 the csv module cannot read NUL at all, so the
    parsers refuse it up front on every version, ahead of any other
    fault in the text."""
    for parse in (parse_csv, parse_wide, parse_long):
        with pytest.raises(MalformedRowError) as info:
            parse(text)
        assert str(info.value) == (
            "cannot read CSV: it contains a NUL character")


BIG = "x" * 131_073  # one over the csv module's default field limit


@pytest.mark.parametrize("parse, text", [
    *((parse, f"dataset,{BIG}\nd1,0.5\n")
      for parse in (parse_csv, parse_long, parse_wide)),
    *((parse, f"dataset,a\nd1,{BIG}\n") for parse in (parse_csv, parse_wide)),
    *((parse, f"dataset,algorithm,score\nd1,a,{BIG}\n")
      for parse in (parse_csv, parse_long)),
], ids=["header-auto", "header-long", "header-wide", "row-auto-wide",
        "row-wide", "row-auto-long", "row-long"])
def test_field_over_the_size_limit_is_a_row_error(parse, text):
    with pytest.raises(MalformedRowError) as info:
        parse(text)
    assert str(info.value) == (
        "cannot read CSV: field larger than field limit (131072)")


def _quote_last_field(text):
    head, _, last = text.rstrip("\n").rpartition(",")
    return f'{head},"{last}\n'


@pytest.mark.parametrize("spoil, message", [
    (_quote_last_field, "quoted field not closed before the end of the input"),
    (lambda text: text.replace("Yelp", "Ye\x00lp"),
     "cannot read CSV: it contains a NUL character"),
], ids=["open-quote", "nul"])
@pytest.mark.parametrize("load, name", [
    (load_thesis_metric_columns, "thesis_results.csv"),
    (load_thesis_metadata, "thesis_datasets.csv"),
], ids=["metric-columns", "metadata"])
def test_fixture_loaders_read_through_the_checked_reader(
        tmp_path, monkeypatch, load, name, spoil, message):
    text = fixture_path(name).read_text(encoding="utf-8")
    (tmp_path / name).write_text(spoil(text), encoding="utf-8")
    monkeypatch.setattr("apspace.ingest.fixture_path", tmp_path.joinpath)
    with pytest.raises(MalformedRowError, match=message):
        load()


def test_round_trip_random_matrices(rng):
    for _ in range(25):
        m = random_matrix(rng, n_datasets=int(rng.integers(1, 12)),
                          n_algorithms=int(rng.integers(1, 6)),
                          missing_rate=float(rng.random() * 0.5))
        assert parse_wide(write_wide(m)) == m
        assert parse_long(write_long(m)) == m


def test_round_trip_zero_dataset_matrix():
    m = PerformanceMatrix(("algo0", "algo1"), (), ())
    assert m.n_datasets == 0 and m.n_algorithms == 2
    text = write_wide(m)
    assert text == "dataset,algo0,algo1\n"
    assert parse_wide(text) == m


def test_validate_fixture_counts(fixture_matrix):
    rep = validate(fixture_matrix)
    assert rep.dataset_count == 71
    assert rep.algorithm_count == 5
    assert rep.present_cells == 268
    assert rep.missing_cells == 71 * 5 - 268 == 87
    assert rep.complete_row_count == 39
    single = [w for w in rep.warnings if "single present score" in w]
    incomplete = [w for w in rep.warnings if "incomplete" in w]
    assert len(single) == 8
    assert len(incomplete) == 71 - 39
    assert len(rep.warnings) == 40


def test_validate_clean_matrix_has_no_warnings():
    rep = validate(make_matrix({"a": [0.1, 0.2], "b": [0.3, 0.4]}))
    assert rep.warnings == ()
    assert rep.complete_row_count == 2


def test_fixture_metric_columns(published_metrics):
    assert published_metrics["Jester"] == (0.5163, 0.0193)
    assert published_metrics["Epinions"] == (0.7760, 0.3035)
    # rows with a lone result have no printed variance
    assert published_metrics["Netflix"][1] is None
    assert len(published_metrics) == 71


def test_fixture_results_scores_match_scores_file(fixture_matrix):
    """The goldens file repeats the scores file's cells, gap for gap."""
    text = fixture_path("thesis_results.csv").read_text(encoding="utf-8")
    header, *rows = csv.reader(text.splitlines())
    assert header[1:6] == list(fixture_matrix.algorithms)
    assert [row[0] for row in rows] == list(fixture_matrix.datasets)
    for row in rows:
        cells = tuple(None if c == "NaN" else float(c) for c in row[1:6])
        assert cells == fixture_matrix.row(row[0]), row[0]


def test_fixture_metadata():
    meta = load_thesis_metadata()
    assert len(meta) == 75
    by_name = {row[0]: row for row in meta}
    assert by_name["Jester"] == ("Jester", 42813, 2554, 136)
    assert by_name["Netflix"] == ("Netflix", 56879880, 463435, 17721)


def test_fixture_path_exists():
    assert fixture_path("thesis_results.csv").is_file()
    assert fixture_path("thesis_datasets.csv").is_file()
