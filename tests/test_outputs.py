"""The count-CSV reader: every fault in a file names the file and the line
of the first row that holds one."""

import pytest

from urbanlos.errors import AggregationError
from urbanlos.montecarlo import class_counts
from urbanlos.outputs import DISTANCE_KEY, read_counts_csv, write_counts_csv

TABLE = class_counts(
    (25.0, 75.0, 125.0),
    [(3, 1, 0, 0), (2, 2, 1, 0), (1, 0, 0, 1)],
    mean_d=(20.0, 80.0, 130.0),
)


def _set(column, value):
    """Set column's cell of the second data row (line 3) to value."""

    def edit(header, rows):
        rows[1][header.index(column)] = value

    return edit


def _drop_n(header, rows):
    at = header.index("n")
    for cells in (header, *rows):
        del cells[at]


def _cut(header, rows):
    del rows[1][3:]


def _no_samples(header, rows):
    rows[1] = "75.0,0.0,0.0,0.0,0.0,0,80.0".split(",")


def _empty(header, rows):
    header.clear()
    rows.clear()


def _header_only(header, rows):
    _drop_n(header, rows)
    rows.clear()


# fault -> (edit of the header and data rows, line the error names)
FAULTS = {
    "missing-column": (_drop_n, 2),
    "short-row": (_cut, 3),
    "non-integer-n": (_set("n", "2.5"), 3),
    "nan-key": (_set(DISTANCE_KEY, "nan"), 3),
    "inf-key": (_set(DISTANCE_KEY, "inf"), 3),
    "nan-mean": (_set("mean_d_m", "nan"), 3),
    "text-mean": (_set("mean_d_m", "x"), 3),
    "not-counts": (_set("p_los", "0.41"), 3),
    "nan-probability": (_set("p_los", "nan"), 3),
    "negative-count": (_set("p_nlos_s", "-0.2"), 3),
    "no-samples": (_no_samples, 3),
    "empty-file": (_empty, 2),
    "header-only": (_header_only, 2),
}


def _write(path, edit):
    write_counts_csv(path, TABLE)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(header, rows)
    path.write_text("".join(",".join(cells) + "\n" for cells in (header, *rows) if cells))  # no header: an empty file


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_reader_fault_names_file_and_line(tmp_path, fault):
    edit, line = FAULTS[fault]
    path = tmp_path / "distance_trees.csv"
    _write(path, edit)
    with pytest.raises(AggregationError, match=f"^{path} line {line}: "):
        read_counts_csv(path, DISTANCE_KEY)


@pytest.mark.parametrize("fault", ["missing-column", "empty-file", "header-only"])
def test_reader_names_the_missing_column(tmp_path, fault):
    """A file without an n column fails on line 2 whether or not data rows
    follow its header."""
    path = tmp_path / "distance_trees.csv"
    _write(path, FAULTS[fault][0])
    with pytest.raises(AggregationError) as err:
        read_counts_csv(path, DISTANCE_KEY)
    assert str(err.value) == f"{path} line 2: no column 'n'"


def test_reader_names_the_first_faulty_line(tmp_path):
    """With a count fault on line 3 and a parse fault on line 4, line 3 is
    named, and the other way round, too."""
    path = tmp_path / "distance_trees.csv"

    def edit(late, early):
        def both(header, rows):
            rows[2][header.index(late[0])] = late[1]
            rows[1][header.index(early[0])] = early[1]

        return both

    for late, early in [(("n", "x"), ("p_los", "0.41")), (("p_los", "0.41"), ("n", "x"))]:
        _write(path, edit(late, early))
        with pytest.raises(AggregationError, match=f"^{path} line 3: "):
            read_counts_csv(path, DISTANCE_KEY)


def test_reader_accepts_what_the_writer_wrote(tmp_path):
    path = tmp_path / "distance_trees.csv"
    _write(path, lambda header, rows: None)
    assert read_counts_csv(path, DISTANCE_KEY) == TABLE


def test_reader_reads_a_header_only_file_as_an_empty_table(tmp_path):
    path = tmp_path / "distance_trees.csv"
    _write(path, lambda header, rows: rows.clear())
    assert read_counts_csv(path, DISTANCE_KEY) == class_counts((), (), mean_d=())
