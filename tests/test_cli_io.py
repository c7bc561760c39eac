"""File formats, SVG charts, and the command-line surface.

Storage tests pin the CSV schemas and the lossless float round-trip;
chart tests pin determinism and the basic SVG vocabulary; CLI tests run
the subcommands end to end on tiny problems and check the exit-code
contract (0 ok, 1 user error, 2 bug).
"""

import csv
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chwplan import charts, cli, clustering, engine, estimation, qp, storage
from chwplan.cli import (MAX_CAPACITY_RANGE, _parse_capacities, _representative_pct,
                         _share_series, build_parser, main)
from chwplan.clustering import FEATURE_NAMES, cluster_params
from chwplan.engine import RunResult
from chwplan.model import PatientParams
from chwplan.policy import POLICY_KINDS
from chwplan.scenarios import builtin_scenarios, default_sds

from _synthetic import generate_history

NAN = float("nan")
DELTA_MESSAGE = "SimulationConfig.delta_mgdl must be a finite number above 1 mg/dL"
WEIGHT_MESSAGE = ("EstimationConfig.{0}: noise scales must be positive with a finite weight"
                  " 1/{0}**2, got {1}")
OVERFLOW_MESSAGE = ("patient 'p1': the likelihood overflows a float at"
                    " EstimationConfig.sigma_eps={0} and sigma_xi=0.1")
GRID_MESSAGE = ("patient 'p1': the constraints of grid cell {0} overflow a float at"
                " EstimationConfig.grid_s_base={1} and grid_beta={2}")
DEFAULT_GRID = "(0.0, 1.0, 2.0, 3.0)"
CENTROID = dict(zip(FEATURE_NAMES, (1.0, 0.5, 0.5, 1.0, 0.5, 0.0, 1.0)))
GROUPS = [{"name": "a", "weight": 1.0, "centroid": CENTROID}]


def write_history_csv(path, lines):
    path.write_text("patient_id,period,visited,enrolled,fbg_mgdl\n"
                    + "".join(line + "\n" for line in lines))
    return str(path)


# ---------------------------------------------------------------------------
# visit-history ingestion
# ---------------------------------------------------------------------------

class TestIngestHistories:
    def test_single_row_densifies_leading_periods(self, tmp_path):
        path = write_history_csv(tmp_path / "h.csv", ["p1,3,1,1,130"])
        (hist,) = storage.ingest_histories(path)
        assert hist.patient_id == "p1"
        assert hist.visited == (0, 0, 0, 1)
        assert hist.enrolled == (0, 0, 0, 1)
        assert hist.observed_map == {3: math.log(130.0)}
        assert round(hist.observed_map[3], 4) == 4.8675

    def test_blank_fbg_means_unobserved(self, tmp_path):
        path = write_history_csv(tmp_path / "h.csv",
                                 ["p1,0,1,1,", "p1,1,0,1,162.5"])
        (hist,) = storage.ingest_histories(path)
        assert hist.observed_map == {1: math.log(162.5)}

    def test_reading_below_one_mgdl_accepted(self, tmp_path):
        # observation noise takes readings below 1 mg/dL, a negative log-FBG
        path = write_history_csv(tmp_path / "h.csv", ["p1,0,1,1,0.5"])
        (hist,) = storage.ingest_histories(path)
        assert hist.observed_map == {0: math.log(0.5)}

    def test_gaps_carry_enrollment_forward(self, tmp_path):
        path = write_history_csv(tmp_path / "h.csv",
                                 ["p1,1,1,1,", "p1,4,0,1,200"])
        (hist,) = storage.ingest_histories(path)
        assert hist.visited == (0, 1, 0, 0, 0)
        assert hist.enrolled == (0, 1, 1, 1, 1)
        assert hist.observed_map == {4: math.log(200.0)}

    def test_patients_kept_in_first_appearance_order(self, tmp_path):
        path = write_history_csv(
            tmp_path / "h.csv",
            ["late,0,1,1,150", "early,0,0,0,140", "late,1,0,1,145"])
        hists = storage.ingest_histories(path)
        assert [h.patient_id for h in hists] == ["late", "early"]
        assert hists[0].length == 2 and hists[1].length == 1

    @pytest.mark.parametrize("line,fragment", [
        ("p1,0,1,1", "expected 5 fields"),
        (",0,1,1,130", "empty patient_id"),
        ("p1,x,1,1,130", "bad period 'x'"),
        ("p1,-1,1,1,130", "negative period"),
        ("p1,0,2,1,130", "visited/enrolled must be 0 or 1"),
        ("p1,0,1,yes,130", "visited/enrolled must be 0 or 1"),
        ("p1,0,1,1,abc", "bad fbg_mgdl 'abc'"),
        ("p1,0,1,1,-4", "negative or zero, or not finite"),
        ("p1,0,1,1,0", "negative or zero, or not finite"),
        ("p1,0,1,1,nan", "negative or zero, or not finite"),
    ])
    def test_malformed_rows_name_the_row_number(self, tmp_path, line, fragment):
        path = write_history_csv(tmp_path / "h.csv", ["p0,0,1,1,130", line])
        with pytest.raises(ValueError, match="row 3") as exc:
            storage.ingest_histories(path)
        assert fragment in str(exc.value)

    def test_row_numbers_count_blank_lines(self, tmp_path):
        path = write_history_csv(tmp_path / "h.csv", ["p0,0,1,1,130", "", "p1,x,1,1,130"])
        with pytest.raises(ValueError, match="row 4: bad period 'x'"):
            storage.ingest_histories(path)

    def test_duplicate_period_rejected(self, tmp_path):
        path = write_history_csv(tmp_path / "h.csv",
                                 ["p1,0,1,1,130", "p1,0,0,1,140"])
        with pytest.raises(ValueError, match="duplicate period 0"):
            storage.ingest_histories(path)

    def test_unreachable_enrollment_wrapped_with_patient_id(self, tmp_path):
        path = write_history_csv(tmp_path / "h.csv", ["p9,0,0,1,130"])
        with pytest.raises(ValueError, match="patient 'p9'") as exc:
            storage.ingest_histories(path)
        assert "inconsistent enrollment at period 0" in str(exc.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,week,y,z,fbg\np1,0,1,1,130\n")
        with pytest.raises(ValueError, match="expected header patient_id"):
            storage.ingest_histories(str(path))


BOM_INPUTS = {
    "histories": (b"patient_id,period,visited,enrolled,fbg_mgdl\np1,0,1,1,130\np1,2,0,1,141.5\n",
                  storage.ingest_histories),
    "feature table": (("patient_id," + ",".join(FEATURE_NAMES)
                       + "\np1,1,0.5,0.5,1,0.5,0,1\n").encode(), storage.read_feature_table),
    "scenario": (json.dumps(storage.scenario_to_dict(builtin_scenarios()[2])).encode(),
                 lambda path: storage.load_scenario(path)[0]),
}


@pytest.mark.parametrize("kind", list(BOM_INPUTS))
def test_leading_byte_order_mark_is_skipped(kind, tmp_path):
    # spreadsheets export CSV with a UTF-8 byte order mark
    data, read = BOM_INPUTS[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data)
    marked.write_bytes(b"\xef\xbb\xbf" + data)
    assert read(str(marked)) == read(str(plain))


# ---------------------------------------------------------------------------
# table round-trips
# ---------------------------------------------------------------------------

def _run_result(policy, fraction, rep, in_control=(1, 2)):
    periods = len(in_control)
    return RunResult(
        policy_kind=policy, capacity_fraction=fraction, replication=rep,
        in_control=tuple(in_control),
        enrolled=tuple(range(periods)), visits_total=(2,) * periods,
        screening_visits=(1,) * periods,
        final_log_fbg=(4.1, 4.9, 5.3), ppc_fraction=0.25,
    )


def csv_reference(path, columns, types):
    """The result and summary readers' reference: the csv module's rows,
    each column converted by numpy (which calls int, float or str on each
    field), the first bad row named as storage names it."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file (missing header row)")
    header = [h.strip() for h in rows[0]]
    if header != list(columns):
        raise ValueError(f"{path}: expected header {','.join(columns)}, got {','.join(header)}")
    numbered = [(rownum, row) for rownum, row in enumerate(rows[1:], 2) if row]
    for rownum, row in numbered:
        if len(row) != len(columns):
            raise ValueError(f"{path} row {rownum}: expected {len(columns)} fields,"
                             f" got {len(row)}")
    fields = list(zip(*(row for _, row in numbered))) or [()] * len(columns)
    try:
        return {c: np.array(f, dtype=t) for c, t, f in zip(columns, types, fields)}
    except (ValueError, OverflowError):
        for rownum, row in numbered:
            for t, v in zip(types, row):
                try:
                    t(v)
                except ValueError as exc:
                    raise ValueError(f"{path} row {rownum}: {exc}")
                if t is int and not -2 ** 63 <= int(v) < 2 ** 63:
                    raise ValueError(f"{path} row {rownum}: {v!r} is outside the int64 range")
        raise


RESULTS_TYPES = (str, float) + (int,) * 6
SUMMARY_TYPES = (str,) + (float,) * 7
ODD_LABELS = ('"asc_fbg"', '"a ""b"" c"', '""', " asc_fbg ", "\tasc_fbg", "#asc_fbg",
              "label_longer_than_thirty_two_characters", '"a,b"', '"a\nb"', '"a\r\nb"', 'a"b',
              '"a"b', ' "a"', '"a')
ODD_NUMBERS = ("+1_000", "\u0661", "-0", "1e400", "nan", "-nan", " 7 ", '"7"', "1.0", "", "#1",
               "9223372036854775807", "9223372036854775808", "-9223372036854775809")
READERS = [(storage.read_results_csv, storage.RESULTS_COLUMNS, RESULTS_TYPES),
           (storage.read_summary_csv, storage.SUMMARY_COLUMNS, SUMMARY_TYPES)]
CONTROLS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028")


@st.composite
def table_texts(draw, columns, types):
    """A table's text: its header, then clean rows mixed with odd fields,
    control characters, blank and whitespace-only lines and rows of the
    wrong length, with LF or CRLF line endings."""
    clean = {str: st.sampled_from(POLICY_KINDS), int: st.integers(0, 400).map(str),
             float: st.floats(0, 100).map(repr)}
    odd = {str: st.sampled_from(ODD_LABELS), int: st.sampled_from(ODD_NUMBERS),
           float: st.sampled_from(ODD_NUMBERS)}

    def field(t):
        value = draw(odd[t] if draw(st.integers(0, 7)) == 0 else clean[t])
        if draw(st.integers(0, 11)) == 0:
            at = draw(st.integers(0, len(value)))
            value = value[:at] + draw(st.sampled_from(CONTROLS)) + value[at:]
        return value

    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("row",) * 6 + ("blank", "spaces", "short", "long")))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from((" ", "\t", "  \t "))))
        else:
            width = len(columns) + {"row": 0, "short": -1, "long": 1}[kind]
            lines.append(",".join(field(t) for t in (types + types[-1:])[:width]))
    ending = draw(st.sampled_from(("\n", "\r\n")))
    return ending.join(lines) + ending * draw(st.booleans())


def read_outcome(reader, path):
    """What reader makes of path: its arrays, as dtype and bytes, or its
    error; and every warning it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            columns = reader(path)
            outcome = {c: (a.dtype, a.shape, a.tobytes()) for c, a in columns.items()}
        except ValueError as exc:
            outcome = (type(exc), str(exc))
    return outcome, [str(w.message) for w in caught]


class TestTables:
    def test_results_rows_sorted_by_policy_capacity_rep_period(self, tmp_path):
        results = [_run_result("desc_fbg", 0.2, 1), _run_result("desc_fbg", 0.2, 0),
                   _run_result("asc_fbg", 0.1, 0)]
        path = tmp_path / "results.csv"
        storage.write_results_csv(str(path), results)
        columns = storage.read_results_csv(str(path))
        keys = list(zip(*(columns[c].tolist()
                          for c in ("policy", "capacity_pct", "replication", "period"))))
        assert keys == sorted(keys)
        assert keys[0] == ("asc_fbg", 10.0, 0, 1)
        assert len(keys) == 6  # three runs x two periods

    @given(cells=st.lists(
        st.tuples(st.sampled_from(POLICY_KINDS),
                  st.sampled_from((0.05, 0.1, 0.123456789012, 0.3 + 1e-12, 1 / 3, 1.0)),
                  st.integers(0, 3),
                  st.lists(st.tuples(*[st.integers(0, 10**6)] * 4), min_size=1, max_size=4)),
        max_size=12, unique_by=lambda cell: cell[:3]))
    @settings(max_examples=60, deadline=None)
    def test_results_bytes_equal_a_csv_writer_row_sort(self, cells):
        results = [RunResult(policy_kind=kind, capacity_fraction=fraction, replication=rep,
                             in_control=a, enrolled=b, visits_total=c, screening_visits=d,
                             final_log_fbg=(4.0,), ppc_fraction=0.5)
                   for kind, fraction, rep, periods in cells
                   for a, b, c, d in [tuple(zip(*periods))]]
        # the reference: every row as a tuple, key-sorted, through csv.writer
        rows = sorted(((r.policy_kind, round(r.capacity_fraction * 100.0, 10), r.replication,
                        t + 1, r.in_control[t], r.enrolled[t], r.visits_total[t],
                        r.screening_visits[t])
                       for r in results for t in range(len(r.in_control))),
                      key=lambda row: row[:4])
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(storage.RESULTS_COLUMNS)
        writer.writerows(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "results.csv")
            storage.write_results_csv(path, results)
            with open(path, "rb") as fh:
                assert fh.read() == expected.getvalue().encode("utf-8")

    def test_results_writer_refuses_unknown_labels_and_repeated_cells(self, tmp_path):
        path = str(tmp_path / "results.csv")
        with pytest.raises(ValueError, match="unknown policy kind 'a,b'"):
            storage.write_results_csv(path, [_run_result("a,b", 0.1, 0)])
        with pytest.raises(ValueError, match="policy asc_fbg at 10.0% capacity,"
                                             " replication 0 more than once"):
            storage.write_results_csv(path, [_run_result("asc_fbg", 0.1, 0),
                                             _run_result("desc_fbg", 0.1, 0),
                                             _run_result("asc_fbg", 0.1, 0, (3, 4))])

    def _results_file(self, tmp_path, lines):
        path = tmp_path / "results.csv"
        path.write_text(",".join(storage.RESULTS_COLUMNS) + "\n"
                        + "".join(line + "\n" for line in lines), encoding="utf-8")
        return str(path)

    def test_results_reader_counts_blank_lines_in_row_numbers(self, tmp_path):
        path = self._results_file(tmp_path, ["asc_fbg,10.0,0,1,1,0,2,1", "", "",
                                             "asc_fbg,10.0,0,2,x,0,2,1"])
        with pytest.raises(ValueError, match="results.csv row 5: invalid literal"):
            storage.read_results_csv(path)
        path = self._results_file(tmp_path, ["", "asc_fbg,10.0,0,1,1,0,2"])
        with pytest.raises(ValueError, match="results.csv row 3: expected 8 fields, got 7"):
            storage.read_results_csv(path)

    def test_results_reader_parses_quoted_fields_as_the_csv_module(self, tmp_path):
        lines = ['"asc_fbg",10.0,0,1,"1",0,2,1', '"a,""b""",1e1,0,2,1,0,2," 1 "',
                 '"c\r\nd",10,0,3,1,0,2,1', '"e\rf",10,0,4,1,0,2,1']
        columns = storage.read_results_csv(self._results_file(tmp_path, lines))
        parsed = list(csv.reader(lines))
        assert columns["policy"].tolist() == [row[0] for row in parsed] \
            == ["asc_fbg", 'a,"b"', "c\r\nd", "e\rf"]  # a quoted line break is kept as written
        assert columns["capacity_pct"].tolist() == [10.0] * 4
        assert columns["screening_visits"].tolist() == [1] * 4

    def test_results_reader_parses_numerals_as_int_and_float_do(self, tmp_path):
        numerals = [" 7 ", "+1_000", "\u0661", "-0"]
        lines = [f"asc_fbg,{v},0,1,{v},0,2,1" for v in numerals]
        columns = storage.read_results_csv(self._results_file(tmp_path, lines))
        assert columns["in_control"].tolist() == [int(v) for v in numerals] == [7, 1000, 1, 0]
        assert columns["capacity_pct"].tolist() == [float(v) for v in numerals]
        for bad in ("1.0", ""):
            path = self._results_file(tmp_path, ["asc_fbg,10.0,0,1,1,0,2,1",
                                                 f"asc_fbg,10.0,0,2,{bad},0,2,1"])
            with pytest.raises(ValueError) as raised:
                storage.read_results_csv(path)
            with pytest.raises(ValueError) as expected:
                int(bad)
            assert str(raised.value) == f"{path} row 3: {expected.value}"

    def test_results_reader_names_a_late_bad_row(self, tmp_path):
        lines = [f"asc_fbg,10.0,0,{t},1,0,2,1" for t in range(1, 601)]
        lines[-1] = "asc_fbg,10.0,0,600,1,0,2,one"
        with pytest.raises(ValueError, match="row 601: invalid literal for int"):
            storage.read_results_csv(self._results_file(tmp_path, lines))

    def test_empty_tables_keep_their_column_types(self, tmp_path):
        path = str(tmp_path / "table.csv")
        dtypes = [["U1", "f8"] + ["i8"] * 6, ["U1"] + ["f8"] * 7]
        for ending in ("", "\n", "\r\n", "\n\n"):
            for (reader, columns, _), expected in zip(READERS, dtypes):
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    fh.write(",".join(columns) + ending)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # np.loadtxt warns on a table with no rows
                    read = reader(path)
                assert [a.dtype.str[1:] for a in read.values()] == expected
                assert all(a.shape == (0,) for a in read.values())

    @pytest.mark.parametrize("reader,columns,types", READERS, ids=["results", "summary"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_readers_match_the_csv_module_reference(self, reader, columns, types, data):
        text = data.draw(table_texts(columns, types))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            outcome, caught = read_outcome(reader, path)
            assert outcome == read_outcome(lambda p: csv_reference(p, columns, types), path)[0]
            assert caught == []

    def test_written_tables_are_read_without_the_csv_module(self, tmp_path, monkeypatch):
        from chwplan.engine import SummaryRow
        results = [_run_result("desc_fbg", 0.2, 1), _run_result("asc_fbg", 0.1, 0)]
        summary = [SummaryRow(policy_kind="ea_desc_vtg", capacity_fraction=0.15,
                              ppc_mean=1.0 / 3.0, ppc_ci_halfwidth=-0.0,
                              final_fbg_percentiles=(4.1, NAN, 4.9, 5.2))]
        storage.write_results_csv(str(tmp_path / "results.csv"), results)
        storage.write_summary_csv(str(tmp_path / "summary.csv"), summary)
        paths = [str(tmp_path / "results.csv"), str(tmp_path / "summary.csv")]
        expected = [read_outcome(lambda p: csv_reference(p, columns, types), path)
                    for path, (_, columns, types) in zip(paths, READERS)]
        monkeypatch.setattr(storage, "_read_csv", None)  # the csv-module path would fail
        assert [read_outcome(reader, path)
                for path, (reader, _, _) in zip(paths, READERS)] == expected

    def test_results_periods_are_one_based(self, tmp_path):
        path = tmp_path / "results.csv"
        storage.write_results_csv(str(path), [_run_result("asc_fbg", 0.05, 0)])
        columns = storage.read_results_csv(str(path))
        assert columns["period"].tolist() == [1, 2]
        assert columns["in_control"].tolist() == [1, 2]
        assert columns["visits"][0] == 2 and columns["screening_visits"][0] == 1

    def test_cohort_floats_round_trip_exactly(self, tmp_path):
        # awkward binary floats: repr() emits the shortest exact form
        from chwplan.engine import Cohort
        from chwplan.model import PatientState
        from chwplan.scenarios import SampledCohort
        values = (0.1 + 0.2, 1.0 / 3.0, math.pi, 7.25e-17, 2.0)
        params = PatientParams(p=values[0], mu=values[1], alpha=values[2],
                               theta_base=values[3], lam=values[4],
                               s_base=0.30000000000000004, beta=1e-300,
                               gamma=0.2, rho=0.2)
        state = PatientState(b=math.log(175.1), s=0.0, theta=values[3],
                             z_prev=0)
        sampled = SampledCohort(
            cohort=Cohort(params=(params,), initial_states=(state,)),
            group_names=("G",))
        path = tmp_path / "cohort.csv"
        storage.write_cohort_csv(str(path), sampled)
        ids, rows = storage.read_feature_table(str(path))
        assert ids == ["p0000"]
        assert rows[0] == (values[0], values[1], values[2], values[3],
                           values[4], 0.30000000000000004, 1e-300)

    def test_feature_table_ignores_extra_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("zzz,p,mu,alpha,theta_base,lam,s_base,beta\n"
                        "9,1,2,3,4,5,6,7\n")
        ids, rows = storage.read_feature_table(str(path))
        assert ids == ["row2"]
        assert rows == [(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)]

    def test_feature_table_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("p,mu,alpha,theta_base,lam,s_base\n1,2,3,4,5,6\n")
        with pytest.raises(ValueError, match="missing columns beta"):
            storage.read_feature_table(str(path))

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty file"),
        ("p,mu,alpha,theta_base,lam,s_base,beta\n", "no data rows"),
        ("p,mu,alpha,theta_base,lam,s_base,beta\n1,2,3\n", "row 2: malformed"),
        ("p,mu,alpha,theta_base,lam,s_base,beta\n1,2,3,4,5,6,x\n", "row 2: malformed"),
    ])
    def test_feature_table_malformed_rejected(self, tmp_path, text, fragment):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=fragment):
            storage.read_feature_table(str(path))

    def test_summary_round_trip(self, tmp_path):
        from chwplan.engine import SummaryRow
        row = SummaryRow(policy_kind="ea_desc_vtg", capacity_fraction=0.15,
                         ppc_mean=1.0 / 3.0, ppc_ci_halfwidth=0.01,
                         final_fbg_percentiles=(4.1, 4.5, 4.9, 5.2))
        path = tmp_path / "summary.csv"
        storage.write_summary_csv(str(path), [row])
        back = storage.read_summary_csv(str(path))
        assert back["policy"].tolist() == ["ea_desc_vtg"]
        assert back["capacity_pct"].tolist() == [15.0]
        assert back["ppc_mean"].tolist() == [1.0 / 3.0]  # exact, not approximate
        assert back["final_fbg_p90"].tolist() == [5.2]


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

class TestScenarioFiles:
    def test_builtin_name_resolves_without_a_path(self):
        spec, path = storage.load_scenario("scenario1")
        assert path is None
        assert spec.name == "scenario1"
        assert spec.population == 378

    def test_json_round_trip_preserves_spec(self, tmp_path):
        original = builtin_scenarios()[2]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(storage.scenario_to_dict(original)))
        loaded, lpath = storage.load_scenario(str(path))
        assert lpath == str(path)
        assert loaded == original

    def test_omitted_sd_falls_back_to_shared_rule(self, tmp_path):
        keys = FEATURE_NAMES
        c1 = dict(zip(keys, (1.0, 0.5, 0.5, 1.0, 0.5, 0.0, 1.0)))
        c2 = dict(zip(keys, (3.0, 1.5, 0.5, 1.0, 0.5, 0.0, 1.0)))
        data = {"name": "two", "population": 10, "groups": [
            {"name": "a", "weight": 0.5, "centroid": c1},
            {"name": "b", "weight": 0.5, "centroid": c2},
        ]}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(data))
        spec, _ = storage.load_scenario(str(path))
        expected = default_sds([tuple(c1[k] for k in keys),
                                tuple(c2[k] for k in keys)])
        assert spec.groups[0][0].sd == expected
        assert spec.groups[1][0].sd == expected
        assert expected[0] == 0.2  # 10% of mean progression (1+3)/2

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ValueError, match="not a builtin") as exc:
            storage.load_scenario("nope")
        assert "scenario2" in str(exc.value)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ValueError, match="invalid JSON"):
            storage.load_scenario(str(path))

    def test_bad_weights_rejected_on_load(self, tmp_path):
        keys = FEATURE_NAMES
        cen = dict(zip(keys, (1.0, 0.5, 0.5, 1.0, 0.5, 0.0, 1.0)))
        data = {"name": "broken", "groups": [
            {"name": "a", "weight": 0.4, "centroid": cen},
            {"name": "b", "weight": 0.4, "centroid": cen},
        ]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="weights"):
            storage.load_scenario(str(path))

    def test_missing_centroid_key_names_the_group(self, tmp_path):
        keys = FEATURE_NAMES
        cen = dict(zip(keys, (1.0, 0.5, 0.5, 1.0, 0.5, 0.0, 1.0)))
        del cen["beta"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "m", "groups": [
            {"name": "a", "weight": 1.0, "centroid": cen}]}))
        with pytest.raises(ValueError, match="group 0: centroid missing beta"):
            storage.load_scenario(str(path))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

class TestManifest:
    def test_round_trip_and_input_digest(self, tmp_path):
        blob = tmp_path / "input.csv"
        blob.write_bytes(b"alpha,beta\n1,2\n")
        (tmp_path / "results.csv").write_bytes(b"x\n")
        storage.write_manifest(str(tmp_path), "simulate", {"k": 1}, 42,
                               [str(blob)], ["results.csv"], 1.23456)
        back = storage.read_manifest(str(tmp_path))
        assert set(back) == {"tool_version", "command", "config", "base_seed",
                             "input_digests", "outputs", "output_digests",
                             "duration_seconds", "work"}
        assert back["work"] == {}
        assert back["command"] == "simulate"
        assert back["base_seed"] == 42
        assert back["outputs"] == ["results.csv"]
        assert back["duration_seconds"] == 1.235  # rounded to ms
        expected = hashlib.sha256(b"alpha,beta\n1,2\n").hexdigest()
        assert back["input_digests"][str(blob)] == expected
        assert back["output_digests"] == {
            "results.csv": hashlib.sha256(b"x\n").hexdigest()}

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(ValueError, match="no manifest.json found"):
            storage.read_manifest(str(tmp_path))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

class TestCharts:
    def test_line_chart_is_deterministic(self, tmp_path):
        series = {"a": [(0.0, 1.0), (1.0, 2.0)], "b": [(0.0, 2.0), (1.0, 1.0)]}
        p1, p2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
        charts.line_chart(str(p1), "t", "x", "y", series)
        charts.line_chart(str(p2), "t", "x", "y", series)
        assert p1.read_bytes() == p2.read_bytes()

    def test_line_chart_labels_and_legend(self, tmp_path):
        path = tmp_path / "c.svg"
        charts.line_chart(str(path), "My Title", "periods", "share",
                          {"ea_desc_vtg": [(0.0, 0.1), (5.0, 0.4)]})
        svg = path.read_text()
        assert svg.startswith("<svg ")
        for text in ("My Title", "periods", "share", "ea_desc_vtg"):
            assert text in svg

    def test_nan_breaks_a_series_into_segments(self, tmp_path):
        path = tmp_path / "c.svg"
        charts.line_chart(str(path), "t", "x", "y", {
            "gappy": [(0.0, 1.0), (1.0, 2.0), (2.0, NAN), (3.0, 1.0), (4.0, 2.0)],
        })
        assert path.read_text().count("<polyline") == 2

    def test_isolated_point_drawn_as_circle(self, tmp_path):
        path = tmp_path / "c.svg"
        charts.line_chart(str(path), "t", "x", "y", {
            "dotty": [(0.0, 1.0), (1.0, NAN), (2.0, 2.0)],
        })
        svg = path.read_text()
        assert svg.count("<circle") == 2
        assert "<polyline" not in svg

    def test_bands_rendered_as_polygons(self, tmp_path):
        path = tmp_path / "c.svg"
        series = {"a": [(0.0, 1.0), (1.0, 2.0)]}
        bands = {"a": [(0.0, 0.5, 1.5), (1.0, 1.5, 2.5)]}
        charts.line_chart(str(path), "t", "x", "y", series, bands)
        assert "<polygon" in path.read_text()

    def test_empty_chart_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to plot"):
            charts.line_chart(str(tmp_path / "c.svg"), "t", "x", "y", {})
        with pytest.raises(ValueError, match="nothing to plot"):
            charts.box_chart(str(tmp_path / "b.svg"), "t", "y", {})

    def test_box_chart_reference_line_dashed(self, tmp_path):
        path = tmp_path / "b.svg"
        charts.box_chart(str(path), "t", "log-FBG",
                         {"pol": (4.0, 4.5, 5.0, 5.5)},
                         reference=("threshold", 4.83))
        svg = path.read_text()
        assert "stroke-dasharray" in svg
        assert "threshold" in svg
        assert svg.count("<rect") >= 2  # background + one box


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

class TestCapacityParsing:
    def test_default_range_syntax(self):
        fractions = _parse_capacities("5:100:5")
        assert len(fractions) == 20
        assert fractions[0] == 0.05 and fractions[-1] == 1.0
        assert list(fractions) == sorted(fractions)
        # a range may run past 100% as long as no value it holds does
        assert _parse_capacities("5:102:5") == fractions

    def test_comma_list_sorted_ascending(self):
        assert _parse_capacities("20,5,10") == (0.05, 0.1, 0.2)

    @pytest.mark.parametrize("text", [
        "0,10", "110", "5:1:5", "5:100:0", "5:100", "a,b", "", "10,10", "a:b:c",
        # non-finite bounds or steps, and a range far past 100%, fail at once
        "5:1e7:5", "5:inf:5", "5:100:nan", "5:100:inf", "nan:100:5",
    ])
    def test_bad_values_rejected(self, text):
        with pytest.raises(ValueError):
            _parse_capacities(text)

    @pytest.mark.parametrize("text", ["5:100:1e-300", "5:100:1e-12", "5:100:1e-15"])
    def test_step_too_fine_rejected_before_the_range_is_built(self, text):
        # 5 + 1e-300 == 5, and 1e-12 or 1e-15 rounds away at ten decimals:
        # each range would repeat 5% without end
        with pytest.raises(ValueError, match=f"bad capacity range '{text}'; step too fine"):
            _parse_capacities(text)
        # a one-value range needs no step at all
        assert _parse_capacities("5:5:1e-12") == (0.05,)

    def test_range_refused_once_it_holds_more_than_the_limit(self):
        # 9.5e10 distinct percents: refused at the limit, not expanded
        with pytest.raises(ValueError, match=f"'5:100:1e-9'; step too fine: more than"
                                             f" {MAX_CAPACITY_RANGE:,} values"):
            _parse_capacities("5:100:1e-9")
        # the limit itself is allowed; a range past 100 stops at its first value outside
        assert len(_parse_capacities("0.01:100:0.01")) == MAX_CAPACITY_RANGE
        with pytest.raises(ValueError, match="outside"):
            _parse_capacities("0.01:1e9:0.01")
        with pytest.raises(ValueError, match="step too fine: more than"):
            _parse_capacities("0.01:100:0.0099")
        # (99 - 1) / step is just under 10,000, but the slack admits a 10,001st value
        with pytest.raises(ValueError, match="'1:99:0.0098000000000049'; step too fine: more"
                                             f" than {MAX_CAPACITY_RANGE:,} values"):
            _parse_capacities("1:99:0.0098000000000049")

    @pytest.mark.parametrize("text", ["10,10", "5:5.00000000001:1e-12"])
    def test_duplicate_message_names_the_flag_text(self, text):
        # the range's step rounds away at ten decimals, so it repeats 5%
        with pytest.raises(ValueError) as err:
            _parse_capacities(text)
        assert str(err.value) == f"duplicate capacity values in '{text}'"

    def test_detail_capacity_closest_to_twenty_pct(self):
        assert _representative_pct([10.0, 20.0, 30.0]) == 20.0
        assert _representative_pct([5.0, 50.0]) == 5.0
        assert _representative_pct([15.0, 25.0]) == 15.0  # tie -> smaller


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

SIM_ARGS = ["simulate", "--scenario", "scenario3", "--policies",
            "ea_desc_vtg,asc_fbg", "--capacities", "10,20", "--reps", "2",
            "--seed", "3", "--horizon", "8", "--population", "12"]


class TestCliSimulate:
    def test_writes_tables_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(SIM_ARGS + ["--out", str(out)]) == 0
        assert "8 result cells" in capsys.readouterr().out
        columns = storage.read_results_csv(str(out / "results.csv"))
        # policies x caps x reps x periods
        assert all(len(v) == 2 * 2 * 2 * 8 for v in columns.values())
        summary = storage.read_summary_csv(str(out / "summary.csv"))
        assert all(len(v) == 4 for v in summary.values())
        manifest = storage.read_manifest(str(out))
        assert manifest["command"] == "simulate"
        assert manifest["base_seed"] == 3
        assert manifest["config"]["population"] == 12
        assert manifest["config"]["capacity_pct"] == [10.0, 20.0]
        assert sorted(manifest["outputs"]) == ["results.csv", "summary.csv"]

    def test_manifest_records_output_digests(self, tmp_path):
        out = tmp_path / "run"
        assert main(SIM_ARGS + ["--out", str(out)]) == 0
        manifest = storage.read_manifest(str(out))
        assert manifest["output_digests"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("results.csv", "summary.csv")}

    def test_manifest_counts_selection_work(self, tmp_path):
        # C is 1 and 2 of 12 patients, so ea_desc_vtg ranks by rollout
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(SIM_ARGS + ["--out", str(out1)]) == 0
        assert main(SIM_ARGS + ["--out", str(out2)]) == 0
        work = storage.read_manifest(str(out1))["work"]
        assert work == storage.read_manifest(str(out2))["work"]
        assert set(work) == {"interest_set_members", "members_ranked_by_rollout",
                             "rollout_member_steps", "rollouts_run",
                             "rollout_steps_run", "row_periods", "row_periods_stepped"}
        assert work["members_ranked_by_rollout"] > 0
        assert work["rollout_member_steps"] > work["members_ranked_by_rollout"]
        assert work["interest_set_members"] >= work["members_ranked_by_rollout"]
        # 2 policies x 2 capacities x 2 replications x 8 periods
        assert work["row_periods"] == 64
        assert 0 < work["row_periods_stepped"] <= work["row_periods"]

    def test_rollout_table_does_not_outlive_a_call(self, tmp_path):
        # both value-to-go policies at two capacities share each period's
        # rollouts; rollouts kept past the call would let the second
        # identical run skip them and report fewer
        args = SIM_ARGS[:3] + ["--policies", "ea_desc_vtg,ea_desc_vtg_per_visit"] + SIM_ARGS[5:]
        works = []
        for name in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
            works.append(storage.read_manifest(str(tmp_path / name))["work"])
        assert works[0] == works[1]
        work = works[0]
        assert 0 < work["rollouts_run"] < work["members_ranked_by_rollout"]
        assert 0 < work["rollout_steps_run"] < work["rollout_member_steps"]

    def test_rerun_is_byte_identical_except_duration(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(SIM_ARGS + ["--out", str(out1)]) == 0
        assert main(SIM_ARGS + ["--out", str(out2)]) == 0
        for name in ("results.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = storage.read_manifest(str(out1))
        m2 = storage.read_manifest(str(out2))
        m1.pop("duration_seconds"), m2.pop("duration_seconds")
        assert m1 == m2

    def test_seed_change_changes_results(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(SIM_ARGS + ["--out", str(out1)]) == 0
        args = [a if a != "3" else "4" for a in SIM_ARGS]
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()

    def test_out_dir_env_var_used_when_flag_absent(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("CHWPLAN_OUT", str(target))
        assert main(SIM_ARGS) == 0
        assert (target / "results.csv").exists()

    # scenario1 includes the group whose progression outruns treatment,
    # so sampling it legitimately warns once per cohort
    @pytest.mark.filterwarnings("ignore:group D")
    def test_custom_scenario_file_digested_into_manifest(self, tmp_path):
        spec_file = tmp_path / "custom.json"
        data = storage.scenario_to_dict(builtin_scenarios()[0])
        spec_file.write_text(json.dumps(data))
        out = tmp_path / "run"
        args = [a if a != "scenario3" else str(spec_file) for a in SIM_ARGS]
        assert main(args + ["--out", str(out)]) == 0
        manifest = storage.read_manifest(str(out))
        assert manifest["input_digests"] == {
            str(spec_file): storage.sha256_file(str(spec_file))}


class TestCliPipelines:
    def test_scenario_gen_then_cluster(self, tmp_path, capsys):
        cohort = tmp_path / "cohort.csv"
        assert main(["scenario-gen", "--scenario", "scenario3",
                     "--population", "10", "--seed", "7",
                     "--out", str(cohort)]) == 0
        ids, rows = storage.read_feature_table(str(cohort))
        assert len(ids) == 10 and ids[0] == "p0000"

        clu = tmp_path / "clu"
        assert main(["cluster", "--params", str(cohort), "--k", "2",
                     "--elbow", "1:3", "--seed", "0",
                     "--out", str(clu)]) == 0
        centroid_rows = (clu / "centroids.csv").read_text().splitlines()
        assert centroid_rows[0] == "cluster," + ",".join(FEATURE_NAMES)
        assert len(centroid_rows) == 3  # header + 2 clusters
        assignments = (clu / "assignments.csv").read_text().splitlines()
        assert len(assignments) == 11 and assignments[0] == "patient_id,cluster"
        elbow = (clu / "elbow.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in elbow] == ["k", "1", "2", "3"]
        inertias = [float(r.split(",")[1]) for r in elbow[1:]]
        assert inertias == sorted(inertias, reverse=True)
        config = storage.read_manifest(str(clu))["config"]
        assert config["clustering.MAX_ITERATIONS"] == clustering.MAX_ITERATIONS
        assert config["clustering.TOLERANCE"] == clustering.TOLERANCE
        assert config["clustering.RESTARTS"] == clustering.RESTARTS

    def test_cluster_manifest_counts_its_work(self, tmp_path):
        cohort = tmp_path / "cohort.csv"
        assert main(["scenario-gen", "--scenario", "scenario3",
                     "--population", "12", "--seed", "3",
                     "--out", str(cohort)]) == 0
        clu = tmp_path / "clu"
        # --k 5 lies outside the sweep, so four k's are fit
        assert main(["cluster", "--params", str(cohort), "--k", "5",
                     "--elbow", "1:3", "--seed", "4", "--out", str(clu)]) == 0
        _, rows = storage.read_feature_table(str(cohort))
        fits = [cluster_params(rows, k, seed=4) for k in (1, 2, 3, 5)]
        work = storage.read_manifest(str(clu))["work"]
        assert work == {
            "lloyd_iterations": sum(f.lloyd_iterations for f in fits),
            "restarts_run": 4 * clustering.RESTARTS,
            "distance_rows": sum(f.distance_rows for f in fits),
        }
        assert work["lloyd_iterations"] >= work["restarts_run"]
        for table in ("centroids.csv", "assignments.csv", "elbow.csv"):
            assert "lloyd" not in (clu / table).read_text()
            assert "restarts" not in (clu / table).read_text()

    def test_estimate_recovers_noise_free_history(self, tmp_path):
        params = PatientParams(p=1.0, mu=0.22, alpha=1.2, beta=1.0, lam=0.02,
                               gamma=0.2, rho=0.2, s_base=0.0, theta_base=1.0)
        visits = tuple(t for k in range(3) for t in (8 * k, 8 * k + 1,
                                                     8 * k + 2, 8 * k + 4))
        hist, _ = generate_history(params, 2.0, visits, 20, sigma_eps=0.0)
        obs = hist.observed_map
        lines = [f"demo,{t},{hist.visited[t]},{hist.enrolled[t]},"
                 f"{math.exp(obs[t])!r}" for t in range(20)]
        path = write_history_csv(tmp_path / "hist.csv", lines)
        out = tmp_path / "est"
        assert main(["estimate", "--histories", path,
                     "--grid-s-base", "0,1", "--grid-beta", "0,1",
                     "--grid-gamma", "0.2,0.5", "--grid-rho", "0.2,0.5",
                     "--out", str(out)]) == 0
        text = (out / "estimates.csv").read_text().splitlines()
        assert text[0] == ",".join(storage.ESTIMATE_COLUMNS)
        fields = dict(zip(storage.ESTIMATE_COLUMNS, text[1].split(",")))
        assert fields["patient_id"] == "demo"
        assert float(fields["nll"]) < 1e-6
        assert abs(float(fields["p"]) - 1.0) < 1e-4
        assert abs(float(fields["mu"]) - 0.22) < 1e-4
        assert abs(float(fields["alpha"]) - 1.2) < 1e-4
        assert (float(fields["gamma"]), float(fields["rho"])) == (0.2, 0.2)
        assert (float(fields["s_base"]), float(fields["beta"])) == (0.0, 1.0)

    def test_report_renders_charts_deterministically(self, tmp_path):
        out = tmp_path / "run"
        assert main(SIM_ARGS + ["--out", str(out)]) == 0
        assert main(["report", "--results", str(out)]) == 0
        charts_dir = out / "charts"
        names = ["ppc_vs_capacity.svg", "screening_share.svg",
                 "enrollment_share.svg", "final_fbg.svg"]
        for name in names:
            assert (charts_dir / name).stat().st_size > 500
        manifest = storage.read_manifest(str(charts_dir))
        assert manifest["command"] == "report"
        assert manifest["config"]["detail_capacity_pct"] == 20.0

        again = tmp_path / "again"
        assert main(["report", "--results", str(out),
                     "--out", str(again)]) == 0
        for name in names:
            assert (charts_dir / name).read_bytes() == (again / name).read_bytes()

    def test_report_charts_a_run_that_visits_no_one(self, tmp_path, capsys):
        # no visits at the detail capacity: every screening share is NaN, so
        # the screening chart is its axes and legend alone
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", "scenario3", "--population", "20",
                     "--policies", "visit_no_one", "--reps", "2", "--horizon", "5",
                     "--out", str(out)]) == 0
        assert main(["report", "--results", str(out)]) == 0
        assert "report: 4 charts" in capsys.readouterr().out
        names = ["ppc_vs_capacity.svg", "screening_share.svg",
                 "enrollment_share.svg", "final_fbg.svg"]
        assert sorted(storage.read_manifest(str(out / "charts"))["outputs"]) == sorted(names)
        screening = (out / "charts" / "screening_share.svg").read_text()
        assert ">visit_no_one</text>" in screening  # the legend
        assert "<polyline" not in screening and "<circle" not in screening
        assert all(f'fill="#222222">{tick}</text>' in screening  # the y axis spans [0, 1]
                   for tick in ("0", "0.25", "0.5", "0.75", "1"))
        assert "<polyline" in (out / "charts" / "enrollment_share.svg").read_text()

    def test_report_share_series_skips_idle_replications(self):
        # period 1: replication 1 is idle, so the mean is replication 0's
        # share alone; period 2: idle in both, so no screening share
        # results.csv's columns, rows out of order; the last two rows are
        # another policy's and another capacity's
        names = ("policy", "capacity_pct", "replication", "period", "visits",
                 "screening_visits", "enrolled")
        rows = [("asc_fbg", 20.0, 1, 2, 0, 0, 4), ("asc_fbg", 20.0, 0, 1, 2, 1, 1),
                ("asc_fbg", 20.0, 1, 1, 0, 0, 2), ("asc_fbg", 20.0, 0, 2, 0, 0, 3),
                ("desc_fbg", 20.0, 0, 1, 4, 4, 4), ("asc_fbg", 10.0, 0, 1, 4, 4, 4)]
        columns = {c: np.array(v) for c, v in zip(names, zip(*rows))}
        screening, enrollment = _share_series(columns, "asc_fbg", 20.0, 4, "results.csv")
        assert screening[0] == (1.0, 0.5)
        assert screening[1][0] == 2.0 and math.isnan(screening[1][1])
        assert enrollment == [(1.0, 0.375), (2.0, 0.875)]


class TestCliEstimate:
    def test_manifest_counts_grid_work(self, tmp_path):
        params = PatientParams(p=1.0, mu=0.22, alpha=1.2, beta=1.0, lam=0.02,
                               gamma=0.2, rho=0.2, s_base=0.0, theta_base=1.0)
        visits = tuple(t for k in range(3) for t in (8 * k, 8 * k + 1,
                                                     8 * k + 2, 8 * k + 4))
        hist, _ = generate_history(params, 2.0, visits, 20, sigma_eps=0.0)
        obs = hist.observed_map
        lines = [f"{pid},{t},{hist.visited[t]},{hist.enrolled[t]},"
                 f"{math.exp(obs[t])!r}" for pid in ("a", "b") for t in range(20)]
        path = write_history_csv(tmp_path / "hist.csv", lines)
        out = tmp_path / "est"
        assert main(["estimate", "--histories", path,
                     "--grid-s-base", "0,1", "--grid-beta", "0,1",
                     "--grid-gamma", "0.2", "--grid-rho", "0.2,0.5,0.8",
                     "--out", str(out)]) == 0
        work = storage.read_manifest(str(out))["work"]
        cells = work["grid_cells_solved"] + work["grid_cells_primal_infeasible"] \
            + work["grid_cells_nonconverged"] + work["grid_cells_pruned"]
        assert cells == 12 * 2  # grid cells x patients
        assert work["qp_iterations"] >= cells
        header = (out / "estimates.csv").read_text().splitlines()[0]
        assert header == ",".join(storage.ESTIMATE_COLUMNS)

    def test_manifest_counts_reused_cells(self, tmp_path):
        # the console-script check's records: a and b stop at cell 0; c
        # declines the offer of its second visit, which its cells 0-24
        # (s_base = beta = 0, so h = 0) fit badly, and their constraints
        # differ only by rho: 5 distinct QPs for 25 cells before cell 25 wins
        lines = ["a,0,1,1,180", "a,1,0,1,171", "a,2,0,1,165", "a,3,1,1,150",
                 "b,0,0,0,160", "b,1,1,0,166", "b,2,0,0,172",
                 "c,0,1,1,155", "c,1,1,0,156", "c,2,0,0,144"]
        path = write_history_csv(tmp_path / "hist.csv", lines)
        out = tmp_path / "est"
        assert main(["estimate", "--histories", path, "--out", str(out)]) == 0
        work = storage.read_manifest(str(out))["work"]
        assert work["grid_cells_reused"] == 20
        # status counts still cover every cell, reused or not
        assert (work["grid_cells_solved"] + work["grid_cells_primal_infeasible"]
                + work["grid_cells_nonconverged"] + work["grid_cells_pruned"]) == 400 * 3

    def test_manifest_records_every_numeric_constant(self, tmp_path):
        params = PatientParams(p=1.0, mu=0.22, alpha=1.2, beta=1.0, lam=0.02,
                               gamma=0.2, rho=0.2, s_base=0.0, theta_base=1.0)
        hist, _ = generate_history(params, 2.0, (0, 1, 2, 4), 8, sigma_eps=0.0)
        obs = hist.observed_map
        lines = [f"a,{t},{hist.visited[t]},{hist.enrolled[t]},{math.exp(obs[t])!r}"
                 for t in range(8)]
        path = write_history_csv(tmp_path / "hist.csv", lines)
        out = tmp_path / "est"
        assert main(["estimate", "--histories", path, "--grid-s-base", "0",
                     "--grid-beta", "1", "--grid-gamma", "0.2",
                     "--grid-rho", "0.2", "--out", str(out)]) == 0
        config = storage.read_manifest(str(out))["config"]
        numbers = {f"{module.__name__.rsplit('.', 1)[-1]}.{name}": value
                   for module in (qp, estimation) for name, value in vars(module).items()
                   if name.isupper() and isinstance(value, (int, float))}
        assert {"qp.RHO_MIN", "qp.RHO_MAX", "estimation.STRICT_GAP"} <= set(numbers)
        assert {key: config.get(key) for key in numbers} == numbers


# each command's argv, given a directory of inputs (a simulate run, a
# cohort table and visit histories) and the command's output directory
COMMAND_ARGV = {
    "scenario-gen": lambda inputs, out: ["scenario-gen", "--scenario", "scenario3",
                                         "--population", "10", "--out", str(out / "cohort.csv")],
    "simulate": lambda inputs, out: SIM_ARGS + ["--out", str(out)],
    "report": lambda inputs, out: ["report", "--results", str(inputs / "sim"), "--out", str(out)],
    "cluster": lambda inputs, out: ["cluster", "--params", str(inputs / "cohort.csv"),
                                    "--k", "2", "--elbow", "1:3", "--out", str(out)],
    "estimate": lambda inputs, out: ["estimate", "--histories", str(inputs / "hist.csv"),
                                     "--out", str(out)],
}


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    assert main(SIM_ARGS + ["--out", str(inputs / "sim")]) == 0
    assert main(COMMAND_ARGV["scenario-gen"](inputs, inputs)) == 0
    write_history_csv(inputs / "hist.csv", ["a,0,1,1,180", "a,1,0,1,171", "a,3,1,1,150"])
    return inputs


@pytest.mark.parametrize("command, layer, entry, derived", [
    ("simulate", engine, "capacity_sweep", {"row_periods"}),
    ("estimate", estimation, "estimate_patient", set()),
    ("cluster", clustering, "cluster_params", {"restarts_run"}),
])
def test_manifest_work_sums_the_layer_work_fields(command, layer, entry, derived,
                                                 command_inputs, tmp_path, monkeypatch):
    # each work key is the result field of that name, summed over the results
    # the command's layer returned; the command adds only its derived totals
    results = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        results.extend(result if command == "simulate" else [result])
        return result

    original = getattr(cli, entry)
    monkeypatch.setattr(cli, entry, recorded)
    assert main(COMMAND_ARGV[command](command_inputs, tmp_path / "out")) == 0
    work = storage.read_manifest(str(tmp_path / "out"))["work"]
    assert results and set(work) == set(layer.WORK) | derived
    for key in layer.WORK:
        assert work[key] == sum(getattr(r, key) for r in results), key


@pytest.mark.parametrize("command", list(COMMAND_ARGV))
def test_manifest_records_what_each_command_wrote(command, command_inputs, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(COMMAND_ARGV[command](command_inputs, out)) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith(f"{command}: ") and stdout.count("\n") == 1
    manifest = storage.read_manifest(str(out))
    assert manifest["command"] == command
    written = sorted(p.name for p in out.iterdir() if p.name != storage.MANIFEST_NAME)
    assert sorted(manifest["outputs"]) == written
    assert manifest["output_digests"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written}


class TestCliErrors:
    @pytest.mark.parametrize("args", [
        ["simulate", "--scenario", "nope", "--policies", "asc_fbg"],
        ["simulate", "--scenario", "scenario1", "--policies", "bogus"],
        ["simulate", "--scenario", "scenario1", "--policies", "asc_fbg",
         "--capacities", "5:1:5"],
        ["simulate", "--scenario", "scenario1", "--policies",
         "asc_fbg,asc_fbg"],
        ["simulate"],  # missing required flags
        ["not-a-command"],
        [],
        ["simulate", "--scenario", "scenario1", "--policies", ","],
        ["estimate", "--histories", "h.csv", "--grid-beta", "x"],
        ["estimate", "--histories", "h.csv", "--grid-beta", ","],
        ["cluster", "--params", "t.csv", "--k", "1", "--elbow", "a:b"],
        ["cluster", "--params", "t.csv", "--k", "1", "--elbow", "3:1"],
    ])
    def test_user_errors_exit_one(self, args, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_history_csv(tmp_path / "h.csv", ["p1,0,1,1,130"])
        (tmp_path / "t.csv").write_text(",".join(FEATURE_NAMES) + "\n1,2,3,4,5,6,7\n")
        assert main(args) == 1
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("data,fragment", [
        ([], "expected a JSON object"),
        ({"groups": []}, "groups must be a nonempty list"),
        ({"groups": [5]}, "group 0: expected a JSON object"),
        ({"groups": [{"weight": 1.0, "centroid": CENTROID}]}, "group 0: missing name"),
        ({"groups": [{"name": "a", "centroid": CENTROID}]}, "group 0: missing weight"),
        ({"population": "many", "groups": GROUPS}, "population must be an integer"),
        ({"population": 10.5, "groups": GROUPS}, "population must be an integer"),
        ({"gamma": None, "groups": GROUPS}, "gamma must be a number"),
        ({"rho": True, "groups": GROUPS}, "rho must be a number"),
        ({"groups": [{"name": "a", "weight": [1], "centroid": CENTROID}]},
         "group 0: weight must be a number, got [1]"),
        ({"groups": [{"name": "a", "weight": True, "centroid": CENTROID}]},
         "group 0: weight must be a number, got True"),
        ({"groups": [{"name": "a", "weight": 1.0, "centroid": {**CENTROID, "mu": "x"}}]},
         "group 0: centroid.mu must be a number, got 'x'"),
        ({"groups": [{"name": "a", "weight": 1.0, "centroid": CENTROID,
                      "sd": {**CENTROID, "lam": [0.1]}}]},
         "group 0: sd.lam must be a number, got [0.1]"),
        ({"gamma": 0.0, "groups": GROUPS}, "gamma must lie in (0, 1)"),
        ({"population": 0, "groups": GROUPS}, "population must be >= 1"),
        ({"groups": [{"name": "a", "weight": 0.5, "centroid": CENTROID}]},
         "group weights must sum to 1"),
        ({"groups": [{"name": "a", "weight": 1.0, "centroid": {**CENTROID, "p": -1.0}}]},
         "group 'a': centroid means must be >= 0"),
        ({"groups": [{"name": "a", "weight": NAN, "centroid": CENTROID}]},
         "group weights must be finite and >= 0"),
        ({"groups": [{"name": "a", "weight": math.inf, "centroid": CENTROID}]},
         "group weights must be finite and >= 0"),
    ], ids=["not-object", "no-groups", "group-not-object", "group-no-name",
            "group-no-weight", "population-string", "population-float",
            "gamma-null", "rho-bool", "weight-list", "weight-bool", "centroid-string",
            "sd-list", "gamma-zero", "population-zero", "weights-not-one",
            "centroid-negative", "weight-nan", "weight-inf"])
    def test_malformed_scenario_file_exits_one(self, tmp_path, capsys, data, fragment):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert main(["scenario-gen", "--scenario", str(path),
                     "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert fragment in err and str(path) in err

    @pytest.mark.parametrize("name,text,fragment", [
        ("results.csv", ",".join(storage.RESULTS_COLUMNS) + "\nasc_fbg,10.0,0,1,1,0,2,1\n"
         "asc_fbg,10.0,0\n", "results.csv row 3: expected 8 fields, got 3"),
        ("results.csv", ",".join(storage.RESULTS_COLUMNS) + "\nasc_fbg,10.0,0,1,x,0,2,1\n",
         "results.csv row 2: invalid literal"),
        ("results.csv", ",".join(storage.RESULTS_COLUMNS) + "\nasc_fbg,10.0,0,1,1,0,2,1\n"
         '"asc_fbg",10.0,0,2,99999999999999999999,0,2,1\n',
         "results.csv row 3: '99999999999999999999' is outside the int64 range"),
        ("results.csv", ",".join(storage.RESULTS_COLUMNS) + "\nasc_fbg,10.0,0,1,1,0,2,1\n"
         "asc_fbg,10.0,0,2,1,0,2,1\ndesc_fbg,20.0,0,1,1,0,2,1\n",
         "results.csv: policy asc_fbg at 20% capacity has no rows"),
        ("results.csv", ",".join(storage.RESULTS_COLUMNS) + "\nasc_fbg,10.0,0,1,1,0,2,1\n"
         "asc_fbg,10.0,0,2,1,0,2,1\nasc_fbg,10.0,1,1,1,0,2,1\n",
         "results.csv: policy asc_fbg at 10% capacity: replication 1 does not hold each"
         " period of the cell once"),
        ("summary.csv", ",".join(storage.SUMMARY_COLUMNS) + "\nasc_fbg,10.0\n",
         "summary.csv row 2: expected 8 fields, got 2"),
        ("summary.csv", ",".join(storage.SUMMARY_COLUMNS) + "\nasc_fbg,20.0,0.5,0.1,4,4,5,5\n",
         "summary.csv: policy asc_fbg at 10% capacity needs exactly one row"),
        ("summary.csv", None, "missing summary.csv"),
        ("manifest.json", "[1, 2]\n", "manifest.json: expected a JSON object"),
        ("manifest.json", "{not json", "manifest.json: invalid JSON"),
        ("manifest.json", '{"config": {"population": 0}}', "lacks a usable population"),
        ("manifest.json", '{"config": 5}', "lacks a usable population"),
        ("manifest.json", '{"config": {"population": true}}', "lacks a usable population"),
        ("manifest.json", '{"config": {"population": 5, "delta_mgdl": -5}}',
         "manifest.json: config.delta_mgdl must be a finite number above 1 mg/dL, got -5"),
        ("manifest.json", '{"config": {"population": 5, "delta_mgdl": 0}}',
         "config.delta_mgdl must be a finite number above 1 mg/dL, got 0"),
        ("manifest.json", '{"config": {"population": 5, "delta_mgdl": 1}}',
         "config.delta_mgdl must be a finite number above 1 mg/dL, got 1"),
        ("manifest.json", '{"config": {"population": 5, "delta_mgdl": NaN}}',
         "config.delta_mgdl must be a finite number above 1 mg/dL, got nan"),
        ("manifest.json", '{"config": {"population": 5, "delta_mgdl": Infinity}}',
         "config.delta_mgdl must be a finite number above 1 mg/dL, got inf"),
        ("manifest.json", '{"config": {"population": 5, "delta_mgdl": "125"}}',
         "config.delta_mgdl must be a finite number above 1 mg/dL, got '125'"),
        ("manifest.json", '{"config": {"population": 5, "delta_mgdl": true}}',
         "config.delta_mgdl must be a finite number above 1 mg/dL, got True"),
    ], ids=["results-short-row", "results-bad-int", "results-int-overflow",
            "results-detail-cell-empty",
            "results-replication-lacks-period", "summary-short-row", "summary-detail-row-missing",
            "summary-missing", "manifest-not-object", "manifest-invalid-json",
            "manifest-zero-population",
            "manifest-config-not-object", "manifest-bool-population", "delta-negative", "delta-zero",
            "delta-one", "delta-nan", "delta-inf", "delta-string", "delta-bool"])
    def test_report_on_malformed_results_exits_one(self, tmp_path, capsys, name, text,
                                                    fragment):
        from chwplan.engine import SummaryRow
        out = tmp_path / "run"
        out.mkdir()
        storage.write_results_csv(str(out / "results.csv"), [_run_result("asc_fbg", 0.1, 0)])
        storage.write_summary_csv(str(out / "summary.csv"), [SummaryRow(
            policy_kind="asc_fbg", capacity_fraction=0.1, ppc_mean=0.5,
            ppc_ci_halfwidth=0.1, final_fbg_percentiles=(4.1, 4.5, 4.9, 5.2))])
        storage.write_manifest(str(out), "simulate", {"population": 5}, 0, [], [], 0.0)
        assert main(["report", "--results", str(out)]) == 0  # as written, it renders
        shutil.rmtree(out / "charts")
        if text is None:
            (out / name).unlink()
        else:
            (out / name).write_text(text)
        assert main(["report", "--results", str(out)]) == 1
        assert fragment in capsys.readouterr().err
        assert not (out / "charts").exists()  # rejected before writing anything

    @pytest.mark.parametrize("args,fragment", [
        (["simulate", "--sigma-xi", "nan"], "SimulationConfig.sigma_xi must be finite, got nan"),
        (["simulate", "--sigma-xi", "inf"], "SimulationConfig.sigma_xi must be finite, got inf"),
        # finite, but the noise drives log-FBG to inf and nan: no nan percentiles
        (["simulate", "--sigma-xi", "1.7e308"], "SimulationConfig.sigma_xi=1.7e+308"),
        (["simulate", "--delta-mgdl", "inf"], f"{DELTA_MESSAGE}, got inf"),
        (["simulate", "--delta-mgdl", "nan"], f"{DELTA_MESSAGE}, got nan"),
        (["simulate", "--delta-mgdl", "0"], f"{DELTA_MESSAGE}, got 0.0"),
        (["simulate", "--delta-mgdl", "0.5"], f"{DELTA_MESSAGE}, got 0.5"),
        (["estimate", "--sigma-eps", "inf"], "EstimationConfig.sigma_eps must be finite, got inf"),
        (["estimate", "--sigma-eps", "nan"], "EstimationConfig.sigma_eps must be finite, got nan"),
        (["estimate", "--sigma-xi", "nan"], "EstimationConfig.sigma_xi must be finite, got nan"),
        (["estimate", "--grid-beta", "0,inf"], "s_base/beta grid values must be finite and >= 0"),
        # 1/sigma**2 divides by zero, overflows, or is inf
        (["estimate", "--sigma-eps", "1e-200"], WEIGHT_MESSAGE.format("sigma_eps", "1e-200")),
        (["estimate", "--sigma-eps", "1e300"], WEIGHT_MESSAGE.format("sigma_eps", "1e+300")),
        (["estimate", "--sigma-eps", "1e-160"], WEIGHT_MESSAGE.format("sigma_eps", "1e-160")),
        (["estimate", "--sigma-xi", "1e-160"], WEIGHT_MESSAGE.format("sigma_xi", "1e-160")),
        # finite weights, but p1's q (first) or its constant nll term (second) overflows
        (["estimate", "--sigma-eps", "1e-154"], OVERFLOW_MESSAGE.format("1e-154")),
        (["estimate", "--sigma-eps", "3.2e-154"], OVERFLOW_MESSAGE.format("3.2e-154")),
        # finite grid values, but h**2 in the solver's rho*A'A overflows
        (["estimate", "--grid-s-base", "1e160"], GRID_MESSAGE.format(
            "(1e+160, 0.0, 0.2, 0.2)", "(1e+160,)", DEFAULT_GRID)),
        (["estimate", "--grid-s-base", "0,1e160"], GRID_MESSAGE.format(
            "(1e+160, 0.0, 0.2, 0.2)", "(0.0, 1e+160)", DEFAULT_GRID)),
        (["estimate", "--grid-beta", "0,1e160"], GRID_MESSAGE.format(
            "(0.0, 1e+160, 0.2, 0.2)", DEFAULT_GRID, "(0.0, 1e+160)")),
    ], ids=["sim-sigma-xi-nan", "sim-sigma-xi-inf", "sim-sigma-xi-overflow", "sim-delta-inf",
            "sim-delta-nan", "sim-delta-zero", "sim-delta-below-one", "est-sigma-eps-inf",
            "est-sigma-eps-nan", "est-sigma-xi-nan", "est-grid-beta-inf",
            "est-sigma-eps-weight-zero-division", "est-sigma-eps-weight-overflow",
            "est-sigma-eps-weight-inf", "est-sigma-xi-weight-inf", "est-q-overflow",
            "est-nll-constant-overflow", "est-grid-s-base-overflow",
            "est-grid-s-base-overflow-after-zero", "est-grid-beta-overflow"])
    def test_non_finite_numbers_exit_one_naming_the_field_or_flag(self, tmp_path, capsys,
                                                                 args, fragment):
        # nan passes every comparison-based range check and inf most of them,
        # so each is refused by name before any output is written
        path = write_history_csv(tmp_path / "h.csv", ["p1,0,1,1,130", "p1,1,0,1,125"])
        command = {"simulate": ["--scenario", "scenario3", "--population", "5",
                                "--policies", "asc_fbg", "--capacities", "20",
                                "--reps", "1", "--horizon", "2"],
                   "estimate": ["--histories", path]}[args[0]]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args[:1] + command + args[1:] + ["--out", str(out)]) == 1
        assert fragment in capsys.readouterr().err
        assert not out.exists()
        # an estimate is refused before any solve; a simulate's overflow is refused after
        # its period loop, which runs with overflow and invalid warnings off
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_large_grid_values_run_without_a_warning(self, tmp_path):
        # every cell's h is about 1e150, whose square is still finite in rho*A'A
        path = write_history_csv(tmp_path / "h.csv", ["p1,0,1,1,130", "p1,1,0,1,125"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["estimate", "--histories", path, "--grid-s-base", "1e150",
                         "--grid-beta", "1e150", "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "estimates.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (float(row["s_base"]), float(row["beta"])) == (1e150, 1e150)

    def test_one_parser_serves_calls_as_fresh_processes_would(self, tmp_path, capsys):
        simulate = ["simulate", "--scenario", "scenario3", "--population", "5", "--policies",
                    "asc_fbg", "--capacities", "20", "--reps", "1", "--horizon", "2",
                    "--out", str(tmp_path / "sim")]
        calls = [simulate + ["--bogus"], simulate, ["--help"]]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        build_parser.cache_clear()
        in_one_process = [run(argv) for argv in calls]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert in_one_process == fresh
        assert [code for code, _, _ in fresh] == [1, 0, 0]
        assert "unrecognized arguments: --bogus" in fresh[0][2]
        assert fresh[1][1].startswith("simulate: 1 result cells")
        assert fresh[2][1].startswith("usage: chwplan")

    def test_report_on_missing_directory_exits_one(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path / "void")]) == 1
        assert "no manifest.json" in capsys.readouterr().err

    def test_report_on_empty_results_exits_one(self, tmp_path, capsys):
        out = tmp_path / "hollow"
        out.mkdir()
        storage.write_results_csv(str(out / "results.csv"), [])
        storage.write_summary_csv(str(out / "summary.csv"), [])
        storage.write_manifest(str(out), "simulate", {"population": 5}, 0, [], [], 0.0)
        assert main(["report", "--results", str(out)]) == 1
        assert "results are empty" in capsys.readouterr().err

    def test_estimate_on_empty_file_exits_one(self, tmp_path, capsys):
        path = write_history_csv(tmp_path / "empty.csv", [])
        out = tmp_path / "est"
        assert main(["estimate", "--histories", path, "--out", str(out)]) == 1
        assert "no visit records" in capsys.readouterr().err

    def test_cluster_with_bad_elbow_exits_one(self, tmp_path, capsys, monkeypatch):
        cohort = tmp_path / "cohort.csv"
        assert main(["scenario-gen", "--scenario", "scenario3",
                     "--population", "4", "--out", str(cohort)]) == 0
        capsys.readouterr()
        # a k beyond the table's 4 rows is refused, naming the flag, before
        # any fit runs or the output directory is made
        import chwplan.cli as cli_mod

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")
        monkeypatch.setattr(cli_mod, "cluster_params", no_fit)
        for flags, fragment in ((["--k", "2", "--elbow", "3"], "expected kmin:kmax"),
                                (["--k", "5"], "--k 5 must be between 1 and the number of rows (4)"),
                                (["--k", "2", "--elbow", "1:5"],
                                 "bad --elbow '1:5'; need 1 <= kmin <= kmax <= the number of rows (4)")):
            out = tmp_path / "c"
            assert main(["cluster", "--params", str(cohort), *flags, "--out", str(out)]) == 1
            assert fragment in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cluster_on_overflowing_table_names_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("patient_id,p,mu,alpha,theta_base,lam,s_base,beta\n"
                        "a,1,1,1,1,1,1,1\n\nb,1e200,1,1,1,1,1,1\nc,2,2,2,2,2,2,2\n")
        for k in ("1", "2"):
            assert main(["cluster", "--params", str(path), "--k", k,
                         "--out", str(tmp_path / "c")]) == 1
            assert f"{path} row 4: features non-finite or too large" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scenario-gen", "--scenario", "scenario3", "--seed", "-1"],
        ["cluster", "--params", "t.csv", "--k", "1", "--seed", "-3"],
    ])
    def test_negative_seed_named_at_parse_time(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert (f"chwplan {argv[0]}: error: argument --seed: must be a non-negative integer,"
                f" got '{argv[-1]}'") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        import chwplan.cli as cli_mod

        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.9 GiB")

        monkeypatch.setattr(cli_mod, "capacity_sweep", too_big)
        assert main(SIM_ARGS + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == "chwplan simulate: error: not enough memory: Unable to allocate 14.9 GiB\n"
        assert not (tmp_path / "x").exists()

    def test_estimate_out_of_memory_names_file_and_patient(self, tmp_path, capsys,
                                                           monkeypatch):
        import chwplan.cli as cli_mod
        path = write_history_csv(tmp_path / "h.csv", ["a,0,1,1,130", "b,0,1,1,140"])
        real = cli_mod.estimate_patient

        def too_big_for_b(history, config):
            if history.patient_id == "b":
                raise MemoryError("Unable to allocate 7.28 TiB")
            return real(history, config)

        monkeypatch.setattr(cli_mod, "estimate_patient", too_big_for_b)
        out = tmp_path / "est"
        assert main(["estimate", "--histories", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"chwplan estimate: error: not enough memory: {path}: patient 'b':"
            " Unable to allocate 7.28 TiB\n")
        assert not out.exists()

    def test_cluster_row_without_its_patient_id_names_file_and_row(self, tmp_path, capsys):
        # patient_id is the last column, so a row one field short has every
        # feature but no id
        path = tmp_path / "short.csv"
        path.write_text("p,mu,alpha,theta_base,lam,s_base,beta,patient_id\n"
                        "1,1,1,1,1,1,1,a\n2,2,2,2,2,2,2\n")
        out = tmp_path / "c"
        assert main(["cluster", "--params", str(path), "--k", "1", "--out", str(out)]) == 1
        assert f"{path} row 3: malformed feature row" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_bug_exits_two(self, tmp_path, capsys, monkeypatch):
        import chwplan.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_mod, "capacity_sweep", boom)
        assert main(SIM_ARGS + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "internal error" in err and "wires crossed" in err
