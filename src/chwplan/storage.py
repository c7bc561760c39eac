"""File formats: CSV tables, JSON scenario files, and run manifests.

Everything here is written for bit-exact reproducibility: floats are
serialized with repr() (shortest round-trip form, exact on re-read),
rows are emitted in a defined sort order, newlines are always "\n", and
manifests record content digests of every input so a run can be checked
and replayed.
"""

import csv
import hashlib
import io
import json
import math
import os
import warnings
from dataclasses import MISSING, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .clustering import FEATURE_NAMES, first_unusable_row
from .engine import RunResult, SummaryRow, capacity_pct
from .estimation import EstimationResult, VisitHistory
from .policy import POLICY_KINDS
from .scenarios import (
    GroupSpec,
    SampledCohort,
    ScenarioSpec,
    builtin_scenarios,
    default_sds,
)

HISTORY_COLUMNS = ("patient_id", "period", "visited", "enrolled", "fbg_mgdl")
COHORT_COLUMNS = ("patient_id", "group", "p", "mu", "alpha", "theta_base",
                  "lam", "s_base", "beta", "gamma", "rho", "initial_log_fbg")
RESULTS_COLUMNS = ("policy", "capacity_pct", "replication", "period",
                   "in_control", "enrolled", "visits", "screening_visits")
SUMMARY_COLUMNS = ("policy", "capacity_pct", "ppc_mean", "ppc_ci_halfwidth",
                   "final_fbg_p25", "final_fbg_p50", "final_fbg_p75",
                   "final_fbg_p90")
ESTIMATE_COLUMNS = ("patient_id", "nll", "p", "mu", "alpha", "theta_base",
                    "lam", "s_base", "beta", "gamma", "rho")

MANIFEST_NAME = "manifest.json"


def write_table(path: str, header: Sequence[str], rows, lines: Sequence[str] = ()) -> None:
    """Write a CSV table losslessly: the csv module writes floats (numpy
    floats too) with repr and every other value with str. lines, text
    already in that form and "\n"-terminated, follow the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(lines)


def _rows(path: str) -> Tuple[List[str], List[List[str]]]:
    """A CSV file's stripped header and every row under it, a blank one as
    [], so that rows[i] is row i + 2 of the file (see _numbered)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:  # past a byte order mark
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file (missing header row)")
        return header, list(reader)


def _numbered(rows: List[List[str]]) -> List[Tuple[int, List[str]]]:
    """_rows' nonblank rows, each with its 1-based row number in the file."""
    return [(rownum, row) for rownum, row in enumerate(rows, 2) if row]


def _read_csv(path: str, expected_header: Sequence[str]) -> List[List[str]]:
    """_rows under the expected header; a row with another number of fields
    is named."""
    header, rows = _rows(path)
    if header != list(expected_header):
        raise ValueError(f"{path}: expected header {','.join(expected_header)},"
                         f" got {','.join(header)}")
    for rownum, row in enumerate(rows, 2):
        if row and len(row) != len(header):
            raise ValueError(f"{path} row {rownum}: expected"
                             f" {len(header)} fields, got {len(row)}")
    return rows


def _read_json(path: str):
    """A JSON file's value; a decode error names the file."""
    with open(path, encoding="utf-8-sig") as fh:  # past a byte order mark
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# visit-history ingestion
# ---------------------------------------------------------------------------

def ingest_histories(path: str) -> List[VisitHistory]:
    """Parse a per-period visit log into one history per patient.

    Columns: patient_id, period, visited, enrolled, fbg_mgdl (blank when
    no reading was taken). Periods may be sparse; gaps become unobserved
    periods with no visit and enrollment carried forward. FBG is recorded
    in mg/dL and log-transformed here. Any positive finite reading is
    accepted: observation noise takes readings below 1 mg/dL (a negative
    log-FBG) although the model floors the latent log-FBG at 0.
    """
    per_patient: Dict[str, Dict[int, Tuple[int, int, Optional[float]]]] = {}
    for rownum, row in _numbered(_read_csv(path, HISTORY_COLUMNS)):
        pid, period_s, visited_s, enrolled_s, fbg_s = (f.strip() for f in row)
        if not pid:
            raise ValueError(f"{path} row {rownum}: empty patient_id")
        try:
            period = int(period_s)
        except ValueError:
            raise ValueError(f"{path} row {rownum}: bad period {period_s!r}")
        if period < 0:
            raise ValueError(f"{path} row {rownum}: negative period {period}")
        if visited_s not in ("0", "1") or enrolled_s not in ("0", "1"):
            raise ValueError(
                f"{path} row {rownum}: visited/enrolled must be 0 or 1"
            )
        fbg: Optional[float] = None
        if fbg_s:
            try:
                fbg = float(fbg_s)
            except ValueError:
                raise ValueError(f"{path} row {rownum}: bad fbg_mgdl {fbg_s!r}")
            if not (math.isfinite(fbg) and fbg > 0.0):
                raise ValueError(
                    f"{path} row {rownum}: FBG {fbg_s} mg/dL is negative or zero, or not finite")
        periods = per_patient.setdefault(pid, {})
        if period in periods:
            raise ValueError(
                f"{path} row {rownum}: duplicate period {period}"
                f" for patient {pid!r}"
            )
        periods[period] = (int(visited_s), int(enrolled_s), fbg)

    histories: List[VisitHistory] = []
    for pid, periods in per_patient.items():  # in order of first appearance
        visited, enrolled, observations = [], [], {}
        z = 0
        for t in range(max(periods) + 1):
            y, z, fbg = periods.get(t, (0, z, None))
            visited.append(y)
            enrolled.append(z)
            if fbg is not None:
                observations[t] = math.log(fbg)
        try:
            histories.append(VisitHistory(
                visited=tuple(visited), enrolled=tuple(enrolled),
                observations=observations, patient_id=pid,
            ))
        except ValueError as exc:
            raise ValueError(f"{path}: patient {pid!r}: {exc}")
    return histories


# ---------------------------------------------------------------------------
# cohort parameter tables
# ---------------------------------------------------------------------------

def write_cohort_csv(path: str, sampled: SampledCohort) -> None:
    rows = []
    for i, (pp, st, name) in enumerate(zip(sampled.cohort.params,
                                           sampled.cohort.initial_states,
                                           sampled.group_names)):
        rows.append((f"p{i:04d}", name, pp.p, pp.mu, pp.alpha, pp.theta_base,
                     pp.lam, pp.s_base, pp.beta, pp.gamma, pp.rho, st.b))
    write_table(path, COHORT_COLUMNS, rows)


def read_feature_table(path: str) -> Tuple[List[str], List[Tuple[float, ...]]]:
    """Read the 7 clustering features from any CSV that has them.

    Accepts both cohort tables and estimate tables; extra columns are
    ignored, and patient ids are taken from a patient_id column when
    present (row numbers otherwise). A row that clustering.first_unusable_row
    rejects is named here, with the file.
    """
    header, rows = _rows(path)
    numbered = _numbered(rows)
    missing = [c for c in FEATURE_NAMES if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {', '.join(missing)}")
    idx = [header.index(c) for c in FEATURE_NAMES]
    id_idx = header.index("patient_id") if "patient_id" in header else None
    ids, rows = [], []
    for rownum, row in numbered:
        try:
            rows.append(tuple(float(row[i]) for i in idx))
            ids.append(row[id_idx] if id_idx is not None else f"row{rownum}")
        except (ValueError, IndexError):
            raise ValueError(f"{path} row {rownum}: malformed feature row")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    bad = first_unusable_row(rows)
    if bad >= 0:
        raise ValueError(f"{path} row {numbered[bad][0]}: features non-finite or too large"
                         " to cluster (squared distances would overflow)")
    return ids, rows


# ---------------------------------------------------------------------------
# results and summary tables
# ---------------------------------------------------------------------------

def write_results_csv(path: str, results: Sequence[RunResult]) -> None:
    """One row per (policy, capacity, replication, period), sorted: each
    cell's periods in order, as one block of lines formatted as write_table
    formats them. A label no policy has, which might need quoting, and a
    cell given twice, whose rows would interleave, are refused."""
    cells = sorted((((r.policy_kind, capacity_pct(r.capacity_fraction), r.replication), r)
                    for r in results), key=lambda cell: cell[0])
    blocks = []
    for i, ((kind, pct, replication), r) in enumerate(cells):
        if kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {kind!r}")
        if i and cells[i - 1][0] == cells[i][0]:
            raise ValueError(f"results hold policy {kind} at {pct!r}% capacity,"
                             f" replication {replication} more than once")
        prefix = f"{kind},{float(pct)!r},{replication},"  # a numpy float's repr names its type
        blocks.append("".join(
            f"{prefix}{t},{a},{b},{c},{d}\n" for t, a, b, c, d in
            zip(range(1, len(r.in_control) + 1), r.in_control, r.enrolled, r.visits_total,
                r.screening_visits)))
    write_table(path, RESULTS_COLUMNS, (), blocks)


# A plain table's bytes, the only ones the writers write: printable ASCII,
# tab, CR and LF. np.loadtxt reads such a table as the csv module and
# int/float do; other control characters can differ (np.loadtxt reads
# "2\x1c" as 2, which int() refuses).
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"


def _read_plain_columns(path: str, columns: Sequence[str],
                        types) -> Optional[Dict[str, np.ndarray]]:
    """_read_columns for a plain table under exactly the expected header
    line, parsed by np.loadtxt's compiled reader from lines split as the
    csv module's file splits them (newline=""). None for any other file and
    for any table np.loadtxt refuses or warns on."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.translate(None, _PLAIN_BYTES):
        return None
    with io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="") as text:
        header = text.readline()
        if header.rstrip("\r\n") != ",".join(columns):
            return None
        dtype = np.dtype([(c, object if t is str else t) for c, t in zip(columns, types)])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None,
                                   quotechar='"', ndmin=1)
        except (ValueError, Warning):
            return None
    return {c: table[c].astype(t) for c, t in zip(columns, types)}


def _read_columns(path: str, columns: Sequence[str], types) -> Dict[str, np.ndarray]:
    """A table as one array per column, each field parsed by the matching
    entry of types (numpy calls it on each field); the first row with an
    unparsable field, or an int field outside int64, is named. A plain table takes _read_plain_columns'
    path, which returns the same arrays; every other table, and any it
    refuses, is read here with the csv module."""
    plain = _read_plain_columns(path, columns, types)
    if plain is not None:
        return plain
    rows = _read_csv(path, columns)
    fields = list(zip(*filter(None, rows))) or [()] * len(columns)
    try:
        return {c: np.array(f, dtype=t) for c, t, f in zip(columns, types, fields)}
    except (ValueError, OverflowError):  # an int field outside int64 overflows
        for rownum, row in _numbered(rows):
            for t, v in zip(types, row):
                try:
                    np.array(v, dtype=t)
                except ValueError as exc:
                    raise ValueError(f"{path} row {rownum}: {exc}")
                except OverflowError:
                    raise ValueError(f"{path} row {rownum}: {v!r} is outside the int64 range")
        raise


def read_results_csv(path: str) -> Dict[str, np.ndarray]:
    return _read_columns(path, RESULTS_COLUMNS, (str, float) + (int,) * 6)


def write_summary_csv(path: str, rows: Sequence[SummaryRow]) -> None:
    table = []
    for s in rows:
        p25, p50, p75, p90 = s.final_fbg_percentiles
        table.append((s.policy_kind, capacity_pct(s.capacity_fraction),
                      s.ppc_mean, s.ppc_ci_halfwidth, p25, p50, p75, p90))
    table.sort(key=lambda row: (row[0], row[1]))
    write_table(path, SUMMARY_COLUMNS, table)


def read_summary_csv(path: str) -> Dict[str, np.ndarray]:
    return _read_columns(path, SUMMARY_COLUMNS, (str,) + (float,) * 7)


def write_estimates_csv(path: str, estimates: Sequence[Tuple[str, EstimationResult]]) -> None:
    rows = []
    for pid, est in estimates:
        pp = est.params
        rows.append((pid, est.nll, pp.p, pp.mu, pp.alpha, pp.theta_base,
                     pp.lam, pp.s_base, pp.beta, pp.gamma, pp.rho))
    write_table(path, ESTIMATE_COLUMNS, rows)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

# ScenarioSpec's optional settings: population, gamma, rho, initial FBG
_SCENARIO_SETTINGS = tuple(f.name for f in fields(ScenarioSpec)
                           if f.default is not MISSING)


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {"name": spec.name,
            **{key: getattr(spec, key) for key in _SCENARIO_SETTINGS},
            "groups": [{"name": g.name, "weight": w,
                        "centroid": dict(zip(FEATURE_NAMES, g.centroid)),
                        "sd": dict(zip(FEATURE_NAMES, g.sd))} for g, w in spec.groups]}


def _number(value, where: str, key: str, kind=(int, float), noun="a number"):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where}: {key} must be {noun}, got {value!r}")
    return value


def _parse_feature_map(entry: dict, key: str, where: str) -> Tuple[float, ...]:
    mapping = entry.get(key)
    if not isinstance(mapping, dict):
        raise ValueError(f"{where}: {key} must be a mapping of the 7 parameters")
    missing = [c for c in FEATURE_NAMES if c not in mapping]
    if missing:
        raise ValueError(f"{where}: {key} missing {', '.join(missing)}")
    return tuple(float(_number(mapping[c], where, f"{key}.{c}")) for c in FEATURE_NAMES)


def scenario_from_dict(data: dict, where: str = "scenario") -> ScenarioSpec:
    """Build a ScenarioSpec from the documented JSON schema.

    Schema: {"name": str, "population": int, "gamma": float, "rho": float,
    "initial_fbg_mean_mgdl": float, "initial_fbg_sd_mgdl": float,
    "groups": [{"name": str, "weight": float,
                "centroid": {p, mu, alpha, theta_base, lam, s_base, beta},
                "sd": {... same keys ...}  (optional)}, ...]}.
    Omitted group sd falls back to the shared 10%-of-mean rule. Top-level
    keys other than name/groups are optional and take ScenarioSpec's
    defaults. Every error names where (the file) and the offending key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object")
    groups_raw = data.get("groups")
    if not isinstance(groups_raw, list) or not groups_raw:
        raise ValueError(f"{where}: groups must be a nonempty list")
    centroids = []
    for i, entry in enumerate(groups_raw):
        if not isinstance(entry, dict):
            raise ValueError(f"{where} group {i}: expected a JSON object")
        centroids.append(_parse_feature_map(entry, "centroid", f"{where} group {i}"))
    default_sd = default_sds(centroids)
    groups = []
    for i, entry in enumerate(groups_raw):
        gwhere = f"{where} group {i}"
        name = entry.get("name")
        if not name:
            raise ValueError(f"{gwhere}: missing name")
        if "weight" not in entry:
            raise ValueError(f"{gwhere}: missing weight")
        sd = (_parse_feature_map(entry, "sd", gwhere) if "sd" in entry
              else default_sd)
        groups.append((str(name), centroids[i], sd,
                       float(_number(entry["weight"], gwhere, "weight"))))
    kwargs = {key: data[key] for key in _SCENARIO_SETTINGS if key in data}
    for key, value in kwargs.items():
        _number(value, where, key, *((int, "an integer") if key == "population" else ()))
    try:
        return ScenarioSpec(str(data.get("name", "custom")),
                            tuple((GroupSpec(name, centroid, sd), weight)
                                  for name, centroid, sd, weight in groups), **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}")


def load_scenario(name_or_path: str) -> Tuple[ScenarioSpec, Optional[str]]:
    """Resolve a --scenario argument: builtin name first, then file path.

    Returns (spec, path) where path is None for builtins, so callers know
    whether there is an input file to digest into the manifest.
    """
    builtins = {s.name: s for s in builtin_scenarios()}
    if name_or_path in builtins:
        return builtins[name_or_path], None
    if not os.path.exists(name_or_path):
        raise ValueError(
            f"unknown scenario {name_or_path!r}: not a builtin"
            f" ({', '.join(sorted(builtins))}) and not a readable file"
        )
    return scenario_from_dict(_read_json(name_or_path), where=name_or_path), name_or_path


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def write_manifest(directory: str, command: str, config: dict, base_seed: int,
                   input_paths: Sequence[str], outputs: Sequence[str],
                   duration_seconds: float,
                   work: Optional[Dict[str, int]] = None) -> str:
    """Write what produced directory, in enough detail to redo it: the
    command, its config and seed, the sha256 of each input and of each
    listed output in directory, the duration, and counts of the work the
    run did, by name. Returns the manifest's path."""
    payload = {
        "tool_version": __version__,
        "command": command,
        "config": config,
        "base_seed": base_seed,
        "input_digests": {p: sha256_file(p) for p in input_paths},
        "outputs": list(outputs),
        "output_digests": {name: sha256_file(os.path.join(directory, name))
                           for name in outputs},
        "duration_seconds": round(duration_seconds, 3),
        "work": dict(work or {}),
    }
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_manifest(directory: str) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ValueError(f"{directory}: no {MANIFEST_NAME} found")
    manifest = _read_json(path)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return manifest
