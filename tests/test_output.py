import io
import re

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    DEFAULT_NOISE,
    SimConfig,
    default_init,
    run_ensemble,
)
from herdflu import output
from herdflu.output import (
    read_ensemble_csv,
    read_sensitivity_csv,
    read_trajectory_csv,
    write_csv_rows,
    write_ensemble_csv,
)


def test_csv_bytes_do_not_depend_on_chunk_size(tmp_path, monkeypatch):
    # 23 recorded times: the default chunk holds them all, chunks of 7
    # leave a partial last one.
    cfg = SimConfig(t_end=0.22, dt=0.01)
    summ = run_ensemble(
        BASELINE_PARAMS, DEFAULT_NOISE, default_init(BASELINE_PARAMS), cfg, 5, 2
    )
    data = np.column_stack([summ.times, summ.mean])
    assert len(data) == 23
    seen = []
    for chunk in (output._CHUNK_ROWS, 7, 1):
        monkeypatch.setattr(output, "_CHUNK_ROWS", chunk)
        fh = io.StringIO()
        write_csv_rows(fh, data)
        write_ensemble_csv(summ, str(tmp_path / "ens.csv"))
        seen.append((fh.getvalue(), (tmp_path / "ens.csv").read_bytes()))
    assert seen[0][0].count("\n") == 23
    assert seen[1] == seen[0]
    assert seen[2] == seen[0]


# The rows E to B of one recorded time, which follow the S row under test.
ROWS_E_TO_B = "".join(
    f"0.0,{c},1.0,0.0,1.0,1.0,1.0\n" for c in ("E", "I_s", "I_a", "R", "B")
)


@pytest.mark.parametrize("row, message", [
    ("0.0,S,1.0\n", "line 3: expected 7 fields, got 3"),
    ("0.0,S,1.0,0.0,1.0,1.0,1.0,9.0\n", "line 3: expected 7 fields, got 8"),
    ("0.0,S,1.0,x,1.0,1.0,1.0\n", "line 3: could not convert string to float: 'x'"),
    ("0.0,E,1.0,0.0,1.0,1.0,1.0\n", "line 3: expected compartment S, got 'E'"),
])
def test_ensemble_reader_names_the_malformed_line(tmp_path, row, message):
    # Line 2 is blank and still counts.
    path = tmp_path / "ens.csv"
    path.write_text(output.ENSEMBLE_HEADER + "\n\n" + row + ROWS_E_TO_B)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_ensemble_csv(str(path))


@pytest.mark.parametrize("body, message", [
    ("", "trajectory must contain at least one point"),
    ("0.0,1,2,3,4,5\n", "line 2: expected 7 fields, got 6"),
    ("0.0,1,2,3,4,5,6\n0.1,1,2,3,4,5,y\n", "line 3: could not convert string to float: 'y'"),
])
def test_trajectory_reader_rejects_malformed_files(tmp_path, body, message):
    path = tmp_path / "traj.csv"
    path.write_text(output.TRAJECTORY_HEADER + "\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_trajectory_csv(str(path))


@pytest.mark.parametrize("body, message", [
    ("beta_s,0.5,0.01\n", "line 2: expected 4 fields, got 3"),
    ("beta_s,0.5,0.01,2\n", "line 2: significant must be 0 or 1, got '2'"),
])
def test_sensitivity_reader_rejects_malformed_rows(tmp_path, body, message):
    path = tmp_path / "prcc.csv"
    path.write_text(output.SENSITIVITY_HEADER + "\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_sensitivity_csv(str(path))


def test_readers_reject_another_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text(output.ENSEMBLE_HEADER + "\n")
    with pytest.raises(ValueError, match="^unexpected header 't,compartment,"):
        read_trajectory_csv(str(path))
