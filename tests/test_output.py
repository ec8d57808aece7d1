import io

import numpy as np

from herdflu import (
    BASELINE_PARAMS,
    DEFAULT_NOISE,
    SimConfig,
    default_init,
    run_ensemble,
)
from herdflu import output
from herdflu.output import write_csv_rows, write_ensemble_csv


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
