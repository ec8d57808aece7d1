"""CSV and SVG emission.

Floats are written with `repr`, the shortest string that round-trips to
the identical double, so re-parsing a file recovers the computed values
bit for bit and identical runs produce identical bytes. The CSV writers
apply `repr` to `.tolist()` values (Python floats, so the text equals
`fmt_float` of each value; `fmt_row` joins one row) and stream them in
chunks instead of holding the whole file as lines.

`write_csv_rows` (and so `write_trajectory_csv`) and
`write_trajectory_svg` write in this process, `_CHUNK_ROWS` rows (or
points of a polyline) at a time, so a file is never held whole. The
`simulate` command writes its SVG in one forked child while this
process writes the CSV (see `cli._cmd_simulate`).

`write_ensemble_csv` streams: one forked child (a `process.Ring`)
formats each block of summary rows while the ensemble engine computes
the next, and the file is written only after the last block, so a
failed run leaves none.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable

import numpy as np

from .ensemble import SUMMARY_COLUMNS, SUMMARY_STATS, EnsembleSummary
from .integrate import Trajectory
from .model import COMPARTMENTS
from . import process
from .sensitivity import SensitivityReport

TRAJECTORY_HEADER = "t,S,E,I_s,I_a,R,B"
ENSEMBLE_HEADER = "t,compartment,mean,std,q025,q50,q975"
SENSITIVITY_HEADER = "parameter,prcc,p_value,significant"

# CSV rows, or points of one SVG polyline, formatted per fh.write call.
_CHUNK_ROWS = 1024

# The ensemble CSV's ring (see `write_ensemble_csv`): slots of summary
# rows, one engine block each, 127 KB in all. On the 2-vCPU VM 2 slots
# were slightly slower than 8, and 32 no faster.
_RING_SLOTS = 8
_SLOT_ROWS = 64


def fmt_float(x: float) -> str:
    return repr(float(x))


def fmt_row(row: list[float]) -> str:
    """Comma-joined reprs of one `.tolist()` row (Python floats)."""
    return ",".join(map(repr, row))


def _append_file(fh, src) -> None:
    """Append the whole of file `src` to fh's descriptor in the kernel,
    without reading it into Python objects."""
    fh.flush()
    out, fd = fh.fileno(), src.fileno()
    offset, size = 0, os.fstat(fd).st_size
    while offset < size:
        sent = os.sendfile(out, fd, offset, size - offset)
        if not sent:
            raise OSError(f"short copy of a formatter's text: {offset} of {size} bytes")
        offset += sent


def _same_file(a: str, b: str) -> bool:
    # The file itself when both exist (hard links too), else the path
    # with every symlink resolved.
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_writable(
    out: str, svg: str | None = None, path_files: Iterable[str] = ()
) -> None:
    """Raise open's own OSError for an output path that is a directory
    or lacks its directory, and ValueError when `svg` (None or "" for
    none) or one of `path_files` (the `--paths-out` files) names the
    file `out` names. Either creates and truncates nothing."""
    for path in filter(None, (out, svg)):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            open(path, "w").close()
    if svg and _same_file(out, svg):
        raise ValueError("--out and --svg name the same file")
    if any(_same_file(out, name) for name in path_files):
        raise ValueError("--out names a --paths-out file")


def write_csv_rows(fh, times: np.ndarray, states: np.ndarray) -> None:
    """Write row i, `times[i]` then the floats of `states[i]`, as one
    CSV line to the text file `fh`. The columns are joined one chunk
    of rows at a time, never over the whole array."""
    for a in range(0, len(times), _CHUNK_ROWS):
        b = a + _CHUNK_ROWS
        rows = np.column_stack([times[a:b], states[a:b]]).tolist()
        fh.write("".join([fmt_row(row) + "\n" for row in rows]))


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        write_csv_rows(fh, traj.times, traj.states)


def _csv_rows(path: str, header: str, n_fields: int) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row after `header`; ValueError
    for another header or a row of another field count."""
    with open(path, "r", encoding="utf-8") as fh:
        got = fh.readline().strip()
        if got != header:
            raise ValueError(f"unexpected header {got!r}, expected {header!r}")
        rows = [(n, line.split(",")) for n, line in enumerate(map(str.strip, fh), 2) if line]
    for n, fields in rows:
        if len(fields) != n_fields:
            raise ValueError(f"line {n}: expected {n_fields} fields, got {len(fields)}")
    return rows


def _float_array(rows: list[tuple[int, list[str]]], width: int) -> np.ndarray:
    """The fields of `rows` as a (len(rows), width) float array."""

    def values():
        for n, fields in rows:
            try:
                yield from map(float, fields)
            except ValueError as exc:
                raise ValueError(f"line {n}: {exc}") from None

    return np.fromiter(values(), float).reshape(-1, width)


def read_trajectory_csv(path: str) -> Trajectory:
    """Inverse of write_trajectory_csv (noise identity is not stored)."""
    data = _float_array(_csv_rows(path, TRAJECTORY_HEADER, 7), 7)
    return Trajectory(times=data[:, 0], states=data[:, 1:])


def _ensemble_lines(rows: np.ndarray) -> str:
    """The CSV lines of summary rows (see `EnsembleSummary.rows`), six
    per row, compartments in model order."""
    line = "{},{},{},{},{},{},{}\n".format
    # The five statistics of each (time, compartment) are consecutive
    # in a row, so they are consumed five at a time.
    vals = map(repr, rows[:, 1:].ravel().tolist())
    return "".join([
        line(t, comp, *five)
        for t in map(repr, rows[:, 0].tolist())
        for comp, five in zip(COMPARTMENTS, zip(vals, vals, vals, vals, vals))
    ])


def write_ensemble_csv(summary: EnsembleSummary | Iterable[EnsembleSummary],
                       path: str) -> None:
    """One row per (time, compartment), compartments in model order.

    `summary` is one `EnsembleSummary` or consecutive parts of one in
    grid order, as `ensemble.iter_summary_blocks` yields them; the
    engine behind that generator then runs while the parts already
    reduced are formatted.
    The rows pass through a `process.Ring` of _RING_SLOTS slots of
    _SLOT_ROWS rows: its child appends their lines to an unnamed
    temporary file, and this process waits only when the child is a
    whole ring behind, so it holds a few blocks of rows, never the grid.
    `path` is opened only after the last block: a run that fails writes
    nothing there, and a path that `_check_writable` rejects fails first.
    """
    _check_writable(path)
    parts = [summary] if isinstance(summary, EnsembleSummary) else summary
    slots = process.shared_array((_RING_SLOTS, _SLOT_ROWS, SUMMARY_COLUMNS))
    with tempfile.TemporaryFile() as tmp:

        def format_slot(j: int, n: int) -> None:
            tmp.write(_ensemble_lines(slots[j % _RING_SLOTS, :n]).encode())
            # A child leaves through os._exit, which flushes nothing.
            tmp.flush()

        with process.Ring(format_slot, _RING_SLOTS,
                          "CSV formatter process of the ensemble summary") as ring:
            for part in parts:
                for a in range(0, len(part.rows), _SLOT_ROWS):
                    rows = part.rows[a:a + _SLOT_ROWS]
                    slots[ring.slot(), :len(rows)] = rows
                    ring.put(len(rows))
            ring.finish()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(ENSEMBLE_HEADER + "\n")
            _append_file(fh, tmp)


def read_ensemble_csv(path: str) -> dict[str, np.ndarray]:
    """Arrays keyed by 'times', 'mean', 'std', 'q025', 'q50', 'q975'."""
    rows = _csv_rows(path, ENSEMBLE_HEADER, 7)
    n_rec, rem = divmod(len(rows), len(COMPARTMENTS))
    if rem:
        raise ValueError("row count is not a multiple of the compartment count")
    for r, (n, fields) in enumerate(rows):
        comp, want = fields.pop(1), COMPARTMENTS[r % len(COMPARTMENTS)]
        if comp != want:
            raise ValueError(f"line {n}: expected compartment {want}, got {comp!r}")
    # (column, time, compartment), the columns t, mean, std, q025, q50, q975.
    data = _float_array(rows, 6).T.reshape(6, n_rec, len(COMPARTMENTS)).copy()
    stats = dict(zip(SUMMARY_STATS, data[1:]))
    return {"times": data[0, :, 0].copy(), **stats}


def write_sensitivity_csv(report: SensitivityReport, path: str) -> None:
    lines = [SENSITIVITY_HEADER]
    for ps in report.params:
        lines.append(
            f"{ps.name},{fmt_float(ps.prcc)},{fmt_float(ps.p_value)},{int(ps.significant)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sensitivity_csv(path: str) -> list[tuple[str, float, float, bool]]:
    rows = _csv_rows(path, SENSITIVITY_HEADER, 4)
    for n, (_, _, _, sig) in rows:
        if sig not in ("0", "1"):
            raise ValueError(f"line {n}: significant must be 0 or 1, got {sig!r}")
    vals = _float_array([(n, f[1:3]) for n, f in rows], 2).tolist()
    return [(f[0], r, p, f[3] == "1") for (_, f), (r, p) in zip(rows, vals)]


# ---------------------------------------------------------------------------
# Minimal SVG plotting: self-contained, no text beyond axis labels.

_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377")


def _svg_head(width: int, height: int) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    style = (
        "<style>text{font-family:sans-serif;font-size:11px;fill:#333}"
        "line.axis{stroke:#333;stroke-width:1}</style>"
    )
    return f"{head}\n{style}\n"


def _svg_doc(width: int, height: int, body: list[str]) -> str:
    return _svg_head(width, height) + "\n".join(body + ["</svg>"]) + "\n"


def write_trajectory_svg(traj: Trajectory, path: str) -> None:
    """Polyline time-series plot of every compartment.

    Each polyline is written _CHUNK_ROWS points at a time, so the
    document is never held in memory whole. The coordinates of a chunk
    are computed on arrays with the expressions, in the order, of one
    point at a time, so they are the same doubles.
    """
    w, h, ml, mr, mt, mb = 820, 420, 55, 120, 15, 35
    pw, ph = w - ml - mr, h - mt - mb
    t, states = traj.times, traj.states
    n = len(t)
    t0, t1 = float(t[0]), float(t[-1]) or 1.0
    ymax = max(float(states.max()), 1e-12)
    axes = [
        f'<line class="axis" x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}"/>',
        f'<line class="axis" x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}"/>',
        f'<text x="{ml + pw / 2:.0f}" y="{h - 8}">time (days)</text>',
        f'<text x="4" y="{mt + 10}">{ymax:.4g}</text>',
        f'<text x="4" y="{mt + ph}">0</text>',
        f'<text x="{ml}" y="{h - 8}">{t0:.4g}</text>',
        f'<text x="{ml + pw - 20}" y="{h - 8}">{t1:.4g}</text>',
    ]
    span = (t1 - t0) or 1.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_svg_head(w, h))
        fh.write("\n".join(axes) + "\n")
        for j, (name, color) in enumerate(zip(COMPARTMENTS, _PALETTE)):
            fh.write(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="')
            for i in range(0, n, _CHUNK_ROWS):
                e = min(n, i + _CHUNK_ROWS)
                xy = np.empty((e - i, 2))
                xy[:, 0] = ml + pw * (t[i:e] - t0) / span
                xy[:, 1] = mt + ph * (1.0 - states[i:e, j] / ymax)
                text = " %.2f,%.2f" * (e - i) % tuple(xy.ravel().tolist())
                # The first point has no separating space.
                fh.write(text[1:] if i == 0 else text)
            fh.write(f'"/>\n<text x="{ml + pw + 8}" y="{mt + 14 + 16 * j}" '
                     f'fill="{color}">{name}</text>\n')
        fh.write("</svg>\n")


def write_prcc_svg(report: SensitivityReport, path: str) -> None:
    """Bar chart of PRCC values on [-1, 1]; significant bars get a dot."""
    k = len(report.params)
    bar, gap = 34, 14
    w = 70 + k * (bar + gap) + 20
    h, mt, mb, ml = 360, 20, 60, 55
    ph = h - mt - mb
    mid = mt + ph / 2
    body = [
        f'<line class="axis" x1="{ml}" y1="{mid:.1f}" x2="{w - 15}" y2="{mid:.1f}"/>',
        f'<line class="axis" x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}"/>',
        f'<text x="8" y="{mt + 8}">+1</text>',
        f'<text x="8" y="{mid + 4:.1f}">0</text>',
        f'<text x="8" y="{mt + ph}">-1</text>',
    ]
    for i, ps in enumerate(report.params):
        x = ml + 10 + i * (bar + gap)
        v = 0.0 if ps.prcc != ps.prcc else ps.prcc  # NaN draws as zero height
        top = mid - max(v, 0.0) * (ph / 2)
        hgt = abs(v) * (ph / 2)
        body.append(
            f'<rect x="{x}" y="{top:.1f}" width="{bar}" height="{hgt:.1f}" '
            f'fill="#4477aa"/>'
        )
        if ps.significant:
            cy = top - 6 if v >= 0 else top + hgt + 6
            body.append(
                f'<circle cx="{x + bar / 2}" cy="{cy:.1f}" r="3.5" fill="#cc3311"/>'
            )
        body.append(
            f'<text x="{x + bar / 2}" y="{h - 40}" text-anchor="middle" '
            f'transform="rotate(45 {x + bar / 2} {h - 40})">{ps.name}</text>'
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_svg_doc(w, h, body))
