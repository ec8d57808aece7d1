"""CSV and SVG emission.

Floats are written with `repr`, the shortest string that round-trips to
the identical double, so re-parsing a file recovers the computed values
bit for bit and identical runs produce identical bytes. The CSV writers
apply `repr` to `.tolist()` values (Python floats, so the text equals
`fmt_float` of each value; `fmt_row` joins one row) and stream them in
chunks instead of holding the whole file as lines.

`write_csv_rows` (and so `write_trajectory_csv`) and
`write_trajectory_svg`, whose six polylines are 6 * n rows of one point
each, go through `_write_rows`: a file of at least the writer's
`_SPLIT_*_ROWS` rows is cut into contiguous row ranges, up to one per
usable CPU, formatted at once by forked children and appended in row
order, so the bytes are those of one process writing every row.

`write_ensemble_csv` streams: one forked child (a `process.Ring`)
formats each block of summary rows while the ensemble engine computes
the next, and the file is written only after the last block, so a
failed run leaves none.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import ExitStack
from typing import Callable, Iterable

import numpy as np

from .ensemble import SUMMARY_COLUMNS, SUMMARY_STATS, EnsembleSummary, SummaryBlock
from .integrate import Trajectory
from .model import COMPARTMENTS
from . import process
from .sensitivity import SensitivityReport

TRAJECTORY_HEADER = "t,S,E,I_s,I_a,R,B"
ENSEMBLE_HEADER = "t,compartment,mean,std,q025,q50,q975"
SENSITIVITY_HEADER = "parameter,prcc,p_value,significant"

# Rows formatted and written per fh.write call by `_write_rows`.
_CHUNK_ROWS = 1024

# Rows from which each writer formats on more than one process, its
# measured break-even (see `_split_count`).
_SPLIT_TRAJECTORY_ROWS = 10_000
_SPLIT_SVG_ROWS = 6 * 10_000  # six polylines of 10,000 points

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


def _split_count(fh, n: int, split_rows: int) -> int:
    """How many processes format the n rows that go to `fh`: one under
    `split_rows`, else min(`process.usable_cpus()`, 2 * n // split_rows),
    so every range has at least split_rows / 2 rows. A file whose `fh`
    has no file descriptor to append a child's text to is written here
    alone.

    A formatter child costs its writer 7-9 ms: the fork and reap (2-3
    ms with herdflu loaded), copy-on-write faults and the copy of its
    text, measured with both processes pinned to one CPU (2-vCPU Xeon
    VM). It saves half the formatting only when the host runs it on the
    second vCPU, which the host did not always do. Splitting in two won
    about 9 in 10 of 52-98 alternating pairs per size from 10,000
    trajectory CSV rows (7 floats a row; 77% at 5,001) and 10,000 SVG
    points (68% at 5,001), the two `_SPLIT_*_ROWS`.
    """
    if n < split_rows:
        return 1
    try:
        fh.fileno()
    except (AttributeError, OSError):
        return 1
    return min(process.usable_cpus(), 2 * n // split_rows)


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


def _write_rows(fh, n: int, fmt: Callable[[int, int], str], kind: str,
                split_rows: int) -> None:
    """Write rows [0, n) to the text file `fh`, `fmt(a, b)` being the
    text of rows [a, b), on `_split_count(fh, n, split_rows)` processes.

    The rows are cut into k contiguous ranges. For ranges 1 to k - 1
    this process starts a `process.Child` that formats its range
    _CHUNK_ROWS rows at a time into its own unnamed temporary file, made
    before the fork, so nothing is left on disk if the child is killed.
    Meanwhile this process formats range 0 into `fh`, then joins each
    child in order and appends its file (`_append_file`), so its own
    peak memory is that of formatting one chunk. Children write UTF-8
    with LF line ends, as the writers open `fh`.

    A child that fails or is killed raises ChildProcessError, which
    names the file `kind` ("CSV", "SVG") and the child's rows. On any
    way out of this function every child still running is killed.
    """

    def format_range(write, a: int, b: int) -> None:
        for c in range(a, b, _CHUNK_ROWS):
            write(fmt(c, min(c + _CHUNK_ROWS, b)))

    k = _split_count(fh, n, split_rows)
    bounds = [n * i // k for i in range(k + 1)]
    with ExitStack() as stack:
        children = []
        for a, b in zip(bounds[1:-1], bounds[2:]):
            tmp = stack.enter_context(tempfile.TemporaryFile())

            def body(tmp=tmp, a=a, b=b) -> None:
                with open(tmp.fileno(), "w", encoding="utf-8", newline="\n",
                          closefd=False) as out:
                    format_range(out.write, a, b)

            child = process.Child(body, f"{kind} formatter process of rows {a} to {b - 1}")
            stack.callback(child.kill)
            children.append((child, tmp))
        format_range(fh.write, 0, bounds[1])
        for child, tmp in children:
            child.join()
            _append_file(fh, tmp)


def write_csv_rows(fh, data: np.ndarray) -> None:
    """Write each row of the 2-D float array `data` as one CSV line to
    the text file `fh`, opened as the writers here open theirs (UTF-8,
    LF line ends) when it has a file descriptor."""

    def fmt(a: int, b: int) -> str:
        return "".join([fmt_row(row) + "\n" for row in data[a:b].tolist()])

    _write_rows(fh, len(data), fmt, "CSV", _SPLIT_TRAJECTORY_ROWS)


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        write_csv_rows(fh, np.column_stack([traj.times, traj.states]))


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
    """The CSV lines of summary rows (see `ensemble.SummaryBlock`), six
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


def write_ensemble_csv(summary: EnsembleSummary | Iterable[SummaryBlock],
                       path: str) -> None:
    """One row per (time, compartment), compartments in model order.

    `summary` is an `EnsembleSummary` or its blocks in grid order, as
    `ensemble.iter_summary_blocks` yields them; the engine behind that
    generator then runs while the blocks already reduced are formatted.
    The rows pass through a `process.Ring` of _RING_SLOTS slots of
    _SLOT_ROWS rows: its child appends their lines to an unnamed
    temporary file, and this process waits only when the child is a
    whole ring behind, so it holds a few blocks of rows, never the grid.
    `path` is opened only after the last block: a run that fails writes
    nothing there.
    """
    blocks = summary.blocks() if isinstance(summary, EnsembleSummary) else summary
    slots = process.shared_array((_RING_SLOTS, _SLOT_ROWS, SUMMARY_COLUMNS))
    with tempfile.TemporaryFile() as tmp:

        def format_slot(j: int, n: int) -> None:
            tmp.write(_ensemble_lines(slots[j % _RING_SLOTS, :n]).encode())
            # A child leaves through os._exit, which flushes nothing.
            tmp.flush()

        with process.Ring(format_slot, _RING_SLOTS,
                          "CSV formatter process of the ensemble summary") as ring:
            for block in blocks:
                for a in range(0, len(block.rows), _SLOT_ROWS):
                    part = block.rows[a:a + _SLOT_ROWS]
                    slots[ring.slot(), :len(part)] = part
                    ring.put(len(part))
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

    The six polylines are 6 * n "rows", row j * n + i being point i of
    compartment j, written through `_write_rows` like the CSV rows: on
    every usable CPU, a chunk of points at a time, so the document is
    never held in memory whole. The coordinates of a chunk are computed
    on arrays with the expressions, in the order, of one point at a
    time, so they are the same doubles.
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

    def fmt(a: int, b: int) -> str:
        parts = []
        while a < b:
            # Points [i, e) of compartment j; its first point has no
            # separating space.
            j, i = divmod(a, n)
            e = min(n, i + b - a)
            if i == 0:
                parts.append(
                    f'<polyline fill="none" stroke="{_PALETTE[j]}" '
                    f'stroke-width="1.5" points="')
            xy = np.empty((e - i, 2))
            xy[:, 0] = ml + pw * (t[i:e] - t0) / span
            xy[:, 1] = mt + ph * (1.0 - states[i:e, j] / ymax)
            text = " %.2f,%.2f" * (e - i) % tuple(xy.ravel().tolist())
            parts.append(text[1:] if i == 0 else text)
            if e == n:
                parts.append(
                    f'"/>\n<text x="{ml + pw + 8}" y="{mt + 14 + 16 * j}" '
                    f'fill="{_PALETTE[j]}">{COMPARTMENTS[j]}</text>\n')
            a += e - i
        return "".join(parts)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_svg_head(w, h))
        fh.write("\n".join(axes) + "\n")
        _write_rows(fh, len(COMPARTMENTS) * n, fmt, "SVG", _SPLIT_SVG_ROWS)
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
