"""CSV and SVG emission.

Floats are written with `repr`, the shortest string that round-trips to
the identical double, so re-parsing a file recovers the computed values
bit for bit and identical runs produce identical bytes. The CSV writers
apply `repr` to `.tolist()` values (Python floats, so the text equals
`fmt_float` of each value; `fmt_row` joins one row) and stream them in
chunks of _CHUNK_ROWS instead of holding the whole file as lines; the
trajectory SVG streams its polylines the same way.
"""

from __future__ import annotations

import numpy as np

from .ensemble import EnsembleSummary
from .integrate import Trajectory
from .model import COMPARTMENTS
from .sensitivity import SensitivityReport

TRAJECTORY_HEADER = "t,S,E,I_s,I_a,R,B"
ENSEMBLE_HEADER = "t,compartment,mean,std,q025,q50,q975"
SENSITIVITY_HEADER = "parameter,prcc,p_value,significant"

# Rows formatted and written per fh.write call. 1024 ensemble rows
# (6144 lines) format to a few MB of strings; at 4096 they set the peak
# RSS of the default `ensemble` run.
_CHUNK_ROWS = 1024


def fmt_float(x: float) -> str:
    return repr(float(x))


def fmt_row(row: list[float]) -> str:
    """Comma-joined reprs of one `.tolist()` row (Python floats)."""
    return ",".join(map(repr, row))


def write_csv_rows(fh, data: np.ndarray) -> None:
    """Write each row of the 2-D float array `data` as one CSV line."""
    for a in range(0, len(data), _CHUNK_ROWS):
        rows = data[a:a + _CHUNK_ROWS].tolist()
        fh.write("".join([fmt_row(row) + "\n" for row in rows]))


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        write_csv_rows(fh, np.column_stack([traj.times, traj.states]))


def read_trajectory_csv(path: str) -> Trajectory:
    """Inverse of write_trajectory_csv (noise identity is not stored)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"unexpected trajectory header: {header!r}")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    data = np.array(rows)
    return Trajectory(times=data[:, 0], states=data[:, 1:])


def write_ensemble_csv(summary: EnsembleSummary, path: str) -> None:
    """One row per (time, compartment), compartments in model order."""
    stats = (summary.mean, summary.std, summary.q025, summary.q50, summary.q975)
    line = "{},{},{},{},{},{},{}\n".format
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ENSEMBLE_HEADER + "\n")
        for a in range(0, len(summary.times), _CHUNK_ROWS):
            b = a + _CHUNK_ROWS
            # (rows, 6, 5): the five statistics of each (time, compartment),
            # formatted in one pass and consumed five at a time.
            chunk = np.stack([x[a:b] for x in stats], axis=-1)
            vals = map(repr, chunk.ravel().tolist())
            fh.write("".join([
                line(t, comp, *five)
                for t in map(repr, summary.times[a:b].tolist())
                for comp, five in zip(COMPARTMENTS, zip(vals, vals, vals, vals, vals))
            ]))


def read_ensemble_csv(path: str) -> dict[str, np.ndarray]:
    """Arrays keyed by 'times', 'mean', 'std', 'q025', 'q50', 'q975'."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ENSEMBLE_HEADER:
            raise ValueError(f"unexpected ensemble header: {header!r}")
        raw = [line.strip().split(",") for line in fh if line.strip()]
    n_rec, rem = divmod(len(raw), len(COMPARTMENTS))
    if rem:
        raise ValueError("row count is not a multiple of the compartment count")
    out = {name: np.empty((n_rec, 6)) for name in ("mean", "std", "q025", "q50", "q975")}
    times = np.empty(n_rec)
    for r, fields in enumerate(raw):
        i, j = divmod(r, len(COMPARTMENTS))
        if fields[1] != COMPARTMENTS[j]:
            raise ValueError(
                f"row {r + 2}: expected compartment {COMPARTMENTS[j]}, "
                f"got {fields[1]!r}"
            )
        times[i] = float(fields[0])
        for name, tok in zip(("mean", "std", "q025", "q50", "q975"), fields[2:]):
            out[name][i, j] = float(tok)
    out["times"] = times
    return out


def write_sensitivity_csv(report: SensitivityReport, path: str) -> None:
    lines = [SENSITIVITY_HEADER]
    for ps in report.params:
        lines.append(
            f"{ps.name},{fmt_float(ps.prcc)},{fmt_float(ps.p_value)},{int(ps.significant)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sensitivity_csv(path: str) -> list[tuple[str, float, float, bool]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != SENSITIVITY_HEADER:
            raise ValueError(f"unexpected sensitivity header: {header!r}")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            name, r, p, sig = line.strip().split(",")
            rows.append((name, float(r), float(p), bool(int(sig))))
    return rows


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

    The polylines are streamed to the file in chunks of points, so the
    document is never held in memory whole.
    """
    w, h, ml, mr, mt, mb = 820, 420, 55, 120, 15, 35
    pw, ph = w - ml - mr, h - mt - mb
    t = traj.times
    t0, t1 = float(t[0]), float(t[-1]) or 1.0
    ymax = max(float(traj.states.max()), 1e-12)
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
    # " x," of every point, formatted once and shared by every series;
    # the first point has no separating space.
    xs = [f" {ml + pw * (ti - t0) / span:.2f}," for ti in t.tolist()]
    xs[0] = xs[0][1:]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_svg_head(w, h))
        fh.write("\n".join(axes) + "\n")
        for j, c in enumerate(COMPARTMENTS):
            color = _PALETTE[j]
            fh.write(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
            )
            for a in range(0, len(xs), _CHUNK_ROWS):
                b = a + _CHUNK_ROWS
                fh.write("".join([
                    f"{x}{mt + ph * (1.0 - yi / ymax):.2f}"
                    for x, yi in zip(xs[a:b], traj.states[a:b, j].tolist())
                ]))
            fh.write(
                f'"/>\n<text x="{ml + pw + 8}" y="{mt + 14 + 16 * j}" '
                f'fill="{color}">{c}</text>\n'
            )
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
