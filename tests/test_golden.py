"""Golden bytes: sha256 digests of short CLI outputs.

Every output file of herdflu is a deterministic function of its config
and seed, and a change that keeps the numbers must keep these digests.
A change that alters output bytes on purpose updates the digests here in
the same commit and says why in CHANGES.md.

The digests were recorded with Python 3.11, numpy 2.4 and scipy 1.17
(`ndtri` supplies the normal deviates). Another build of those libraries
may round differently; compare against that build's own parent commit.
"""

import hashlib
import os

from herdflu import process
from herdflu.cli import run_cli

SHORT = "t_end = 5\n"
# All five intensities at 3 drive compartments below zero, so the
# positivity clamp fires in the recorded rows.
CLAMPED = "t_end = 20\nn_paths = 30\nseed = 12\n" + "".join(
    f"{k} = 3\n" for k in ("sig_s", "sig_e", "sig_is", "sig_ia", "sig_b")
)
# 5001 recorded times. `simulate --svg` writes the SVG in one forked
# child beside the CSV on two usable CPUs, and both in one process on
# one; the simulate tests run both.
ENDEMIC = "beta_a = 0.46665\nt_end = 50\n"
# 5001 recorded times: the ensemble CSV's ring of summary rows wraps
# many times.
LONG = "t_end = 50\nn_paths = 20\n"
SWEEP = "t_end = 20\n"

GOLDEN = {
    "ensemble_summary":
        "48dad188c1be4c5c71c4d117da72114c28b96f165c54955081339271b2a58596",
    "ensemble_long_summary":
        "2836ac5d1b8a0edad728e59f1082a29c5c913761da0fc7af526448dc662560cd",
    "ensemble_clamped_summary":
        "4c7187e114384cfd412acf97a591b43dbd0e19a90c45eb805e8d7f3571aef3e0",
    "ensemble_clamped_paths":
        "379ce4c066897e4fce67c41a7d7939259e308018e27d8d4cfe33ed60edac57a0",
    "simulate_sde_csv":
        "6527553f9c52ef691dcefd2f57cbcf4c3f80bd161460659762d47d042ae03dd7",
    "simulate_sde_svg":
        "c217ce4ce24deb8ad61ad313071d22c6f6ab7b2610a6beb237103aa179fad1cd",
    "simulate_ode_csv":
        "874118dd786dbecebbdaf0617ad36ea6752de5d5f4a2697ad80313d6f665fd61",
    "simulate_ode_svg":
        "3dd9e912bbe199f55f2ee2e75f429fd2e4b96dd0d2bc53fe24edd3db4a1e6141",
    "sensitivity_peak_csv":
        "ee85d50c51a312f06deeb72a8967084ff605c4b362c714871e15ef274406b32a",
    "sensitivity_peak_svg":
        "1c6193080635d1d9b87926ab1fac45d0a35dc6ce32aa5929a384cbd8021ff016",
}


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_sha(directory) -> str:
    # File names and contents, in name order.
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_ensemble_summary(tmp_path):
    out = tmp_path / "summary.csv"
    argv = ["ensemble", "--config", _config(tmp_path, SHORT), "--out", str(out)]
    assert run_cli(argv) == 0
    assert _sha(out) == GOLDEN["ensemble_summary"]


def test_ensemble_long_summary(tmp_path):
    out = tmp_path / "summary.csv"
    argv = ["ensemble", "--config", _config(tmp_path, LONG), "--out", str(out)]
    assert run_cli(argv) == 0
    assert _sha(out) == GOLDEN["ensemble_long_summary"]


def test_ensemble_paths_out_under_clamping(tmp_path):
    out, paths = tmp_path / "summary.csv", tmp_path / "paths"
    argv = ["ensemble", "--config", _config(tmp_path, CLAMPED), "--out", str(out),
            "--paths-out", str(paths)]
    assert run_cli(argv) == 0
    # S starts at 2999, so a recorded S of exactly 0 is a clamped value.
    clamped = sum(
        line.split(",")[1] == "0.0"
        for name in os.listdir(paths)
        for line in (paths / name).read_text().splitlines()[1:]
    )
    assert clamped > 0
    assert _sha(out) == GOLDEN["ensemble_clamped_summary"]
    assert _tree_sha(paths) == GOLDEN["ensemble_clamped_paths"]


def _simulated(tmp_path, monkeypatch, forks, argv) -> tuple[str, str]:
    """The CSV and SVG digests of `argv --out P --svg P`, which must be
    the same on one usable CPU (no fork) and on two (one fork)."""
    digests = set()
    for cpus in (1, 2):
        monkeypatch.setattr(process, "usable_cpus", lambda cpus=cpus: cpus)
        del forks[:]
        csv, svg = tmp_path / f"traj{cpus}.csv", tmp_path / f"traj{cpus}.svg"
        assert run_cli(argv + ["--out", str(csv), "--svg", str(svg)]) == 0
        assert len(forks) == cpus - 1, cpus
        digests.add((_sha(csv), _sha(svg)))
    assert len(digests) == 1, digests
    return digests.pop()


def test_simulate_sde(tmp_path, monkeypatch, forks):
    argv = ["simulate", "--mode", "sde", "--config", _config(tmp_path, ENDEMIC),
            "--seed", "5"]
    assert _simulated(tmp_path, monkeypatch, forks, argv) == (
        GOLDEN["simulate_sde_csv"], GOLDEN["simulate_sde_svg"])


def test_simulate_ode(tmp_path, monkeypatch, forks):
    argv = ["simulate", "--mode", "ode", "--config", _config(tmp_path, ENDEMIC)]
    assert _simulated(tmp_path, monkeypatch, forks, argv) == (
        GOLDEN["simulate_ode_csv"], GOLDEN["simulate_ode_svg"])


def test_sensitivity_peak(tmp_path):
    out, svg = tmp_path / "prcc.csv", tmp_path / "prcc.svg"
    argv = ["sensitivity", "--config", _config(tmp_path, SWEEP), "--metric", "peak",
            "--samples", "60", "--seed", "7", "--out", str(out), "--svg", str(svg)]
    assert run_cli(argv) == 0
    assert _sha(out) == GOLDEN["sensitivity_peak_csv"]
    assert _sha(svg) == GOLDEN["sensitivity_peak_svg"]
