import json

import numpy as np
import pytest

from multreg import ConfigError, load_config, parse_config, run
from multreg.cli import main
from multreg.runner import EXIT_CONFIG, EXIT_DIVERGENT, EXIT_OK, EXIT_VIOLATION

WHITE_STUDY = """\
problem:
  kind: counting
  n_max: 300
  element: inverse_sqrt
scheme: truncated:cutoff
index_function: {family: power, nu: 1.0}
noise:
  mode: white
  deltas: [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5, 1.0e-6]
  replications: 40
seed: 99
output: {directory: OUTDIR, format: csv}
"""


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text.replace("OUTDIR", str(tmp_path / "out")))
    return path


def test_load_and_digest(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY)
    cfg = load_config(path)
    assert cfg.mode == "white" and cfg.replications == 40
    assert len(cfg.digest) == 64
    assert cfg.deltas[0] == 1e-2


def test_parse_rejects_bad_fields():
    with pytest.raises(ConfigError):
        parse_config({"problem": {"kind": "nope"}})
    with pytest.raises(ConfigError):
        parse_config({"problem": {"kind": "counting"},
                      "noise": {"mode": "white", "deltas": [-1.0]}})
    with pytest.raises(ConfigError):
        parse_config({"problem": {"kind": "counting"},
                      "noise": {"mode": "white", "deltas": [1e-2],
                                "replications": 1}})
    with pytest.raises(ConfigError):
        parse_config({"problem": {"kind": "counting"},
                      "output": {"format": "xml"}})


def test_run_end_to_end(tmp_path):
    cfg = load_config(write_config(tmp_path, WHITE_STUDY))
    report = run(cfg, out_dir=tmp_path / "out")
    assert report.exit_code == EXIT_OK
    assert report.violations == 0
    assert 0.3 < report.fitted_slope < 0.5
    rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()
    assert rows[0].startswith("delta,alpha_star,empirical_error")
    assert len(rows) == 6
    meta = json.loads((tmp_path / "out" / "report.json").read_text())
    assert meta["status"] == "ok" and meta["seed"] == 99


def test_run_single_delta_has_no_slope(tmp_path):
    text = WHITE_STUDY.replace(
        "deltas: [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5, 1.0e-6]",
        "deltas: [1.0e-3]")
    cfg = load_config(write_config(tmp_path, text))
    report = run(cfg, out_dir=tmp_path / "out")
    assert report.exit_code == EXIT_OK
    assert report.fitted_slope is None
    assert len(report.rows) == 1


def test_run_plateau_white_is_structured_divergent(tmp_path):
    text = """\
problem: {kind: plateau}
scheme: lavrentiev
index_function: {family: power, nu: 1.0}
noise: {mode: white, deltas: [1.0e-2], replications: 4}
output: {directory: OUTDIR}
"""
    cfg = load_config(write_config(tmp_path, text))
    report = run(cfg, out_dir=tmp_path / "out")
    assert report.exit_code == EXIT_DIVERGENT
    assert report.status == "divergent"
    meta = json.loads((tmp_path / "out" / "report.json").read_text())
    assert meta["status"] == "divergent" and meta["failure"]


def test_run_unqualified_scheme_is_violation(tmp_path):
    text = WHITE_STUDY.replace("{family: power, nu: 1.0}",
                               "{family: power, nu: 1.5}") \
                      .replace("truncated:cutoff", "lavrentiev")
    cfg = load_config(write_config(tmp_path, text))
    report = run(cfg, out_dir=tmp_path / "out")
    assert report.exit_code == EXIT_VIOLATION
    assert report.status == "violation"


def test_cli_run_and_reproducibility(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "rows.csv").read_bytes() == \
        (tmp_path / "b" / "rows.csv").read_bytes()
    # a different seed changes the empirical errors
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "c"),
                 "--seed", "123"]) == 0
    assert (tmp_path / "a" / "rows.csv").read_bytes() != \
        (tmp_path / "c" / "rows.csv").read_bytes()


def test_cli_threads_do_not_change_output(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "t"),
                 "--threads", "4"]) == 0
    assert (tmp_path / "s" / "rows.csv").read_bytes() == \
        (tmp_path / "t" / "rows.csv").read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scheme: [unclosed\n")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG


def test_cli_check_scheme(tmp_path):
    good = write_config(tmp_path, """\
problem: {kind: counting, n_max: 50}
scheme: truncated:lavrentiev
index_function: {family: power, nu: 1.0}
""", name="good.yaml")
    assert main(["check-scheme", "--config", str(good)]) == EXIT_OK
    bad = write_config(tmp_path, """\
problem: {kind: counting, n_max: 50}
scheme: lavrentiev
index_function: {family: power, nu: 1.5}
""", name="badq.yaml")
    assert main(["check-scheme", "--config", str(bad)]) == EXIT_VIOLATION


def test_cli_rearrange_and_dalpha(tmp_path):
    cfg = write_config(tmp_path, """\
problem: {kind: exp_decay}
discretization: {n_nodes: 2048, truncation_radius: 20.0}
output: {directory: OUTDIR}
""")
    out = tmp_path / "out"
    assert main(["rearrange", "--config", str(cfg), "--out", str(out)]) == 0
    dist = (out / "distribution.csv").read_text().splitlines()
    assert dist[0] == "t,d_b"
    dec = np.loadtxt(out / "decreasing_rearrangement.csv", delimiter=",",
                     skiprows=1)
    # b_*(t) = e^-t for the exponential multiplier
    mids = 0.5 * (dec[:, 0] + dec[:, 1])
    close = mids < 5.0
    assert np.max(np.abs(dec[close, 2] - np.exp(-mids[close]))) < 0.02
    assert main(["dalpha", "--config", str(cfg), "--out", str(out)]) == 0
    dal = np.loadtxt(out / "dalpha.csv", delimiter=",", skiprows=1)
    assert np.all(dal[:, 1] <= dal[:, 2] * (1 + 1e-9))  # D <= simple bound


def test_cli_dalpha_counting_example(tmp_path):
    cfg = write_config(tmp_path, """\
problem: {kind: counting, n_max: 200}
output: {directory: OUTDIR}
""")
    out = tmp_path / "out"
    assert main(["dalpha", "--config", str(cfg), "--out", str(out)]) == 0
    from multreg import compact_case, effective_illposedness
    b, sp = compact_case(1.0 / np.arange(1, 201))
    prof = effective_illposedness(b, sp, alpha_grid=[0.34])
    assert prof.d_values[0] == pytest.approx(2.23607, abs=1e-5)
    assert prof.upper_bounds[0] == pytest.approx(4.1595, abs=1e-3)


def test_cli_reconstruct(tmp_path):
    cfg = write_config(tmp_path, """\
problem: {kind: counting, n_max: 100}
scheme: cutoff
index_function: {family: power, nu: 1.0}
noise: {mode: deterministic, deltas: [1.0e-4]}
alpha: 0.05
output: {directory: OUTDIR}
""")
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
    data = np.loadtxt(out / "reconstruction.txt", delimiter=",", skiprows=1)
    assert data.shape == (100, 2)


def test_cli_reconstruct_without_noise_level_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
problem: {kind: counting, n_max: 100}
scheme: cutoff
output: {directory: OUTDIR}
""")
    assert main(["reconstruct", "--config", str(cfg)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_noise_distribution_reaches_the_sampler(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY)
    rademacher = write_config(
        tmp_path, WHITE_STUDY.replace("replications: 40",
                                      "replications: 40\n  distribution: rademacher"),
        name="rademacher.yaml")
    bogus = write_config(
        tmp_path, WHITE_STUDY.replace("replications: 40",
                                      "replications: 40\n  distribution: bogus"),
        name="bogus.yaml")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "g")]) == 0
    assert main(["run", "--config", str(rademacher),
                 "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "g" / "rows.csv").read_bytes() != \
        (tmp_path / "r" / "rows.csv").read_bytes()
    assert main(["run", "--config", str(bogus),
                 "--out", str(tmp_path / "b")]) == EXIT_CONFIG
    assert not (tmp_path / "b").exists()


def test_tabulated_problem_from_file(tmp_path):
    nodes = np.linspace(0.05, 29.95, 300)
    lines = ["# node value"]
    lines += [f"{s} {np.exp(-s)}" for s in nodes]
    table = tmp_path / "b.txt"
    table.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, f"""\
problem:
  kind: tabulated
  file: {table}
  space: halfline
  tail_vanishes: true
output: {{directory: OUTDIR}}
""")
    out = tmp_path / "out"
    assert main(["rearrange", "--config", str(cfg), "--out", str(out)]) == 0
    dec = np.loadtxt(out / "decreasing_rearrangement.csv", delimiter=",",
                     skiprows=1)
    mids = 0.5 * (dec[:, 0] + dec[:, 1])
    close = mids < 5.0
    assert np.max(np.abs(dec[close, 2] - np.exp(-mids[close]))) < 0.15


def test_cli_json_format(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY.replace("format: csv",
                                                      "format: json"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "rows.json").read_text())
    assert len(rows) == 5 and "alpha_star" in rows[0]
