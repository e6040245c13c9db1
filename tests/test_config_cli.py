import contextlib
import dataclasses
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import multreg.config
import multreg.runner
from multreg import (ConfigError, ExperimentConfig, PreconditionFailed, Scheme,
                     build_problem, load_config, parse_config, rate_study, run,
                     scheme_by_name)
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
    # each malformed field is rejected under its own name
    for extra, field in MALFORMED:
        with pytest.raises(ConfigError, match=field):
            parse_config({"problem": {"kind": "counting"}, **extra})
    # problem keys are checked against the kind's own keys
    for problem in ({"kind": "power_decay", "kapa": 0.25},
                    {"kind": "fvp_whole_space", "dimension": 3},
                    {"kind": "counting", "kappa": 1.0},
                    {"kind": "plateau", "n_max": 10}):
        with pytest.raises(ConfigError, match="problem: unknown key"):
            parse_config({"problem": problem})


MALFORMED = [
    ({"noise": 5}, "noise"),
    ({"discretization": 3}, "discretization"),
    ({"seed": "abc"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"alpha": "xyz"}, "alpha"),
    ({"alpha": 0.0}, "alpha"),
    ({"noise": {"replications": "abc"}}, "noise.replications"),
    ({"noise": {"mode": "white", "deltas": [1e-2], "replications": 100_000}},
     "noise.replications"),
    ({"noise": {"deltas": "1e-3"}}, "noise.deltas"),
    ({"scheme": "bogus"}, "scheme"),
    ({"discretisation": {"n_nodes": 64}}, "top level: unknown key.*discretisation"),
    ({"noise": {"replicatons": 40}}, "noise: unknown key.*replicatons"),
    ({"discretization": {"nodes": 64}}, "discretization: unknown key.*nodes"),
    ({"output": {"dir": "out"}}, "output: unknown key.*dir"),
    ({"output": {"directory": 5}}, "output.directory"),
    # index function keys are checked against the family's own keys
    ({"index_function": {"family": "power", "mu": 3.0}},
     "index_function: unknown key.*mu"),
    ({"index_function": {"family": "table", "ts": [1.0e-8, 1.0],
                         "values": [1.0e-4, 1.0], "nu": 2.0}},
     "index_function: unknown key.*nu"),
    ({"index_function": {"family": ["power"]}}, "index_function.family"),
    # integer fields take no bool and no fractional part
    ({"seed": 1.9}, "seed"),
    ({"seed": True}, "seed"),
    ({"noise": {"replications": 2.9}}, "noise.replications"),
    ({"discretization": {"n_nodes": 1000.7}}, "discretization.n_nodes"),
    # float fields take no bool, and flags only a YAML boolean
    ({"alpha": True}, "alpha"),
    ({"discretization": {"truncation_radius": True}},
     "discretization.truncation_radius"),
    ({"noise": {"deltas": [1.0e-2, True]}}, "noise.deltas"),
    ({"index_function": {"family": "power", "nu": True}}, "index_function.nu"),
    ({"index_function": {"family": "log_power", "nu": 1.0, "beta": False}},
     "index_function.beta"),
    ({"index_function": {"family": "log_power", "nu": 1.0, "beta": 1.0,
                         "t_max": True}}, "index_function.t_max"),
    ({"discretization": {"graded": "false"}}, "discretization.graded"),
    ({"discretization": {"graded": 1}}, "discretization.graded"),
    # nor do the entries of list fields
    ({"index_function": {"family": "table", "ts": [1.0e-8, True],
                         "values": [1.0e-4, 1.0]}}, "index_function.ts"),
    ({"index_function": {"family": "table", "ts": [1.0e-8, 1.0],
                         "values": [1.0e-4, True]}}, "index_function.values"),
    ({"index_function": {"family": "table", "ts": 1.0,
                         "values": [1.0e-4, 1.0]}}, "index_function.ts"),
]


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


def test_cli_run_reports_an_overflowing_profile(tmp_path, capsys):
    # near the 1.2e-154 floor each 1/b^2 is finite, but their sum is not
    (tmp_path / "b.txt").write_text("".join(
        f"{j} {v}\n" for j, v in enumerate(
            [1, 0.5, 0.25, 1.25e-154, 1.24e-154, 1.23e-154, 1.22e-154], 1)))
    path = write_config(tmp_path, f"""\
problem: {{kind: tabulated, space: counting, file: {tmp_path / 'b.txt'}}}
scheme: cutoff
noise: {{mode: white, deltas: [1.0e-2], replications: 4}}
output: {{directory: OUTDIR}}
""")
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == EXIT_VIOLATION
    out, err = capsys.readouterr()
    assert "1/b^2 overflows" in out and "Traceback" not in err
    meta = json.loads((tmp_path / "out" / "report.json").read_text())
    assert meta["status"] == "violation" and "1/b^2 overflows" in meta["failure"]


def test_run_unqualified_scheme_is_violation(tmp_path):
    text = WHITE_STUDY.replace("{family: power, nu: 1.0}",
                               "{family: power, nu: 1.5}") \
                      .replace("truncated:cutoff", "lavrentiev")
    cfg = load_config(write_config(tmp_path, text))
    report = run(cfg, out_dir=tmp_path / "out")
    assert report.exit_code == EXIT_VIOLATION
    assert report.status == "violation"


@pytest.mark.parametrize("scheme, nu", [("fake", 1.0), ("lavrentiev", 1.5)])
def test_rate_study_and_run_share_the_certification_gate(tmp_path, monkeypatch,
                                                         scheme, nu):
    # "fake" fails axiom (I), Lavrentiev has no qualification for t^1.5
    fake = Scheme("fake", c_minus1=1.0, c_0=2.0, truncated=False,
                  _filter=lambda a, t: np.full_like(t, 1.0 / a))
    chosen = fake if scheme == "fake" else scheme_by_name(scheme)
    monkeypatch.setattr(multreg.runner, "scheme_by_name", lambda name: chosen)
    cfg = dataclasses.replace(load_config(write_config(tmp_path, f"""\
problem: {{kind: counting, n_max: 50}}
index_function: {{family: power, nu: {nu}}}
noise: {{mode: deterministic, deltas: [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5]}}
output: {{directory: OUTDIR}}
""")), scheme=scheme)
    report = run(cfg, out_dir=tmp_path / "out")
    assert report.exit_code == EXIT_VIOLATION
    problem = build_problem(cfg)
    with pytest.raises(PreconditionFailed) as err:
        rate_study(problem, chosen, problem.phi, cfg.deltas, 1,
                   mode="deterministic")
    assert str(err.value) == report.failure
    assert str(err.value).startswith(f"scheme {scheme} failed ")


def test_one_row_tables_read_as_one_row(tmp_path):
    (tmp_path / "b.txt").write_text("1 0.5\n")
    (tmp_path / "f.txt").write_text("# node value\n1 0.25\n")
    cfg = load_config(write_config(tmp_path, f"""\
problem: {{kind: tabulated, space: counting, file: {tmp_path / 'b.txt'},
          solution_file: {tmp_path / 'f.txt'}}}
output: {{directory: OUTDIR}}
"""))
    problem = build_problem(cfg)
    assert np.array_equal(problem.b.values_on(problem.space), [0.5])
    assert np.array_equal(problem.f_true, [0.25])
    # one node gives a Lebesgue cell no width
    halfline = dataclasses.replace(cfg, problem={**cfg.problem, "space": "halfline"})
    with pytest.raises(ConfigError, match="needs two nodes"):
        build_problem(halfline)


@pytest.mark.parametrize("key", ["file", "solution_file"])
def test_empty_table_is_one_config_error(tmp_path, capsys, recwarn, key):
    (tmp_path / "b.txt").write_text("1 0.5\n2 0.25\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("# node value\n")
    files = {"file": tmp_path / "b.txt", "solution_file": tmp_path / "b.txt",
             key: empty}
    path = write_config(tmp_path, f"""\
problem: {{kind: tabulated, space: counting, file: {files['file']},
          solution_file: {files['solution_file']}}}
output: {{directory: OUTDIR}}
""")
    capsys.readouterr()
    assert main(["check-scheme", "--config", str(path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.count("config error:") == 1 and str(empty) in err
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize("table", ["1 0.5\n2 0.25 7\n", "1 0.5\n2 abc\n"],
                         ids=["ragged", "non_numeric"])
def test_malformed_table_is_a_config_error_naming_the_file(tmp_path, capsys,
                                                          table):
    bad = tmp_path / "b.txt"
    bad.write_text(table)
    path = write_config(tmp_path, f"""\
problem: {{kind: tabulated, space: counting, file: {bad}}}
output: {{directory: OUTDIR}}
""")
    capsys.readouterr()
    assert main(["check-scheme", "--config", str(path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert f"{bad}: expected rows of two columns" in err
    assert "usecols" not in err and "convert" not in err


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


def test_rerun_writes_new_files_and_leaves_hard_links_alone(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY)
    out, links = tmp_path / "out", tmp_path / "links"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    links.mkdir()
    old = {}
    for name in ("rows.csv", "report.json"):
        (links / name).hardlink_to(out / name)
        old[name] = (out / name).read_bytes()
    # the same study with another seed, into the same directory and a new one
    for target in (out, tmp_path / "fresh"):
        assert main(["run", "--config", str(path), "--out", str(target),
                     "--seed", "123"]) == 0
    for name in ("rows.csv", "report.json"):
        new = (tmp_path / "fresh" / name).read_bytes()
        assert new != old[name]
        assert (links / name).read_bytes() == old[name]
        assert (out / name).read_bytes() == new


def test_rewrite_in_place_where_the_file_cannot_be_removed(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    multreg.runner.write_table(path, ["x"], [[1.0]])

    def refuse(self, missing_ok=False):
        raise PermissionError(str(self))

    monkeypatch.setattr(Path, "unlink", refuse)
    multreg.runner.write_table(path, ["x"], [[2.0]])
    assert path.read_text() == "x\n" + multreg.runner.fmt(2.0) + "\n"


def test_cli_threads_do_not_change_output(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "t"),
                 "--threads", "4"]) == 0
    assert (tmp_path / "s" / "rows.csv").read_bytes() == \
        (tmp_path / "t" / "rows.csv").read_bytes()


def test_cli_threads_do_not_change_the_failure_report(tmp_path):
    # every delta of this half-line study diverges; the report names the
    # first failing delta in config order, whatever the thread count
    path = write_config(tmp_path, """\
problem: {kind: power_decay, kappa: 1.0}
scheme: lavrentiev
index_function: {family: power, nu: 0.5}
noise: {mode: white, deltas: [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5], replications: 4}
discretization: {n_nodes: 1024, truncation_radius: 30.0}
output: {directory: OUTDIR}
""")
    for threads in ("1", "2"):
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / threads), "--threads", threads]) \
            == EXIT_DIVERGENT
    assert (tmp_path / "1" / "report.json").read_bytes() == \
        (tmp_path / "2" / "report.json").read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scheme: [unclosed\n")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG
    counting = {"kind": "counting", "n_max": 3}
    bogus_phi = {"family": "bogus"}
    table = tmp_path / "b.txt"
    table.write_text("1 1.0\n2 0.5\n3 0.25\n")
    cases = [({"problem": counting, **extra}, field) for extra, field in MALFORMED]
    cases += [
        ({"problem": counting, "index_function": bogus_phi}, "index_function"),
        ({"problem": {**counting, "solution_values": [1.0, 0.5, 0.2]},
          "index_function": bogus_phi}, "index_function"),
        # phi* = 1/d_b needs an infinite-measure space
        ({"problem": {"kind": "pure_power"},
          "index_function": {"family": "reciprocal_measure"},
          "discretization": {"n_nodes": 64}}, "index_function"),
        ({"problem": {"kind": "power_decay", "kapa": 0.25}},
         "problem: unknown key.*kapa"),
        # integer problem fields, read when the problem is built
        ({"problem": {"kind": "counting", "n_max": 2.7}}, "problem.n_max"),
        ({"problem": {"kind": "fvp_bounded", "n_max": 8,
                      "exponent_power": 1.5}}, "problem.exponent_power"),
        # float and flag problem fields, read when the problem is built
        ({"problem": {"kind": "power_decay", "kappa": True}}, "problem.kappa"),
        ({"problem": {"kind": "pure_power", "kappa": True}}, "problem.kappa"),
        ({"problem": {"kind": "fvp_whole_space", "c": True}}, "problem.c"),
        ({"problem": {"kind": "fvp_bounded", "n_max": 8, "tau": True}},
         "problem.tau"),
        ({"problem": {"kind": "deconvolution", "half_width": True}},
         "problem.half_width"),
        ({"problem": {"kind": "deconvolution", "sigma": True}}, "problem.sigma"),
        ({"problem": {"kind": "tabulated", "space": "counting", "file": str(table),
                      "tail_vanishes": "false"}}, "problem.tail_vanishes"),
        # list problem fields take no bool in any entry
        ({"problem": {**counting, "b_values": [True, 0.5, 0.25]}},
         "problem.b_values"),
        ({"problem": {**counting, "solution_values": [1.0, True, 0.2]}},
         "problem.solution_values"),
        ({"problem": {"kind": "fvp_bounded", "n_max": 3,
                      "eigenvalues": [True, 2.0, 3.0]}}, "problem.eigenvalues"),
        ({"problem": {**counting, "b_values": 0.5}}, "problem.b_values"),
    ]
    capsys.readouterr()
    for k, (cfg, field) in enumerate(cases):
        path = tmp_path / f"malformed{k}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG, cfg
        err = capsys.readouterr().err
        assert re.search(f"config error: {field}", err), err
        assert "Traceback" not in err
    # a --seed override goes through the same check as the file's seed
    valid = write_config(tmp_path, WHITE_STUDY)
    assert main(["run", "--config", str(valid), "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.search("config error: seed", err), err
    assert "Traceback" not in err


SECTION_NAMES = ["problem", "scheme", "index_function", "noise",
                 "discretization", "output", "alpha", "seed"]
FIELD_NAMES = ["kind", "mode", "deltas", "replications", "distribution",
               "n_nodes", "truncation_radius", "graded", "directory", "format",
               "family", "nu"]
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(FIELD_NAMES) | st.text(max_size=4), inner, max_size=4),
    max_leaves=8)
# arbitrary mappings, and ones whose problem section is valid so that the
# later sections are reached
RAW_CONFIGS = st.dictionaries(
    st.sampled_from(SECTION_NAMES) | st.text(max_size=4), CONFIG_VALUES,
    max_size=6) | st.fixed_dictionaries(
    {"problem": st.just({"kind": "counting"})},
    optional={name: CONFIG_VALUES for name in SECTION_NAMES[1:]})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(RAW_CONFIGS)
def test_parse_config_returns_a_config_or_raises_config_error(raw):
    try:
        assert isinstance(parse_config(raw), ExperimentConfig)
    except ConfigError:
        pass


POSITIVE = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0])
# every problem kind that needs no file, with small sections of its own keys
PROBLEMS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("counting"),
                           "n_max": st.integers(1, 256)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["power_decay",
                                                    "pure_power"]),
                           "kappa": POSITIVE}),
    st.fixed_dictionaries({"kind": st.sampled_from(["plateau", "exp_decay"])}),
    st.fixed_dictionaries({"kind": st.just("fvp_whole_space"), "c": POSITIVE,
                           "tau": POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("fvp_bounded"),
                           "n_max": st.integers(1, 64), "c": POSITIVE,
                           "tau": POSITIVE,
                           "exponent_power": st.sampled_from([1, 2])}),
    st.fixed_dictionaries({"kind": st.just("deconvolution"),
                           "kernel": st.sampled_from(["exponential", "gaussian"]),
                           "half_width": st.sampled_from([10.0, 40.0]),
                           "sigma": POSITIVE}),
)
INDEX_FUNCTIONS = st.one_of(
    st.fixed_dictionaries({"family": st.just("power"), "nu": POSITIVE}),
    st.fixed_dictionaries({"family": st.just("log_power"), "nu": POSITIVE,
                           "beta": POSITIVE,
                           "t_max": st.sampled_from([1.0e-7, 0.1, 0.5])}),
    st.just({"family": "table", "ts": [1.0e-8, 1.0e-4, 1.0],
             "values": [1.0e-4, 1.0e-2, 1.0]}),
    st.just({"family": "reciprocal_measure"}),
)
SMALL_CONFIGS = st.fixed_dictionaries({
    "problem": PROBLEMS,
    "scheme": st.sampled_from([prefix + name for prefix in ("", "truncated:")
                               for name in ("cutoff", "lavrentiev", "tikhonov")]),
    "index_function": INDEX_FUNCTIONS,
    "noise": st.fixed_dictionaries({
        "mode": st.sampled_from(["deterministic", "white"]),
        "deltas": st.lists(st.sampled_from([1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5]),
                           max_size=3, unique=True),
        "replications": st.integers(2, 4)}),
    "discretization": st.fixed_dictionaries({
        "n_nodes": st.sampled_from([8, 63, 64, 256]),
        "graded": st.booleans()}),
}, optional={"alpha": st.sampled_from([1.0e-3, 0.1])})
COMMANDS = ["run", "check-scheme", "rearrange", "dalpha", "reconstruct"]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(SMALL_CONFIGS, st.sampled_from(COMMANDS))
def test_cli_exits_with_a_contract_code(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.yaml"
        path.write_text(yaml.safe_dump(config))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path),
                         "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VIOLATION, EXIT_DIVERGENT)


def test_phi_domain_below_the_probes_is_a_violation(tmp_path, capsys):
    path = write_config(tmp_path, """\
problem: {kind: counting, n_max: 50}
index_function: {family: log_power, nu: 1, beta: 1, t_max: 1.0e-7}
noise: {mode: deterministic, deltas: [1.0e-3]}
output: {directory: OUTDIR}
""")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_VIOLATION
    meta = json.loads((out / "report.json").read_text())
    assert meta["status"] == "violation" and "no admissible" in meta["failure"]
    assert main(["check-scheme", "--config", str(path)]) == EXIT_VIOLATION
    assert "no admissible" in capsys.readouterr().err


SHIPPED = Path(__file__).resolve().parents[1] / "configs"
# small white studies beside the shipped configs: Rademacher noise with the
# cut-off nonzero on a prefix of a half-line grid, and a Lavrentiev filter
# nonzero on every node
STUDIES = {
    "white_halfline_rademacher": """\
problem: {kind: power_decay, kappa: 0.5}
scheme: truncated:cutoff
index_function: {family: power, nu: 1.0}
noise:
  mode: white
  distribution: rademacher
  deltas: [1.0e-2, 3.1623e-3, 1.0e-3, 3.1623e-4, 1.0e-4]
  replications: 40
discretization: {n_nodes: 4096, truncation_radius: 50.0}
seed: 20261018
""",
    "white_lavrentiev": """\
problem: {kind: pure_power, kappa: 0.5}
scheme: lavrentiev
index_function: {family: power, nu: 0.5}
noise:
  mode: white
  deltas: [1.0e-2, 3.1623e-3, 1.0e-3, 3.1623e-4, 1.0e-4]
  replications: 30
discretization: {n_nodes: 2048}
seed: 20261018
""",
    # no closed-form d_b, and b(-s) = b(s) ties every value but b(0)
    "deconvolution_exponential": """\
problem: {kind: deconvolution, kernel: exponential, half_width: 40.0}
discretization: {n_nodes: 4096}
""",
}
# SHA-256 of what `run` writes for the shipped configs and the studies
# above, of what `reconstruct` writes for backward_heat.yaml and of the
# `rearrange` and `dalpha` tables of the deconvolution: a change of these
# output bytes must be deliberate
GOLDEN = {
    ("white_counting", "run", "rows.csv"):
        "cdce57648fe2bbbeb0b432d5ae585aa15643ef57efe55dc8c4530dd5e48a158c",
    ("white_counting", "run", "report.json"):
        "0bed4c97d2a05af0f6c3a620de590bf7d092d69372283835b93ac36c5f1b75a5",
    ("deterministic_counting", "run", "rows.csv"):
        "5f0f3c28300c57c75d069589642dce0741a36140001116268979acb202d23644",
    ("deterministic_counting", "run", "report.json"):
        "cc290d7219378340494a59344186c54b1d09d67b48ba4032d872f7f31b963af0",
    ("backward_heat", "run", "rows.csv"):
        "5cb5f394aed022c2af7e7242215733590c56bbfb627a0eb13f384accf9495edd",
    ("backward_heat", "run", "report.json"):
        "9525b32460622656ef4781a59c4c269bd0cb86ffe825b180016578f105397d50",
    ("backward_heat", "reconstruct", "reconstruction.txt"):
        "64b08255c7fd59828789dc8a7888b6a2577fa8a5cbcf7f7c923f9be427fb0162",
    ("white_halfline_rademacher", "run", "rows.csv"):
        "95d83a1c23c7c05aa93d6bc3c72d0ded132b2e238f7c8ca200bdad7ccf27e5b5",
    ("white_halfline_rademacher", "run", "report.json"):
        "0447da24bfdb2dc87eadf34b678b6d1bd94a6a896d1c7943f7bcb313c248e019",
    ("white_lavrentiev", "run", "rows.csv"):
        "29706b57bf3ca24bd5048e02339965edfa400ccca7c8683ffbf2a2fc02e412c7",
    ("white_lavrentiev", "run", "report.json"):
        "9e077ecd4648ad882a45f1098de020f00bba16d02f02b3d0dcfb3a27bbd16a32",
    ("deconvolution_exponential", "rearrange", "distribution.csv"):
        "cc1806e968505b20cbf2b4ef211e4499fb24b19d46ab2c0ca6310ee9a278b269",
    ("deconvolution_exponential", "rearrange", "decreasing_rearrangement.csv"):
        "56baf5231e859b5c403bfd7831487b3db865afd02bf1f37a8e0f564bc4f273c7",
    ("deconvolution_exponential", "dalpha", "dalpha.csv"):
        "c301c03e333d5fe583e5baaf3df3e1d9c49cfe4efa4a8eb578ff26d117d5aec2",
}


def test_shipped_config_outputs_match_golden_digests(tmp_path):
    digests = {}
    for name, command, file in GOLDEN:
        out = tmp_path / name / command
        config = SHIPPED / f"{name}.yaml"
        if name in STUDIES:
            config = write_config(tmp_path, STUDIES[name], name=f"{name}.yaml")
        if not out.exists():
            assert main([command, "--config", str(config),
                         "--out", str(out)]) == EXIT_OK
        digests[name, command, file] = hashlib.sha256(
            (out / file).read_bytes()).hexdigest()
    assert digests == GOLDEN


def test_run_computes_phi_star_once(tmp_path, monkeypatch):
    calls = []
    phi_star = multreg.config.phi_star

    def counting_phi_star(*args, **kwargs):
        calls.append(args)
        return phi_star(*args, **kwargs)

    monkeypatch.setattr(multreg.config, "phi_star", counting_phi_star)
    cfg = load_config(write_config(tmp_path, """\
problem: {kind: power_decay, kappa: 1.0}
scheme: truncated:lavrentiev
index_function: {family: reciprocal_measure}
noise: {mode: deterministic, deltas: [1.0e-2, 1.0e-3]}
discretization: {n_nodes: 2048}
output: {directory: OUTDIR}
"""))
    assert run(cfg, out_dir=tmp_path / "out").exit_code == EXIT_OK
    assert len(calls) == 1


def test_reconstruct_chooses_alpha_like_run(tmp_path, capsys):
    text = """\
problem: {kind: fvp_bounded}
scheme: cutoff
noise: {mode: deterministic, deltas: [DELTA]}
output: {directory: OUTDIR}
"""
    # sup b = exp(-1) < 0.2: alpha * phi(alpha) = 0.2 has no root below sup b
    high = write_config(tmp_path, text.replace("DELTA", "0.2"), name="high.yaml")
    for command in ("run", "reconstruct"):
        assert main([command, "--config", str(high),
                     "--out", str(tmp_path / command)]) == EXIT_VIOLATION
    low = write_config(tmp_path, text.replace("DELTA", "1.0e-3"), name="low.yaml")
    assert main(["run", "--config", str(low), "--out", str(tmp_path / "r")]) == 0
    assert main(["reconstruct", "--config", str(low),
                 "--out", str(tmp_path / "c")]) == 0
    alpha = json.loads((tmp_path / "r" / "report.json").read_text())[
        "rows"][0]["alpha_star"]
    assert f"alpha={alpha:.6g} " in capsys.readouterr().out


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
