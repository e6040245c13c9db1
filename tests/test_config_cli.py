import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import NormalDist

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


def test_parse_accepts_any_replication_count():
    # replication r draws one stream for every delta, so no count makes the
    # streams of two deltas overlap
    cfg = parse_config({"problem": {"kind": "counting"},
                        "noise": {"mode": "white", "deltas": [1e-2],
                                  "replications": 100_000}})
    assert cfg.replications == 100_000


MALFORMED = [
    ({"noise": 5}, "noise"),
    ({"discretization": 3}, "discretization"),
    ({"seed": "abc"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"alpha": "xyz"}, "alpha"),
    ({"alpha": 0.0}, "alpha"),
    ({"noise": {"replications": "abc"}}, "noise.replications"),
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


def test_cli_where_only_the_running_sum_of_inverse_squares_overflows(
        tmp_path, capsys):
    # near the 1.2e-154 floor each 1/b^2 is finite, but their sum is not;
    # D, about 1.4e154 at the smallest value, is finite
    (tmp_path / "b.txt").write_text("".join(
        f"{j} {v}\n" for j, v in enumerate(
            [1, 0.5, 0.25, 1.25e-154, 1.24e-154, 1.23e-154, 1.22e-154], 1)))
    path = write_config(tmp_path, f"""\
problem: {{kind: tabulated, space: counting, file: {tmp_path / 'b.txt'}}}
scheme: cutoff
noise: {{mode: white, deltas: [1.0e-2], replications: 4}}
output: {{directory: OUTDIR}}
""")
    for command in ("run", "dalpha"):
        assert main([command, "--config", str(path)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    meta = json.loads((tmp_path / "out" / "report.json").read_text())
    assert meta["status"] == "ok"
    table = (tmp_path / "out" / "dalpha.csv").read_text().splitlines()
    alpha, d, _ = map(float, table[1].split(","))
    assert alpha == 1.22e-154 and d == pytest.approx(1.3969e154, rel=1e-4)


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


def test_counting_b_values_are_never_truncated(tmp_path, capsys):
    # the table sets the node count: all 600 entries become nodes, and an
    # n_max beside it, shorter or longer than the table, is refused
    table = (1.0 / np.arange(1, 601)).tolist()
    problem = build_problem(parse_config(
        {"problem": {"kind": "counting", "b_values": table}}))
    assert problem.space.nodes.size == 600
    assert problem.b.values_on(problem.space).tolist() == table
    capsys.readouterr()
    for n_max in (2, 10):
        path = tmp_path / f"n_max{n_max}.yaml"
        path.write_text(yaml.safe_dump({"problem": {
            "kind": "counting", "n_max": n_max, "b_values": [1.0, 0.5, 0.25]}}))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search("config error: problem.b_values.*problem.n_max", err), err
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
            out = ([] if command == "check-scheme"
                   else ["--out", str(Path(tmp) / "out")])
            code = main([command, "--config", str(path), *out])
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
# cut-off nonzero on a prefix of a half-line grid (xi^2 = 1 and no cross
# term, so its rows do not depend on the draws) and with a truncated
# Lavrentiev filter there, and a Lavrentiev filter nonzero on every node
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
STUDIES["white_halfline_rademacher_lavrentiev"] = \
    STUDIES["white_halfline_rademacher"].replace("truncated:cutoff",
                                                 "truncated:lavrentiev")
# white studies whose last delta's alpha* lies below b's largest value
# beyond R, so that delta runs the full 2R/4R divergence check
STUDIES["white_halfline_full_check"] = """\
problem: {kind: power_decay, kappa: 0.5}
scheme: truncated:cutoff
index_function: {family: power, nu: 0.5}
noise:
  mode: white
  deltas: [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5, 2.0e-6]
  replications: 40
discretization: {n_nodes: 4096, truncation_radius: 50.0}
seed: 20261018
"""
STUDIES["white_halfline_full_check_lavrentiev"] = \
    STUDIES["white_halfline_full_check"].replace("truncated:cutoff",
                                                 "truncated:lavrentiev")
# SHA-256 of what `run` writes for the shipped configs and the studies
# above, of what `reconstruct` writes for backward_heat.yaml and of the
# `rearrange` and `dalpha` tables of the deconvolution: a change of these
# output bytes must be deliberate
GOLDEN = {
    ("white_counting", "run", "rows.csv"):
        "c89ea7a8877ae1a4bfb9813146e56178c5a5205bed99ea84f151226073a32837",
    ("white_counting", "run", "report.json"):
        "3bfb33c74f0ea000173dfaf9842e42be8c6b8a4fa81a6423a782c28f2a82b7dd",
    ("deterministic_counting", "run", "rows.csv"):
        "d9716da955133e4bc3f14b754d91e9d43f3d2557d3329f2000442b47a6273e45",
    ("deterministic_counting", "run", "report.json"):
        "d23c6c09e1c8d2daeb15ce41c797509cddc7c273461d00754c4506d2b2261828",
    ("backward_heat", "run", "rows.csv"):
        "5cb5f394aed022c2af7e7242215733590c56bbfb627a0eb13f384accf9495edd",
    ("backward_heat", "run", "report.json"):
        "9525b32460622656ef4781a59c4c269bd0cb86ffe825b180016578f105397d50",
    ("backward_heat", "reconstruct", "reconstruction.txt"):
        "64b08255c7fd59828789dc8a7888b6a2577fa8a5cbcf7f7c923f9be427fb0162",
    ("white_halfline_rademacher", "run", "rows.csv"):
        "e1cacc0b27cf0e940199922fbfb1754bf25cf21e0c14f83123424c51480c757e",
    ("white_halfline_rademacher", "run", "report.json"):
        "34fe04467589df2d4a3de5e935600060614dea8ec471674a8f3b52b76c152adc",
    ("white_halfline_rademacher_lavrentiev", "run", "rows.csv"):
        "2a758da5775c7b03c3e0085021c93cf70ad8e9b28b15bd80638520843434d313",
    ("white_halfline_rademacher_lavrentiev", "run", "report.json"):
        "e3b7f297198c9e7b6ee88f11bf9a944ada98421fc5c9949d4c0c1af56d714097",
    ("white_halfline_full_check", "run", "rows.csv"):
        "b2f665cd1d60586b97f508b978fe0cb8f90d1f37f2ead761622babf112973753",
    ("white_halfline_full_check", "run", "report.json"):
        "ccd53406428aa143e7878cfea73f19509e7924c082a02578a6dcebf420d6323f",
    ("white_halfline_full_check_lavrentiev", "run", "rows.csv"):
        "88683f3974eff443edc2572a4e411bce03aed67a0680bdc39ce5d132025a04ab",
    ("white_halfline_full_check_lavrentiev", "run", "report.json"):
        "16780dfeef2d6f9c50b8140146b4d1a17a94589bcd4891d9c9b34002e79cd356",
    ("white_lavrentiev", "run", "rows.csv"):
        "f96375cad37ca8baa8ad9c072792d3aed79f4f9adca4571150c4124d4e902eeb",
    ("white_lavrentiev", "run", "report.json"):
        "6f879956c5c87aed0ccf9d18e0d7c57955395da540f950a0c3cd72b4f6c6bc6e",
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


def test_white_golden_rows_agree_with_the_exact_expected_error(tmp_path):
    # the estimator is linear in centred unit-variance noise, so a row's
    # expected squared error is exactly bias^2 + delta^2 sum(w phi^2) on the
    # sampled grid; the Monte Carlo mean of the squared errors, rms^2, may
    # stray from it by a z-score within a two-sided Bonferroni bound for
    # 1e-4 false alarms over all rows.  A row with no spread (Rademacher
    # noise and no cross term) must meet it to rounding.
    rows = []
    for name in sorted({name for name, _, _ in GOLDEN
                        if name.startswith("white_")}):
        path = SHIPPED / f"{name}.yaml"
        if name in STUDIES:
            path = write_config(tmp_path, STUDIES[name], name=f"{name}.yaml")
        config = load_config(path)
        problem, scheme = build_problem(config), scheme_by_name(config.scheme)
        vals = problem.b.values_on(problem.space)
        for row in run(config, out_dir=tmp_path / name).rows:
            phi_v = scheme.phi(row.alpha_star, vals)
            noise = np.sum(problem.space.weights * phi_v ** 2)
            rows.append((name, row, row.bias ** 2 + row.delta ** 2 * noise))
    z_max = -NormalDist().inv_cdf(1e-4 / len(rows) / 2)
    for name, row, oracle in rows:
        if row.stderr == 0.0:
            assert row.error ** 2 == pytest.approx(oracle, rel=1e-12)
        else:
            z = (row.error ** 2 - oracle) / (2.0 * row.error * row.stderr)
            assert abs(z) < z_max, (name, row.delta, z)


#: the first data row of each white study: replication r draws stream
#: 100000 + r of the study's seed once, for all its deltas.  The Rademacher
#: cut-off row does not depend on the draws.
FIRST_ROWS = {
    "white_counting": "0.01,0.125,0.12356558421925376,0.0029247502247320384,"
                      "0.036090442396366204,0.013965933571080065,"
                      "0.35355339059327379,0",
    "white_lavrentiev": "0.01,0.00095881290221149287,0.029584687907607897,"
                        "0.00071019482716042721,0.001345349593197858,"
                        "0.00087286157766260379,0.087581409087156989,0",
    "white_halfline_rademacher": "0.01,0.091923171195326878,"
                                 "0.092962331295543099,0,0.01386093926460028,"
                                 "0.0084498694026053749,0.25999799080155023,0",
}


def test_white_studies_keep_their_first_row(tmp_path):
    for name, first in FIRST_ROWS.items():
        config = SHIPPED / f"{name}.yaml"
        if name in STUDIES:
            config = write_config(tmp_path, STUDIES[name], name=f"{name}.yaml")
        out = tmp_path / name
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert (out / "rows.csv").read_text().splitlines()[1] == first


def test_rademacher_lavrentiev_study_rows_follow_the_seed(tmp_path):
    config = write_config(tmp_path, STUDIES["white_halfline_rademacher_lavrentiev"])
    rows = {}
    for seed in ("20261018", "5"):
        out = tmp_path / seed
        assert main(["run", "--config", str(config), "--seed", seed,
                     "--out", str(out)]) == EXIT_OK
        rows[seed] = (out / "rows.csv").read_text().splitlines()[1:]
    assert len(rows["5"]) == 5
    assert all(a != b for a, b in zip(rows["20261018"], rows["5"]))


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


def test_reciprocal_measure_of_a_gaussian_deconvolution_runs(tmp_path):
    # phi* = 1/d_b has a subnormal smallest level on 1000 nodes; its table
    # takes its own first knot
    path = write_config(tmp_path, """\
problem: {kind: deconvolution, kernel: gaussian}
scheme: truncated:lavrentiev
index_function: {family: reciprocal_measure}
noise: {mode: deterministic, deltas: [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5]}
discretization: {n_nodes: 1000}
output: {directory: OUTDIR}
""")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    assert len((tmp_path / "out" / "rows.csv").read_text().splitlines()) == 5


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


def test_fvp_bounded_eigenvalues_through_a_config(tmp_path, capsys):
    # a growth after the first n_max eigenvalues is accepted; fewer
    # eigenvalues than nodes is a config error, exit 2 with no traceback
    for k, (eigenvalues, code) in enumerate((([1.0, 1.0, 1.0, 1.0, 2.0], EXIT_OK),
                                             ([1.0, 2.0, 3.0], EXIT_CONFIG))):
        path = tmp_path / f"fvp{k}.yaml"
        path.write_text(yaml.safe_dump({
            "problem": {"kind": "fvp_bounded", "n_max": 4,
                        "eigenvalues": eigenvalues}}))
        capsys.readouterr()
        assert main(["rearrange", "--config", str(path),
                     "--out", str(tmp_path / f"out{k}")]) == code
    err = capsys.readouterr().err
    assert "config error: problem.fvp_bounded: not enough eigenvalues" in err
    assert "Traceback" not in err


#: an option each command does not read
REFUSED = [("dalpha", "--threads", "4"), ("dalpha", "--seed", "9"),
           ("rearrange", "--threads", "2"), ("rearrange", "--seed", "9"),
           ("reconstruct", "--threads", "2"), ("reconstruct", "--format", "json"),
           ("check-scheme", "--format", "json"), ("check-scheme", "--out", "x"),
           ("check-scheme", "--seed", "9"), ("check-scheme", "--threads", "2")]


@pytest.mark.parametrize("command, option, value", REFUSED)
def test_cli_refuses_options_a_command_does_not_read(tmp_path, capsys,
                                                     command, option, value):
    path = write_config(tmp_path, WHITE_STUDY)
    with pytest.raises(SystemExit) as refused:
        main([command, "--config", str(path), option, value])
    assert refused.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option} {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_refusal_exits_2_from_the_interpreter(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "multreg.cli", "dalpha",
                           "--config", str(path), "--threads", "2"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_CONFIG
    assert "unrecognized arguments" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_study_commands_keep_every_option(tmp_path):
    path = write_config(tmp_path, WHITE_STUDY)
    for command in ("run", "rates"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--threads", "2",
                     "--seed", "5", "--format", "json", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 5
        assert (out / "rows.json").exists()
    assert main(["reconstruct", "--config", str(path), "--seed", "5",
                 "--out", str(tmp_path / "r")]) == 0
    for command in ("rearrange", "dalpha"):
        assert main([command, "--config", str(path), "--format", "json",
                     "--out", str(tmp_path / command)]) == 0
    assert (tmp_path / "dalpha" / "dalpha.json").exists()
    assert (tmp_path / "rearrange" / "distribution.json").exists()


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


def _table(tmp_path, node=None, value=None):
    """A 256-row power-decay table on the half-line; row 100 takes the given
    node or value."""
    s = (np.arange(256) + 0.5) * (50.0 / 256)
    rows = [[f"{x:.17g}", f"{1.0 / (1.0 + x * x):.17g}"] for x in s]
    rows[100] = [node or rows[100][0], value or rows[100][1]]
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{x} {y}\n" for x, y in rows))
    return str(path)


NAN, INF = float("nan"), float("inf")
POWER_DECAY = {"kind": "power_decay", "kappa": 0.5}
NON_FINITE = {
    "kappa": ({"problem": {**POWER_DECAY, "kappa": NAN}}, "problem.kappa"),
    "radius_nan": ({"problem": POWER_DECAY,
                    "discretization": {"n_nodes": 256, "truncation_radius": NAN}},
                   "discretization.truncation_radius"),
    "radius_inf": ({"problem": POWER_DECAY,
                    "discretization": {"n_nodes": 256, "truncation_radius": INF}},
                   "discretization.truncation_radius"),
    "b_values": ({"problem": {"kind": "counting", "b_values": [1.0, NAN, 0.25, 0.125]}},
                 "problem.b_values"),
    "solution_values": ({"problem": {"kind": "counting", "n_max": 3,
                                     "solution_values": [1.0, NAN, 0.2]}},
                        "problem.solution_values"),
    "table_nan_node": (lambda tmp: {"problem": {"kind": "tabulated",
                                                "file": _table(tmp, node="nan")}},
                       "problem.tabulated: .*b.txt: every cell"),
    "table_nan_value": (lambda tmp: {"problem": {"kind": "tabulated",
                                                 "file": _table(tmp, value="nan")}},
                        "problem.tabulated: .*b.txt: every cell"),
    "table_inf_node": (lambda tmp: {"problem": {"kind": "tabulated",
                                                "file": _table(tmp, node="inf")}},
                       "problem.tabulated: .*b.txt: every cell"),
    "nu": ({"problem": POWER_DECAY, "index_function": {"family": "power", "nu": NAN}},
           "index_function.nu"),
    # the noise levels keep their own message
    "deltas": ({"problem": POWER_DECAY,
                "noise": {"mode": "deterministic", "deltas": [1e-2, NAN]}},
               "noise.deltas: noise levels must be positive and finite"),
}


@pytest.mark.parametrize("command", ["run", "dalpha"])
@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, case, command):
    # a NaN or an infinity in a config or a table means nothing the program
    # computes: exit 2, naming the key or the file, and no traceback
    config, message = NON_FINITE[case]
    config = config(tmp_path) if callable(config) else config
    config = {"discretization": {"n_nodes": 256},
              "noise": {"mode": "deterministic", "deltas": [1e-2, 1e-3]}, **config}
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(config))
    capsys.readouterr()
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.search(f"config error: {message}", err), err
    assert "Traceback" not in err


def test_an_all_zero_table_is_refused_without_a_traceback(tmp_path, capsys):
    # with no positive b value there is no alpha grid between min b and
    # sup b: a failed precondition, reported with no traceback
    table = tmp_path / "b.txt"
    table.write_text("0.5 0\n1.5 0\n2.5 0\n")
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({
        "problem": {"kind": "tabulated", "space": "interval", "file": str(table)},
        "scheme": "lavrentiev", "index_function": {"family": "power", "nu": 0.5},
        "noise": {"mode": "white", "deltas": [1e-2], "replications": 2}}))
    capsys.readouterr()
    assert main(["dalpha", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_VIOLATION
    err = capsys.readouterr().err
    assert "degenerate multiplier range" in err and "Traceback" not in err
