import argparse
import dataclasses
import hashlib
import inspect
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import imcverify.config as config_module
from imcverify import cli
from imcverify.cli import main
from imcverify.config import MonteCarloConfig, RunConfig, load_config
from imcverify.dynamics import parse_dynamics
from imcverify.errors import InputError
from imcverify.geometry import partition_domain
from imcverify.imc import cell_posteriors, write_posterior_table
from imcverify.pipeline import (
    EXPORTS,
    IMC_FILE,
    IMPROVED_FILE,
    LABELS_FILE,
    RESULTS_FILE,
    SUMMARY_FILE,
    TRAJECTORIES_FILE,
    run_pipeline,
)
from imcverify.verify import (
    _CLASSES,
    DEFAULT_CONVERGENCE_TOL,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_THRESHOLD,
    _sha256_hex,
    classify_arrays,
)
from boxes import g_image

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"

TOY_1D = """\
domain: [[0.0, 1.0]]
grid: [4]
dynamics:
  expressions: ["x1 + w1"]
  structure: additive
noise:
  components:
    - {{type: uniform, lo: -0.25, hi: 0.25}}
labels:
  goal: [[[0.75, 1.0]]]
spec:
  horizon: unbounded
  threshold: 0.9
cluster:
  passes: {passes}
monte_carlo:
  trajectories: 100
  seed: 5
  confidence: 0.99
  horizon: 40
  cells: all
  export_trajectories: 2
  enabled: {mc}
output_dir: {outdir}
"""

PAPER_2D = """\
domain: [[0.25, 2.25], [0.25, 2.25]]
grid: [10, 10]
dynamics:
  expressions: ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"]
  structure: multiplicative
noise:
  components:
    - {type: truncated_gaussian, mean: 1.0, std: 0.1, lo: 0.9, hi: 1.1}
    - {type: truncated_gaussian, mean: 1.0, std: 0.1, lo: 0.9, hi: 1.1}
labels:
  goal: [[[0.25, 0.65], [0.25, 0.65]]]
  obstacle: [[[1.85, 2.25], [0.45, 0.85]]]
spec:
  horizon: unbounded
  threshold: 0.9
monte_carlo:
  trajectories: 50
  seed: 11
  horizon: 60
  cells: [0, 55]
output_dir: out
"""


ADDITIVE_2D = """\
domain: [[-1.0, 1.0], [-1.0, 1.0]]
grid: [4, 4]
dynamics:
  expressions: ["0.9*x1 + 0.1*x2", "-0.1*x1 + 0.9*x2"]
  structure: additive
noise:
  components:
    - {{type: uniform, lo: -0.1, hi: 0.1}}
    - {{type: uniform, lo: -0.1, hi: 0.1}}
labels:
  goal: [[[-0.5, 0.5], [-0.5, 0.5]]]
monte_carlo:
  enabled: false
{table}
output_dir: {outdir}
"""


# x' = 0.5 x + w with w1 formatted in; cell 0 is validated, no path exported
GENERAL_2D = """\
domain: [[-1.0, 1.0], [-1.0, 1.0]]
grid: [4, 4]
dynamics:
  expressions: ["0.5*x1 + w1", "0.5*x2 + w2"]
  structure: general
noise:
  grid: [2, 2]
  components:
    - {w1}
    - {{type: uniform, lo: -0.1, hi: 0.1}}
labels:
  goal: [[[-0.5, 0.5], [-0.5, 0.5]]]
monte_carlo:
  trajectories: 20
  cells: [0]
  export_trajectories: 0
output_dir: out
"""


def _exit_code(argv) -> int:
    """``main``'s exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def write_toy(tmp_path, passes=1, mc="true", outdir="out"):
    cfg = tmp_path / "toy.yaml"
    cfg.write_text(TOY_1D.format(passes=passes, mc=mc, outdir=outdir))
    return cfg


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_toy(tmp_path))
        assert cfg.grid == (4,)
        assert cfg.model.structure == "additive"
        assert cfg.horizon is None
        assert cfg.threshold == 0.9

    def test_minimal_config_loads_the_field_defaults(self, tmp_path):
        path = tmp_path / "minimal.yaml"
        path.write_text(
            "domain: [[0.0, 1.0]]\ngrid: [4]\n"
            "dynamics: {expressions: [x1 + w1], structure: additive}\n"
            "noise: {components: [{type: uniform, lo: -0.25, hi: 0.25}]}\n"
            "labels: {goal: [[[0.75, 1.0]]]}\n"
        )
        cfg = load_config(path)
        for f in dataclasses.fields(RunConfig):
            if f.default is not dataclasses.MISSING and f.name not in ("output_dir", "source"):
                assert getattr(cfg, f.name) == f.default, f.name
        assert cfg.monte_carlo == MonteCarloConfig()
        assert cfg.output_dir == tmp_path / RunConfig.output_dir
        assert (cfg.threshold, cfg.convergence_tol, cfg.max_iterations) == (
            DEFAULT_THRESHOLD, DEFAULT_CONVERGENCE_TOL, DEFAULT_MAX_ITERATIONS
        )

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
    def test_yaml_loaders_agree(self, tmp_path, monkeypatch):
        # configs parse with libyaml's loader where PyYAML has it: both
        # loaders give equal dicts, and a malformed file is an input error
        # naming the path under either
        assert config_module._YAML_LOADER is yaml.CSafeLoader
        paths = sorted(WORKLOADS.glob("*.yaml"))
        assert paths
        for path in paths:
            data = path.read_bytes()
            assert yaml.load(data, Loader=yaml.CSafeLoader) == yaml.safe_load(data), path.name
        bad = tmp_path / "bad.yaml"
        bad.write_text("domain: [[0.0, 1.0]\ngrid: [4]\n")
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
            with pytest.raises(InputError, match=f"config parse error in {re.escape(str(bad))}"):
                load_config(bad)

    OVERLAP_2D = """\
domain: [[-1.0, 1.0], [-1.0, 1.0]]
grid: [10, 10]
dynamics: {{expressions: [x1 + w1, x2 + w2], structure: additive}}
noise: {{components: [{{type: uniform, lo: -0.1, hi: 0.1}}, {{type: uniform, lo: -0.1, hi: 0.1}}]}}
labels:
  goal: [[[-0.2, 0.2], [-0.2, 0.2]]]
  obstacle: [[[-1.0, -0.6], [-1.0, -0.6]], {obstacle}]
monte_carlo: {{enabled: false}}
"""

    def test_goal_overlapping_an_obstacle_rejected(self, tmp_path, caplog):
        # a state in both would be pinned at 1 and at 0: the config names
        # both boxes before any phase runs
        path = tmp_path / "overlap.yaml"
        path.write_text(self.OVERLAP_2D.format(obstacle="[[0.0, 0.6], [0.0, 0.6]]"))
        message = "labels.goal[0]: overlaps labels.obstacle[1]"
        with pytest.raises(InputError, match=re.escape(message)):
            load_config(path)
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["abstract", "-c", str(path)]) == 1
        assert not (tmp_path / "out" / IMC_FILE).exists()

    def test_unsafe_label_rejected_before_any_phase(self, tmp_path, caplog):
        # "unsafe" names the state outside the domain; a config label of that
        # name is an input error naming the field, and no output_dir is made
        path = tmp_path / "unsafe.yaml"
        path.write_text(TOY_1D.format(passes=0, mc="false", outdir="out").replace(
            "goal: [[[0.75, 1.0]]]", "goal: [[[0.75, 1.0]]]\n  unsafe: [[[0.0, 0.25]]]"
        ))
        with pytest.raises(InputError, match=re.escape("labels.unsafe: the name is reserved")):
            load_config(path)
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["run", "-c", str(path)]) == 1
        assert "labels.unsafe" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_goal_sharing_a_face_with_an_obstacle_loads(self, tmp_path):
        path = tmp_path / "face.yaml"
        path.write_text(self.OVERLAP_2D.format(obstacle="[[0.2, 0.6], [-0.2, 0.2]]"))
        assert load_config(path).labels["obstacle"][0][1, 0] == 0.2
        assert main(["run", "-c", str(path)]) == 0

    def test_null_posterior_table_is_no_table(self, tmp_path):
        path = write_toy(tmp_path)
        path.write_text(path.read_text() + "posterior_table: null\n")
        assert load_config(path).posterior_table is None

    def test_paper_config(self, tmp_path):
        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D)
        cfg = load_config(path)
        assert cfg.model.structure == "multiplicative"
        assert cfg.noise.n == 2
        assert cfg.monte_carlo.cells == [0, 55]

    def test_threshold_error_names_field(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            TOY_1D.format(passes=0, mc="false", outdir="out").replace(
                "threshold: 0.9", "threshold: 1.5"
            )
        )
        with pytest.raises(InputError, match="spec.threshold"):
            load_config(path)

    def test_label_outside_domain(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            TOY_1D.format(passes=0, mc="false", outdir="out").replace(
                "[[[0.75, 1.0]]]", "[[[0.75, 1.5]]]"
            )
        )
        with pytest.raises(InputError, match="labels.goal"):
            load_config(path)

    def test_general_requires_noise_grid(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            TOY_1D.format(passes=0, mc="false", outdir="out").replace(
                "structure: additive", "structure: general"
            )
        )
        with pytest.raises(InputError, match="noise.grid"):
            load_config(path)

    def test_multiplicative_rejects_noise_grid(self, tmp_path):
        # only general systems bound transitions over a noise grid; the
        # additive case is one of test_invalid_value_rejected's
        path = tmp_path / "bad.yaml"
        path.write_text(PAPER_2D.replace("noise:\n", "noise:\n  grid: [7, 7]\n"))
        with pytest.raises(InputError, match="noise.grid: .*not 'multiplicative'"):
            load_config(path)

    def test_bad_expression_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            TOY_1D.format(passes=0, mc="false", outdir="out").replace(
                '"x1 + w1"', '"x1 + "'
            )
        )
        with pytest.raises(InputError, match="dynamics.expressions"):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("  threshold: 0.9", "  threshold: 0.9\n  convergence_tolerence: 1.0e-9",
             "spec.convergence_tolerence"),
            ("  structure: additive", "  structure: additive\n  monotone: [[true]]",
             "dynamics.monotone"),
            ("{type: uniform, lo", "{type: uniform, scale: 2, lo", "noise.components[0].scale"),
            ("  seed: 5", "  seeds: 5", "monte_carlo.seeds"),
            ("  cells: all", "  cells: stride\n  cell_stride: 5", "monte_carlo.cell_stride"),
            ("output_dir:", "outdir: x\noutput_dir:", "outdir"),
        ],
    )
    def test_unknown_field_rejected(self, tmp_path, old, new, field):
        path = tmp_path / "bad.yaml"
        text = TOY_1D.format(passes=0, mc="false", outdir="out")
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(InputError, match=f"{re.escape(field)}: unknown field"):
            load_config(path)
        assert main(["run", "-c", str(path)]) == 1

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("  enabled: false", '  enabled: "false"', "monte_carlo.enabled"),
            ("  enabled: false", "  enabled: 0", "monte_carlo.enabled"),
            ("grid: [4]", "grid: [true]", "grid[0]"),
            ("hi: 0.25}", "hi: 0.25}\n  grid: [true]", "noise.grid[0]"),
            ("  horizon: unbounded", "  horizon: true", "spec.horizon"),
            ("  threshold: 0.9", "  threshold: 0.9\n  max_iterations: true", "spec.max_iterations"),
            ("  passes: 0", "  passes: false", "cluster.passes"),
            ("  trajectories: 100", "  trajectories: true", "monte_carlo.trajectories"),
            ("  seed: 5", "  seed: false", "monte_carlo.seed"),
            ("  seed: 5", "  seed: -3", "monte_carlo.seed"),
            ("  horizon: 40", "  horizon: true", "monte_carlo.horizon"),
            ("  cells: all", "  cells: [0, true]", "monte_carlo.cells[1]"),
            ("  cells: all", "  cells: all\n  cell_stride: true", "monte_carlo.cell_stride"),
            ("  export_trajectories: 2", "  export_trajectories: true",
             "monte_carlo.export_trajectories"),
            # numbers: booleans and strings are not box endpoints, noise
            # parameters, mixture weights or tolerances
            ("domain: [[0.0, 1.0]]", "domain: [[-1, true]]", "domain[0]"),
            ("  goal: [[[0.75, 1.0]]]", "  goal: [[[0.75, true]]]", "labels.goal[0][0]"),
            ("lo: -0.25, hi: 0.25}", "lo: -0.25, hi: true}", "noise.components[0].hi"),
            ("lo: -0.25, hi: 0.25}", 'lo: "-0.25", hi: 0.25}', "noise.components[0].lo"),
            ("{type: uniform, lo: -0.25, hi: 0.25}",
             "{type: mixture, weights: [0.5, true], components: "
             "[{type: uniform, lo: -0.25, hi: 0.25}, {type: uniform, lo: -0.25, hi: 0.25}]}",
             "noise.components[0].weights[1]"),
            ("  threshold: 0.9", "  threshold: 0.9\n  convergence_tolerance: abc",
             "spec.convergence_tolerance"),
            ("  threshold: 0.9", "  threshold: 0.9\n  convergence_tolerance: true",
             "spec.convergence_tolerance"),
            # paths: a non-empty string, and for posterior_table null means no table
            ("output_dir: out", "output_dir: 5", "output_dir"),
            ("output_dir: out", "output_dir: [a]", "output_dir"),
            ("output_dir: out", "output_dir: null", "output_dir"),
            ("output_dir: out", "output_dir: out\nposterior_table: 5", "posterior_table"),
            ("output_dir: out", 'output_dir: out\nposterior_table: ""', "posterior_table"),
            ("output_dir: out", "output_dir: out\nposterior_table: false", "posterior_table"),
        ],
    )
    def test_wrongly_typed_value_rejected(self, tmp_path, caplog, old, new, field):
        # YAML booleans load as bool, a subclass of int: they are not counts,
        # and a quoted "false" is a string, not a boolean
        path = tmp_path / "bad.yaml"
        text = TOY_1D.format(passes=0, mc="false", outdir="out")
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(InputError, match=re.escape(field)):
            load_config(path)
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["run", "-c", str(path)]) == 1
        assert f"{field}: " in caplog.text

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("  cells: all", "  cells: []", "monte_carlo.cells"),
            ("lo: -0.25, hi: 0.25}", "lo: 0.25, hi: 0.25}", "noise.components[0]"),
            ("{type: uniform, lo: -0.25, hi: 0.25}",
             "{type: mixture, weights: [0.5, 0.5], components: "
             "[{type: uniform, lo: -0.25, hi: 0.25}, {type: uniform, lo: 0.0, hi: 0.0}]}",
             "noise.components[0].components[1]"),
            ("{type: uniform, lo: -0.25, hi: 0.25}",
             "{type: truncated_gaussian, mean: .nan, std: 0.1, lo: -0.25, hi: 0.25}",
             "noise.components[0]"),
            ("{type: uniform, lo: -0.25, hi: 0.25}",
             "{type: truncated_gaussian, mean: 0.0, std: .nan, lo: -0.25, hi: 0.25}",
             "noise.components[0]"),
            ("{type: uniform, lo: -0.25, hi: 0.25}",
             "{type: mixture, weights: [.nan, 1.0], components: "
             "[{type: uniform, lo: -0.25, hi: 0.0}, {type: uniform, lo: 0.0, hi: 0.25}]}",
             "noise.components[0]"),
            ("hi: 0.25}", "hi: 0.25}\n  grid: [7]", "noise.grid"),
            ("  threshold: 0.9", "  threshold: 0.9\n  convergence_tolerance: .inf",
             "spec.convergence_tolerance"),
            ("  threshold: 0.9", "  threshold: 0.9\n  convergence_tolerance: .nan",
             "spec.convergence_tolerance"),
            ("  passes: 0", "  passes: 2", "cluster.passes"),
            ("  goal: [[[0.75, 1.0]]]", '  goal: [[[0.75, 1.0]]]\n  "ob,stacle": [[[0.0, 0.25]]]',
             "labels.ob,stacle"),
            ("  goal: [[[0.75, 1.0]]]", """  goal: [[[0.75, 1.0]]]\n  'ob"stacle': [[[0.0, 0.25]]]""",
             'labels.ob"stacle'),
            ("  goal: [[[0.75, 1.0]]]", '  goal: [[[0.75, 1.0]]]\n  "ob\\nstacle": [[[0.0, 0.25]]]',
             "labels.ob\nstacle"),
            ("  goal: [[[0.75, 1.0]]]", '  goal: [[[0.75, 1.0]]]\n  "": [[[0.0, 0.25]]]', "labels."),
            ("  goal: [[[0.75, 1.0]]]",
             '  goal: [[[0.75, 1.0]]]\n  1: [[[0.0, 0.25]]]\n  "1": [[[0.25, 0.5]]]', "labels.1"),
        ],
    )
    def test_invalid_value_rejected(self, tmp_path, caplog, old, new, field):
        # an empty cell list would validate nothing; a uniform with lo == hi
        # is a point mass, which the noise partitions (over (lo, hi]) drop;
        # NaN noise parameters would turn into NaN bounds; nothing reads a
        # noise grid of an additive system; an infinite tolerance stops
        # verify after one sweep, a NaN one never stops it; a second cluster
        # pass over the first's fixpoint would change nothing; labels.csv
        # writes a label name as a bare field; the YAML keys 1 and "1" name
        # one label, whose second box list would replace the first
        path = tmp_path / "bad.yaml"
        text = TOY_1D.format(passes=0, mc="true", outdir="out")
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(InputError, match=re.escape(field)):
            load_config(path)
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["run", "-c", str(path)]) == 1
        assert f"{field}: " in caplog.text

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("domain: [[0.0, 1.0]]", "domain: [[-.inf, 1.0]]",
             "domain[0]: requires finite endpoints, got [-inf, 1.0]"),
            ("  goal: [[[0.75, 1.0]]]", "  goal: [[[0.75, 1.0]]]\n  obstacle: [[[.nan, 0.25]]]",
             "labels.obstacle[0][0]: requires finite endpoints, got [nan, 0.25]"),
            ("  goal: [[[0.75, 1.0]]]", "  goal: []",
             "labels.goal: a goal label with at least one box is required"),
            ("  goal: [[[0.75, 1.0]]]", "  obstacle: [[[0.0, 0.25]]]",
             "labels.goal: a goal label with at least one box is required"),
        ],
    )
    def test_boxes_need_finite_endpoints_and_a_goal(self, tmp_path, old, new, message):
        # an infinite domain cannot be gridded, and without a goal box every
        # state would violate
        path = tmp_path / "bad.yaml"
        path.write_text(TOY_1D.format(passes=0, mc="false", outdir="out").replace(old, new))
        with pytest.raises(InputError, match=re.escape(message)):
            load_config(path)
        assert main(["run", "-c", str(path)]) == 1
        assert not (tmp_path / "out").exists()

    def test_label_names_are_free_form(self, tmp_path):
        path = tmp_path / "labels.yaml"
        path.write_text(
            TOY_1D.format(passes=0, mc="false", outdir="out").replace(
                "  goal: [[[0.75, 1.0]]]",
                "  goal: [[[0.75, 1.0]]]\n  charging_station: [[[0.0, 0.25]]]",
            )
        )
        cfg = load_config(path)
        assert set(cfg.labels) == {"goal", "charging_station"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "nope.yaml")

    def test_posterior_table_requires_a_structured_system(self, tmp_path, caplog):
        # simulate never reads the table, so the config must reject the
        # combination for every phase to see it
        path = tmp_path / "general.yaml"
        w1 = "{type: uniform, lo: -0.1, hi: 0.1}"
        path.write_text(GENERAL_2D.format(w1=w1) + "posterior_table: table.csv\n")
        with pytest.raises(InputError, match="posterior_table: requires an additive"):
            load_config(path)
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["verify", "-c", str(path)]) == 1
        assert "posterior_table: " in caplog.text


class TestPipeline:
    def test_toy_artifacts_and_counts(self, tmp_path):
        cfg = load_config(write_toy(tmp_path))
        summary = run_pipeline(cfg)
        out = cfg.output_dir
        for name in (IMC_FILE, LABELS_FILE, RESULTS_FILE, IMPROVED_FILE,
                     TRAJECTORIES_FILE, SUMMARY_FILE):
            assert (out / name).exists(), name
        assert summary["states"] == 5  # grid size + unsafe
        assert summary["cells"] == 4
        results = (out / RESULTS_FILE).read_text().strip().splitlines()
        assert len(results) == 1 + 5
        assert summary["phases"]["simulate"]["all_sound"]

    def test_failed_validation_is_logged(self, tmp_path, caplog):
        from imcverify.pipeline import build_context, phase_abstract, phase_simulate
        from imcverify.verify import VerificationResult

        ctx = build_context(load_config(write_toy(tmp_path, passes=0)))
        imc, _ = phase_abstract(ctx)
        # claims every state violates, but the goal cell starts in the goal
        zeros = np.zeros(imc.n_states)
        wrong = VerificationResult(zeros, zeros, ("violates",) * imc.n_states, 0, True)
        with caplog.at_level(logging.WARNING, logger="imcverify"):
            records = phase_simulate(ctx, wrong)
        unsound = [r["state"] for r in records if not r["sound"]]
        assert 3 in unsound
        (warning,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert f"states {unsound}" in warning.getMessage()

    def test_each_phase_logs_its_seconds_and_count(self, tmp_path, caplog):
        cfg = load_config(write_toy(tmp_path, passes=1))
        with caplog.at_level(logging.INFO, logger="imcverify"):
            summary = run_pipeline(cfg)
        phases = summary["phases"]
        abstract, verify, improve, simulate = (
            phases[name] for name in ("abstract", "verify", "improve", "simulate")
        )
        fixpoints = verify["fixpoint_sweep"]
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            f"abstract: {abstract['seconds']:.3f} s, {abstract['pairs']} pairs, "
            f"{abstract['factors']} factors, {abstract['entries']} entries, "
            f"peak RSS {abstract['peak_rss_mb']:.1f} MB",
            f"verify: {verify['seconds']:.3f} s, {verify['iterations']} sweeps, bitwise "
            f"fixpoint from sweep {fixpoints['lower']} (lower), {fixpoints['upper']} (upper), "
            f"peak RSS {verify['peak_rss_mb']:.1f} MB",
            f"improve: {improve['seconds']:.3f} s, {improve['improved']} states improved, "
            f"peak RSS {improve['peak_rss_mb']:.1f} MB",
            f"simulate: {simulate['seconds']:.3f} s, {len(simulate['validation'])} cells x "
            f"{cfg.monte_carlo.trajectories} trajectories, peak RSS {simulate['peak_rss_mb']:.1f} MB",
        ]
        # the peak RSS only grows from phase to phase of one process
        peaks = [abstract["peak_rss_mb"], verify["peak_rss_mb"], improve["peak_rss_mb"],
                 simulate["peak_rss_mb"]]
        assert 0.0 < peaks[0] and peaks == sorted(peaks)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="imcverify"):
            run_pipeline(cfg, phases=("verify",))
        info = [r.getMessage().split(":")[0] for r in caplog.records if r.levelno == logging.INFO]
        assert info == ["verify"]

    def test_abstraction_statistics_match_the_exported_entries(self, tmp_path):
        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D)
        cfg = load_config(path)
        summary = run_pipeline(cfg, phases=("abstract", "verify"))
        rows = [line.split(",") for line in (cfg.output_dir / IMC_FILE).read_text().splitlines()[1:]]
        widths = [float(upper) - float(lower) for _, _, lower, upper in rows]
        stats = summary["phases"]["abstract"]
        assert stats["entries"] == len(rows)
        # every state has a row: its unsafe column is always stored
        assert len({src for src, *_ in rows}) == summary["states"]
        assert stats["row_nnz_mean"] == len(rows) / summary["states"]
        assert stats["interval_width_mean"] == pytest.approx(math.fsum(widths) / len(rows), rel=1e-12)
        assert 0.0 < stats["interval_width_mean"] < 1.0

    def test_abstraction_counts_pairs_and_factors(self, tmp_path, monkeypatch):
        """The abstract phase reports the candidate pairs the build bounds and
        the band factors it computes: paper-mult-40 bounds 105,088 pairs from
        25,752 factors and the noise-separable general-sin-20 7,768 pairs
        from 3,526 (each plus one domain factor per cell and dimension), and
        a general system whose component 1 reads w2 computes none."""
        import imcverify.imc as imc_module

        computed, factors = [], imc_module._factors

        def counted(posts, d, src, t_lo, t_hi):
            computed.append(len(src))
            return factors(posts, d, src, t_lo, t_hi)

        monkeypatch.setattr(imc_module, "_factors", counted)
        sin = load_config(WORKLOADS / "general-sin-20.yaml")
        exprs = ["0.8*x1 + 0.1*x2 + w1 + 0.5*w2", "0.8*x2 - 0.2*sin(x1) + w2"]
        for i, (cfg, expected) in enumerate((
            (load_config(WORKLOADS / "paper-mult-40.yaml"), (105088, 25752)),
            (sin, (7768, 3526)),
            (dataclasses.replace(sin, model=parse_dynamics(exprs, 2, "general")), (8118, 0)),
        )):
            cfg = dataclasses.replace(cfg, output_dir=tmp_path / str(i))
            stats = run_pipeline(cfg, phases=("abstract",))["phases"]["abstract"]
            assert (stats["pairs"], stats["factors"]) == expected
        assert sum(computed) == 25752 + 2 * 40**2 + 3526 + 2 * 20**2

    def test_cluster_pass_counts_reported(self, tmp_path):
        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D + "cluster:\n  passes: 1\n")
        cfg = load_config(path)
        summary = run_pipeline(cfg, phases=("abstract", "verify", "improve"))
        improved = summary["phases"]["improve"]["improved"]
        results, improved_results = (
            [line.split(",")[-3:-1] for line in (cfg.output_dir / name).read_text().splitlines()]
            for name in (RESULTS_FILE, IMPROVED_FILE)
        )
        assert 0 < improved == sum(a != b for a, b in zip(results, improved_results))

    def test_improve_computes_the_posteriors_once(self, tmp_path, monkeypatch):
        from imcverify import pipeline

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return cell_posteriors(*args, **kwargs)

        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D + "cluster:\n  passes: 1\n")
        cfg = load_config(path)
        run_pipeline(cfg, phases=("abstract", "verify"))
        monkeypatch.setattr(pipeline, "cell_posteriors", counted)
        summary = run_pipeline(cfg, phases=("improve",))
        assert summary["phases"]["improve"]["improved"] > 0
        assert len(calls) == 1

    def test_phase_isolation(self, tmp_path):
        base = load_config(write_toy(tmp_path, passes=0, mc="false", outdir="a"))
        run_pipeline(base)
        full = load_config(write_toy(tmp_path, passes=1, mc="true", outdir="b"))
        run_pipeline(full)
        for name in (IMC_FILE, LABELS_FILE, RESULTS_FILE):
            assert (base.output_dir / name).read_bytes() == (
                full.output_dir / name
            ).read_bytes()
        assert not (base.output_dir / IMPROVED_FILE).exists()
        assert not (base.output_dir / TRAJECTORIES_FILE).exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg_a = load_config(write_toy(tmp_path, outdir="run_a"))
        cfg_b = load_config(write_toy(tmp_path, outdir="run_b"))
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        for name in (IMC_FILE, LABELS_FILE, RESULTS_FILE, IMPROVED_FILE,
                     TRAJECTORIES_FILE):
            assert (cfg_a.output_dir / name).read_bytes() == (
                cfg_b.output_dir / name
            ).read_bytes(), name

    def test_export_count_does_not_change_validation(self, tmp_path):
        # the export is the first paths of each cell's validation batch:
        # none, some or all of them, with the same verdicts every time
        runs = {}
        for export in (0, 2, 150):
            cfg_path = tmp_path / f"export{export}.yaml"
            cfg_path.write_text(
                TOY_1D.format(passes=0, mc="true", outdir=f"out{export}").replace(
                    "export_trajectories: 2", f"export_trajectories: {export}"
                )
            )
            cfg = load_config(cfg_path)
            summary = run_pipeline(cfg)
            rows = (cfg.output_dir / TRAJECTORIES_FILE).read_text().splitlines()
            runs[export] = (summary["phases"]["simulate"]["validation"], rows)
        assert runs[0][1] == ["trajectory,step,x1,termination"]
        for export, (_, rows) in runs.items():
            ids = {row.split(",")[0] for row in rows[1:]}
            assert len(ids) == 4 * min(export, 100)  # 4 cells, 100 trajectories

        def first_paths(rows, per_cell, first):
            # step rows, without the trajectory id, of paths i < first per cell
            return [
                row.split(",", 1)[1]
                for row in rows[1:]
                if int(row.split(",")[0]) % per_cell < first
            ]

        assert first_paths(runs[150][1], 100, 2) == first_paths(runs[2][1], 2, 2)
        assert runs[0][0] == runs[2][0] == runs[150][0]

    def test_trajectories_header_without_exports(self, tmp_path):
        path = tmp_path / "general.yaml"
        path.write_text(GENERAL_2D.format(w1="{type: uniform, lo: -0.001, hi: 0.001}"))
        summary = run_pipeline(load_config(path))
        assert len(summary["phases"]["simulate"]["validation"]) == 1
        trajectories = (tmp_path / "out" / TRAJECTORIES_FILE).read_text()
        assert trajectories == "trajectory,step,x1,x2,termination\n"

    def test_point_mass_noise_rejected(self, tmp_path, caplog):
        # Uniform(0, 0) has F(0) = 1, so every noise cell over (lo, hi] had
        # mass 0 and 12 of 16 cells were classified as violating
        path = tmp_path / "general.yaml"
        path.write_text(GENERAL_2D.format(w1="{type: uniform, lo: 0.0, hi: 0.0}"))
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["run", "-c", str(path)]) == 1
        assert "noise.components[0]: " in caplog.text
        path.write_text(GENERAL_2D.format(w1="{type: uniform, lo: -0.001, hi: 0.001}"))
        summary = run_pipeline(load_config(path))
        assert summary["classification"]["counts"]["satisfies"] == 16

    def test_general_structure_pipeline(self, tmp_path):
        path = tmp_path / "gen.yaml"
        path.write_text(
            """\
domain: [[0.0, 1.0]]
grid: [4]
dynamics:
  expressions: ["x1 + w1 - 0.1*x1^2"]
  structure: general
noise:
  components:
    - {type: uniform, lo: -0.2, hi: 0.2}
  grid: [10]
labels:
  goal: [[[0.75, 1.0]]]
cluster:
  passes: 1
monte_carlo:
  trajectories: 50
  horizon: 30
  cells: [0]
output_dir: out_gen
"""
        )
        cfg = load_config(path)
        summary = run_pipeline(cfg)
        assert summary["phases"]["simulate"]["all_sound"]


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = write_toy(tmp_path)
        assert main(["run", "-c", str(cfg_path)]) == 0
        assert (tmp_path / "out" / SUMMARY_FILE).exists()

    def test_phase_subcommands_compose(self, tmp_path):
        """Four processes' worth of phases, each reloading what the one before
        wrote, export the bytes of one ``run``."""
        cfg_path = write_toy(tmp_path, passes=1)
        assert main(["abstract", "-c", str(cfg_path)]) == 0
        assert main(["verify", "-c", str(cfg_path)]) == 0
        assert main(["improve", "-c", str(cfg_path)]) == 0
        assert main(["simulate", "-c", str(cfg_path)]) == 0
        assert main(["run", "-c", str(cfg_path), "--output-dir", str(tmp_path / "whole")]) == 0
        for name in EXPORTS:
            phased, whole = (tmp_path / d / name for d in ("out", "whole"))
            assert phased.read_bytes() == whole.read_bytes(), name

    def test_uncertified_upper_bound_is_iterated_from_1_across_phases(self, tmp_path):
        """Under a threshold of 1 - 1e-9 the toy's upper bound from the goal
        indicator stops on the tolerance, not at a fixpoint, below the
        maximal reach probability 1 of cells 0-2, and the pre-fixpoint check
        fails. Verify iterates the upper bound down from 1 instead, so cells
        0-2 export 1.0, every class is the plain thresholding of the
        exported bounds, and phases that reload ``results.csv`` export the
        bytes of ``run``."""
        threshold = 0.999999999
        cfg_path = write_toy(tmp_path, passes=1, mc="false")
        cfg_path.write_text(cfg_path.read_text().replace("threshold: 0.9", f"threshold: {threshold}"))
        for phase in ("abstract", "verify", "improve"):
            assert main([phase, "-c", str(cfg_path)]) == 0
        assert main(["run", "-c", str(cfg_path), "--output-dir", str(tmp_path / "whole")]) == 0
        summary = json.loads((tmp_path / "whole" / SUMMARY_FILE).read_text())
        assert summary["phases"]["verify"]["upper_residual"] > 0.0
        for name in (RESULTS_FILE, IMPROVED_FILE):
            phased, whole = (tmp_path / d / name for d in ("out", "whole"))
            assert phased.read_bytes() == whole.read_bytes(), name
            rows = [line.split(",") for line in whole.read_text().splitlines()[1:]]
            p_lower, p_upper = (np.array([float(r[k]) for r in rows]) for k in (-3, -2))
            assert p_upper[:3].tolist() == [1.0] * 3
            classes = np.take(_CLASSES, classify_arrays(p_lower, p_upper, threshold))
            assert [r[-1] for r in rows] == classes.tolist()

    def test_unconverged_run_exits_3_after_its_exports(self, tmp_path):
        cfg_path = write_toy(tmp_path, passes=1)
        cfg_path.write_text(
            cfg_path.read_text().replace("  threshold: 0.9\n", "  threshold: 0.9\n  max_iterations: 1\n")
        )
        assert main(["run", "-c", str(cfg_path)]) == 3
        out = tmp_path / "out"
        assert all((out / name).exists() for name in EXPORTS)
        verify = json.loads((out / SUMMARY_FILE).read_text())["phases"]["verify"]
        assert (verify["iterations"], verify["converged"]) == (1, False)
        # an invocation without the verify phase does not report it again
        assert main(["improve", "-c", str(cfg_path)]) == 0

    def test_later_phases_do_not_reload_stale_exports(self, tmp_path):
        # rerunning abstract and verify after a dynamics change must not let
        # simulate validate the previous run's improved results
        def bounds(path):
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            return {int(r[0]): [float(r[-3]), float(r[-2])] for r in rows}

        cfg_path = write_toy(tmp_path, passes=1)
        out = tmp_path / "out"
        assert main(["run", "-c", str(cfg_path)]) == 0
        stale = bounds(out / IMPROVED_FILE)
        cfg_path.write_text(cfg_path.read_text().replace('"x1 + w1"', '"0.5*x1 + w1"'))
        for phase in ("abstract", "verify", "simulate"):
            assert main([phase, "-c", str(cfg_path)]) == 0
        assert not (out / IMPROVED_FILE).exists()
        fresh = bounds(out / RESULTS_FILE)
        records = json.loads((out / SUMMARY_FILE).read_text())["phases"]["simulate"]["validation"]
        assert [r["state"] for r in records] == [0, 1, 2, 3]
        validated = {r["state"]: [r["p_lower"], r["p_upper"]] for r in records}
        assert validated == {s: fresh[s] for s in validated}
        assert validated != {s: stale[s] for s in validated}

    def test_reloading_phases_take_the_labels_from_the_config(self, tmp_path):
        # after a goal edit, verify and simulate next to the old imc.csv
        # agree with a fresh run of the edit
        cfg_path = write_toy(tmp_path, passes=0)
        assert main(["abstract", "-c", str(cfg_path)]) == 0
        cfg_path.write_text(cfg_path.read_text().replace("[[[0.75, 1.0]]]", "[[[0.25, 0.5]]]"))
        for phase in ("verify", "simulate"):
            assert main([phase, "-c", str(cfg_path)]) == 0
        assert main(["run", "-c", str(cfg_path), "--output-dir", str(tmp_path / "fresh")]) == 0
        out = tmp_path / "out"
        assert (out / RESULTS_FILE).read_bytes() == (tmp_path / "fresh" / RESULTS_FILE).read_bytes()
        assert json.loads((out / SUMMARY_FILE).read_text())["phases"]["simulate"]["all_sound"]

    def test_simulate_does_not_read_the_abstraction(self, tmp_path):
        cfg_path = write_toy(tmp_path, passes=0)
        for phase in ("abstract", "verify", "simulate"):
            assert main([phase, "-c", str(cfg_path)]) == 0
        out = tmp_path / "out"
        with_imc = (out / TRAJECTORIES_FILE).read_bytes()
        (out / IMC_FILE).unlink()
        assert main(["simulate", "-c", str(cfg_path)]) == 0
        assert (out / TRAJECTORIES_FILE).read_bytes() == with_imc

    def test_label_narrower_than_a_cell_exits_1(self, tmp_path, caplog):
        # both endpoints match the edge 0.75: the goal would cover no cell
        cfg_path = write_toy(tmp_path)
        cfg_path.write_text(
            cfg_path.read_text().replace("[[[0.75, 1.0]]]", "[[[0.75, 0.7500000001]]]")
        )
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["run", "-c", str(cfg_path)]) == 1
        assert "label 'goal': box is narrower than a grid cell in dimension 0" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_label_off_the_grid_creates_no_output_dir(self, tmp_path, caplog):
        # labels are assigned to the cells before any phase runs or writes
        cfg_path = write_toy(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("[[[0.75, 1.0]]]", "[[[0.7, 1.0]]]"))
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["run", "-c", str(cfg_path)]) == 1
        assert "label 'goal': endpoint 0.7 in dimension 0 does not lie on a grid line" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_simulate_after_a_threshold_edit_exits_1(self, tmp_path, caplog):
        # results.csv holds classes at the verified threshold: after an edit
        # of the threshold, simulate refuses it until verify runs again
        cfg_path = tmp_path / "paper.yaml"
        cfg_path.write_text(PAPER_2D)
        assert main(["verify", "-c", str(cfg_path)]) == 0
        cfg_path.write_text(PAPER_2D.replace("threshold: 0.9", "threshold: 0.3"))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["simulate", "-c", str(cfg_path)]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert error.startswith(f"{out / RESULTS_FILE}: ") and error.endswith("run verify again")
        assert not (out / TRAJECTORIES_FILE).exists()
        assert main(["verify", "-c", str(cfg_path)]) == 0
        assert main(["simulate", "-c", str(cfg_path)]) == 0
        rows = [line.split(",") for line in (out / RESULTS_FILE).read_text().splitlines()[1:]]
        p_lower, p_upper = (np.array([float(r[k]) for r in rows]) for k in (-3, -2))
        classes = np.take(_CLASSES, classify_arrays(p_lower, p_upper, 0.3))
        assert [r[-1] for r in rows] == classes.tolist()

    def test_improve_after_a_noise_edit_exits_1(self, tmp_path, caplog):
        # widening both noise components after verify: improve must not run
        # the cluster pass on the old system's intervals over the new IMC
        cfg_path = tmp_path / "phased.yaml"
        text = (WORKLOADS / "additive-h200-phased.yaml").read_text() + "output_dir: out\n"
        cfg_path.write_text(text)
        for phase in ("abstract", "verify"):
            assert main([phase, "-c", str(cfg_path)]) == 0
        narrow = "{type: uniform, lo: -0.05, hi: 0.05}"
        assert text.count(narrow) == 2
        cfg_path.write_text(text.replace(narrow, "{type: uniform, lo: -0.2, hi: 0.2}"))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["improve", "-c", str(cfg_path)]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert error.startswith(f"{out / RESULTS_FILE}: ") and error.endswith("run verify again")
        assert not (out / IMPROVED_FILE).exists()
        for phase in ("verify", "improve"):
            assert main([phase, "-c", str(cfg_path)]) == 0
        assert main(["run", "-c", str(cfg_path), "--output-dir", str(tmp_path / "fresh")]) == 0
        for name in (RESULTS_FILE, IMPROVED_FILE):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_hand_edited_bounds_are_refused(self, tmp_path, caplog):
        # raising one p_lower by 0.05, still below its p_upper, is a claim
        # verify did not make: improve and simulate refuse the table
        cfg_path = write_toy(tmp_path, passes=1)
        assert main(["verify", "-c", str(cfg_path)]) == 0
        table = tmp_path / "out" / RESULTS_FILE
        lines = table.read_text().splitlines()
        k, row = next((k, line.split(",")) for k, line in enumerate(lines)
                      if k and float(line.split(",")[-3]) + 0.05 < float(line.split(",")[-2]))
        row[-3] = repr(float(row[-3]) + 0.05)
        lines[k] = ",".join(row)
        table.write_text("\n".join(lines) + "\n")
        for phase in ("improve", "simulate"):
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="imcverify"):
                assert main([phase, "-c", str(cfg_path)]) == 1
            (error,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
            assert error.startswith(f"{table}: "), phase
        assert not (tmp_path / "out" / IMPROVED_FILE).exists()
        assert not (tmp_path / "out" / TRAJECTORIES_FILE).exists()

    def test_stamps_tie_the_tables_to_the_config_and_posterior_table(self, tmp_path, caplog):
        # each stamp is the sha256 of the config file, the posterior table and
        # the result table, in that order; an edit of the posterior table
        # between verify and improve is refused
        text = ADDITIVE_2D.format(table="posterior_table: table.csv\ncluster:\n  passes: 1",
                                  outdir="out")
        cfg_path = tmp_path / "table.yaml"
        cfg_path.write_text(text)
        cfg = load_config(cfg_path)
        part = partition_domain(*cfg.domain, cfg.grid)
        lo, hi = g_image(cfg.model, part.corners(np.arange(part.n_cells)))
        write_posterior_table((lo, hi), tmp_path / "table.csv")
        for phase in ("verify", "improve"):
            assert main([phase, "-c", str(cfg_path)]) == 0
        out = tmp_path / "out"
        config, table = cfg_path.read_bytes(), (tmp_path / "table.csv").read_bytes()
        for name in (RESULTS_FILE, IMPROVED_FILE):
            digest = hashlib.sha256(config + table + (out / name).read_bytes()).hexdigest()
            assert (out / f"{name}.stamp").read_text() == digest + "\n", name
        improved = (out / IMPROVED_FILE).read_bytes()
        write_posterior_table((lo - 0.01, hi), tmp_path / "table.csv")  # wider, still sound
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["improve", "-c", str(cfg_path)]) == 1
        assert f"{out / RESULTS_FILE}: " in caplog.text
        assert (out / IMPROVED_FILE).read_bytes() == improved  # not rewritten

    def test_config_built_in_code_cannot_reload(self, tmp_path):
        # a config built in code has no source bytes to tie a table to: its
        # verify writes no stamp, and it reloads no table, stamped or not
        cfg_path = write_toy(tmp_path, passes=1)
        in_code = dataclasses.replace(load_config(cfg_path))
        out = tmp_path / "out"
        for verifier in (in_code, load_config(cfg_path)):
            run_pipeline(verifier, phases=("verify",))
            assert (out / f"{RESULTS_FILE}.stamp").exists() == (verifier.source is not None)
            for phase in ("improve", "simulate"):
                with pytest.raises(InputError, match=re.escape(f"{out / RESULTS_FILE}: ")):
                    run_pipeline(in_code, phases=(phase,))
        assert not (out / IMPROVED_FILE).exists()

    def test_config_changed_in_code_reloads_no_table(self, tmp_path):
        # dataclasses.replace makes a config that need not describe the
        # file's bytes: it keeps none, so its verify stamps no table and the
        # file's own config refuses the 8-cell table for its 4 cells
        cfg_path = write_toy(tmp_path, passes=1)
        changed = dataclasses.replace(load_config(cfg_path), grid=(8,))
        assert changed.source is None
        run_pipeline(changed, phases=("verify",))
        with pytest.raises(InputError, match=re.escape(f"{tmp_path / 'out' / RESULTS_FILE}: ")):
            run_pipeline(load_config(cfg_path), phases=("improve",))

    def test_config_assigned_in_code_reloads_no_table(self, tmp_path):
        # so does a loaded config with a field assigned, output_dir aside,
        # which does not change the results
        cfg_path = write_toy(tmp_path, passes=1)
        moved = load_config(cfg_path)
        moved.output_dir = tmp_path / "moved"
        assert moved.source == cfg_path.read_bytes()
        changed = load_config(cfg_path)
        changed.grid = (8,)
        assert changed.source is None
        run_pipeline(changed, phases=("verify",))
        assert not (tmp_path / "out" / f"{RESULTS_FILE}.stamp").exists()
        with pytest.raises(InputError, match=re.escape(f"{tmp_path / 'out' / RESULTS_FILE}: ")):
            run_pipeline(load_config(cfg_path), phases=("improve",))

    def test_verify_without_abstract_builds_the_abstraction(self, tmp_path):
        cfg_path = write_toy(tmp_path, outdir="fresh")
        assert main(["verify", "-c", str(cfg_path)]) == 0
        assert main(["run", "-c", str(cfg_path), "--output-dir", str(tmp_path / "run")]) == 0
        results = (tmp_path / "fresh" / RESULTS_FILE).read_bytes()
        assert results == (tmp_path / "run" / RESULTS_FILE).read_bytes()
        assert not (tmp_path / "fresh" / IMC_FILE).exists()

    def test_verify_then_improve_without_abstract_export_the_bytes_of_run(self, tmp_path):
        # improve builds its own abstraction too; on this config the pass
        # improves some states, so the improved table is not the verified one
        cfg_path = tmp_path / "paper.yaml"
        cfg_path.write_text(PAPER_2D.replace("output_dir: out", "output_dir: fresh")
                            + "cluster:\n  passes: 1\n")
        for phase in ("verify", "improve"):
            assert main([phase, "-c", str(cfg_path)]) == 0
        assert main(["run", "-c", str(cfg_path), "--output-dir", str(tmp_path / "run")]) == 0
        fresh, run = tmp_path / "fresh", tmp_path / "run"
        for name in (RESULTS_FILE, IMPROVED_FILE):
            assert (fresh / name).read_bytes() == (run / name).read_bytes(), name
        assert (run / IMPROVED_FILE).read_bytes() != (run / RESULTS_FILE).read_bytes()
        assert not (fresh / IMC_FILE).exists()

    def test_verify_after_a_noise_edit_exports_the_edited_system(self, tmp_path):
        # the imc.csv of the old noise stays on disk, but verify bounds the
        # configured system: widening both components changes the verdicts
        cfg_path = tmp_path / "phased.yaml"
        text = (WORKLOADS / "additive-h200-phased.yaml").read_text() + "output_dir: out\n"
        cfg_path.write_text(text)
        assert main(["abstract", "-c", str(cfg_path)]) == 0
        narrow = "{type: uniform, lo: -0.05, hi: 0.05}"
        assert text.count(narrow) == 2
        cfg_path.write_text(text.replace(narrow, "{type: uniform, lo: -0.2, hi: 0.2}"))
        assert main(["verify", "-c", str(cfg_path)]) == 0
        assert main(["run", "-c", str(cfg_path), "--output-dir", str(tmp_path / "fresh")]) == 0
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert (out / RESULTS_FILE).read_bytes() == (fresh / RESULTS_FILE).read_bytes()
        phased, run = (json.loads((d / SUMMARY_FILE).read_text()) for d in (out, fresh))
        assert phased["classification"] == run["classification"]
        assert phased["provenance"]["config_sha256"] == run["provenance"]["config_sha256"]

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("domain: 3\n")
        assert main(["run", "-c", str(path)]) == 1

    def test_soundness_error_exit_code(self, tmp_path, monkeypatch):
        from imcverify import cli
        from imcverify.errors import SoundnessError

        def boom(config, phases):
            raise SoundnessError("row 0 violated")

        monkeypatch.setattr(cli, "run_pipeline", boom)
        cfg_path = write_toy(tmp_path)
        assert main(["run", "-c", str(cfg_path)]) == 2

    def test_evaluation_overflow_exit_code(self, tmp_path, caplog, capsys):
        # exp(1000*x1) overflows to inf on the upper cells: a named input
        # error with exit code 1, not an uncaught exception
        path = tmp_path / "overflow.yaml"
        path.write_text(
            TOY_1D.format(passes=0, mc="false", outdir="out").replace(
                '"x1 + w1"', '"exp(1000*x1) + w1"'
            )
        )
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["abstract", "-c", str(path)]) == 1
        (error,) = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert error.getMessage().startswith("component 1: ")
        assert "not a finite interval" in error.getMessage()
        assert error.exc_info is None
        assert "Traceback" not in capsys.readouterr().err

    def test_multiplicative_positivity_validated(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            """\
domain: [[-0.5, 1.0]]
grid: [2]
dynamics:
  expressions: ["0.5*x1 + 0.6"]
  structure: multiplicative
noise:
  components:
    - {type: uniform, lo: 0.9, hi: 1.1}
labels:
  goal: [[[0.25, 1.0]]]
output_dir: out
"""
        )
        with pytest.raises(InputError, match="strictly positive domain"):
            load_config(path)

    def test_nonpositive_multiplicative_posterior_exits_1(self, tmp_path, caplog, capsys):
        # on a positive domain 0.7*x1 - 0.4*x2 spans [-0.005, 0.215] on cell 0:
        # one short error naming the cell, the component and its interval
        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D.replace('"0.7*x1 + 0.1*x2"', '"0.7*x1 - 0.4*x2"'))
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["run", "-c", str(path)]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(error) < 200
        assert "cell 0 has component 1 in [-0.005, 0.215]" in error
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "phase, key", [("improve", "cluster.passes is 0"), ("simulate", "monte_carlo.enabled is false")]
    )
    def test_skipped_phase_says_so(self, tmp_path, caplog, phase, key):
        path = write_toy(tmp_path, passes=0, mc="false")
        assert main(["abstract", "-c", str(path)]) == 0
        assert main(["verify", "-c", str(path)]) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="imcverify"):
            assert main([phase, "-c", str(path)]) == 0
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert info == [f"{phase}: skipped, as {key}",
                        "artifacts written to the configured output directory"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            IMC_FILE, LABELS_FILE, RESULTS_FILE, f"{RESULTS_FILE}.stamp", SUMMARY_FILE]

    def test_help_lists_each_subcommand_once(self, capsys):
        # one table maps each subcommand to its phases and help: the help
        # prints what a parser with the commands listed by hand prints
        reference = argparse.ArgumentParser(prog="imcverify", description=(
            "Sound interval Markov chain abstraction and reach-avoid "
            "verification of stochastic systems"))
        sub = reference.add_subparsers(dest="command", required=True)
        for name, help_text in [
            ("run", "full pipeline: abstract, verify, improve, simulate"),
            ("abstract", "build the IMC from the config and export it"),
            ("verify", "robust value iteration on the IMC of the config"),
            ("improve", "the cluster pass over verify's stamped results.csv"),
            ("simulate", "Monte Carlo validation of the stamped result table"),
        ]:
            p = sub.add_parser(name, help=help_text)
            p.add_argument("-c", "--config", required=True, help="path to the YAML config")
            p.add_argument("--output-dir", default=None, help="override the output directory")
            p.add_argument("--seed", type=int, default=None, help="override the Monte Carlo seed")
            p.add_argument("-v", "--verbose", action="count", default=0)
        for command in ([], ["run"], ["abstract"], ["verify"], ["improve"], ["simulate"]):
            printed = []
            for parse in (main, reference.parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse([*command, "-h"])
                assert exc.value.code == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1], command
        phases = {name: cli._build_parser().parse_args([name, "-c", "x"]).phases
                  for name in ("run", "abstract", "verify", "improve", "simulate")}
        assert phases == {"run": ("abstract", "verify", "improve", "simulate"),
                          "abstract": ("abstract",), "verify": ("verify",),
                          "improve": ("improve",), "simulate": ("simulate",)}

    @pytest.mark.parametrize(
        "args, message",
        [
            (["run", "-c", "CFG", "--seed", "-1"], "--seed: must be an integer >= 0, got -1"),
            (["run", "-c", "CFG", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
            (["run", "-c", "CFG", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
            (["run"], "the following arguments are required: -c/--config"),
        ],
        ids=["negative-seed", "seed-not-an-integer", "unknown-flag", "missing-config"],
    )
    def test_bad_arguments_are_input_errors(self, tmp_path, caplog, capsys, args, message):
        # exit code 2 is reserved for internal soundness errors
        cfg_path = write_toy(tmp_path)
        argv = [str(cfg_path) if a == "CFG" else a for a in args]
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert _exit_code(argv) == 1
        assert message in caplog.text + capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any phase ran

    @pytest.mark.parametrize(
        "args, plain",
        [
            (["run", "-c", "CFG"], True),
            (["abstract", "--config", "CFG", "--output-dir", "OUT", "--seed", "3", "-v"], True),
            (["verify", "-v", "--seed", "3", "--config", "CFG"], True),
            (["improve", "--output-dir", "OUT", "-c", "CFG", "--verbose"], True),
            (["simulate", "--seed", "12", "--verbose", "-c", "CFG", "--output-dir", "OUT"], True),
            (["run", "-c", "CFG", "--seed", "0"], True),
            (["run", "-c", "CFG", "--seed", "007"], True),
            (["run", "-c", "CFG", "--seed", "-1"], False),
            (["run", "-c", "CFG", "--seed", "abc"], False),
            (["run", "-c", "CFG", "--seed", "1_000"], False),
            (["run", "-c", "CFG", "--seed", "\N{SUPERSCRIPT TWO}"], False),
            (["run", "-c", "CFG", "--seed"], False),
            (["run", "-c", "CFG", "--output-dir", "-v"], False),
            (["run", "-c", "CFG2", "-c", "CFG"], True),
            (["run", "-c", "CFG", "-v"], True),
            (["run", "-c", "CFG", "-vv"], False),
            (["run", "-c", "CFG", "--verbose", "--verbose"], True),
            (["run", "-c", "CFG", "--seed=7"], False),
            (["run", "-cCFG"], False),
            (["run", "-c", "CFG", "--out", "OUT"], False),
            (["run", "--", "-c", "CFG"], False),
            (["run", "-c", "CFG", "--"], False),
            (["run", "-c", "CFG", "extra"], False),
            (["run", "--seed", "3"], False),
            (["run"], False),
            (["run", "-c", "CFG", "-h"], False),
            (["-h"], False),
            (["-c", "CFG", "run"], False),
            (["check", "-c", "CFG"], False),
            ([], False),
        ],
    )
    def test_plain_reader_agrees_with_argparse(self, tmp_path, monkeypatch, capsys, args, plain):
        # main reads a plain command line without argparse: it must read what
        # argparse reads, and leave every other line, usage errors and help
        # included, to argparse, whose exit code and message main then gives
        cfg, cfg2 = write_toy(tmp_path), tmp_path / "other.yaml"
        cfg2.write_text(cfg.read_text().replace("seed: 5", "seed: 6"))
        paths = {"CFG": str(cfg), "CFG2": str(cfg2), "OUT": str(tmp_path / "elsewhere")}
        argv = [re.sub("CFG2|CFG|OUT", lambda m: paths[m.group()], a) for a in args]
        try:
            parsed = vars(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            parsed = exc.code
        printed = capsys.readouterr()
        read = cli._read_plain(argv)
        assert (read is not None) == plain
        if read is not None:
            assert vars(read) == parsed

        loaded, ran = [], []
        monkeypatch.setattr(cli, "load_config", lambda path: loaded.append(path) or load_config(path))
        monkeypatch.setattr(cli, "run_pipeline", lambda config, phases: ran.append((config, phases)) or {})
        code = _exit_code(argv)
        if not isinstance(parsed, dict):  # argparse exited, and so does main
            assert (code, capsys.readouterr()) == (parsed, printed) and not loaded
        elif parsed["seed"] is not None and parsed["seed"] < 0:
            assert code == 1 and not ran
        else:
            ((config, phases),) = ran
            assert code == 0 and loaded == [parsed["config"]] and phases == parsed["phases"]
            assert config.output_dir == (Path(parsed["output_dir"]) if parsed["output_dir"]
                                         else tmp_path / "out")
            assert config.monte_carlo.seed == (5 if parsed["seed"] is None else parsed["seed"])

    def test_a_plain_run_loads_no_unneeded_module(self, tmp_path):
        # no phase needs scipy.special, and a plain command line needs no
        # argparse, nor the gettext and locale its help strings would load
        modules = ["scipy.special", "argparse", "gettext", "locale"]
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        cfg = write_toy(tmp_path, mc="false")
        code = ("import sys, imcverify.cli\n"
                f"loaded = [m for m in {modules!r} if m in sys.modules]\n"
                f"assert imcverify.cli.main(['verify', '-c', {str(cfg)!r}]) == 0\n"
                f"print(*loaded, '|', *[m for m in {modules!r} if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=120, check=True)
        assert result.stdout.split() == ["|"]
        assert (tmp_path / "out" / RESULTS_FILE).exists()

    def test_public_api(self):
        # one array API: bounds are pair_bounds over CellPosteriors, boxes are
        # (lo, hi) arrays, cut points are arrays, and no one-box or per-entry
        # wrapper is exported
        import imcverify

        assert imcverify.__all__ == [
            "DynamicsModel", "Imc", "Mixture", "NoiseModel", "ReachAvoidSpec",
            "RunConfig", "StatePartition", "Trajectory", "TruncatedGaussian", "Uniform",
            "VerificationResult", "build_imc", "cell_posteriors", "cluster_improve",
            "enclosure", "estimate_satisfaction", "eval_point", "load_config",
            "optimal_partition_affine", "optimal_partition_multiplicative", "pair_bounds",
            "parse_dynamics", "partition_domain", "robust_value_iteration", "run_pipeline",
        ]

    def test_gaussian_config_runs_every_phase_without_scipy(self, tmp_path):
        # the truncated Gaussian's erf and quantile are ports with scipy's
        # bits: with scipy blocked, run and each phase of a Gaussian config
        # work and export the bytes of a run in a process that has scipy
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D + "cluster:\n  passes: 1\n")
        code = ["import sys; sys.modules['scipy'] = None", "from imcverify.cli import main"]
        for out, phases in (("blocked-run", ["run"]),
                            ("blocked-phased", ["abstract", "verify", "improve", "simulate"])):
            code += [f"assert main([{p!r}, '-c', {str(path)!r}, '--output-dir', "
                     f"{str(tmp_path / out)!r}]) == 0" for p in phases]
        subprocess.run([sys.executable, "-c", "\n".join(code)], env=env, timeout=120, check=True)
        assert main(["run", "-c", str(path), "--output-dir", str(tmp_path / "free")]) == 0
        exports = sorted(p.name for p in (tmp_path / "free").glob("*.csv"))
        assert TRAJECTORIES_FILE in exports and IMPROVED_FILE in exports
        for out in ("blocked-run", "blocked-phased"):
            assert sorted(p.name for p in (tmp_path / out).glob("*.csv")) == exports
            for name in exports:
                assert (tmp_path / out / name).read_bytes() == (tmp_path / "free" / name).read_bytes()

    def test_uniform_config_runs_and_simulates_without_scipy(self, tmp_path):
        # with uniform noise nothing needs scipy: a run works with scipy
        # blocked, and a phased simulate (Clopper-Pearson intervals
        # included) leaves scipy.special unloaded
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        path = tmp_path / "toy.yaml"
        path.write_text(TOY_1D.format(passes=1, mc="true", outdir=tmp_path / "out"))

        def run(code):
            code += "\nimport sys; print('scipy.special' in sys.modules)"
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            return out.stdout.split()[-1] == "True"

        def phase(name):
            return f"from imcverify.cli import main\nassert main([{name!r}, '-c', {str(path)!r}]) == 0"

        assert not run("import sys; sys.modules['scipy'] = None\n" + phase("run"))
        assert not run(phase("simulate"))
        validation = json.loads((tmp_path / "out" / SUMMARY_FILE).read_text())["phases"]["simulate"]
        assert len(validation["validation"]) == 4 and validation["all_sound"] is True

    def test_phased_improve_does_not_load_numpy_ma(self, tmp_path):
        # reloading results.csv must not import numpy.ma (np.setdiff1d would),
        # about 18 ms per process
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        path = tmp_path / "toy.yaml"
        path.write_text(TOY_1D.format(passes=1, mc="false", outdir=tmp_path / "out"))
        for phase in ("abstract", "verify"):
            assert main([phase, "-c", str(path)]) == 0
        code = ("import sys\nfrom imcverify.cli import main\n"
                f"assert main(['improve', '-c', {str(path)!r}]) == 0\n"
                "sys.exit('numpy.ma' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
        assert (tmp_path / "out" / IMPROVED_FILE).exists()

    @pytest.mark.parametrize(
        "workload", ["paper-mult-40", "general-sin-20", "additive-h200-phased", "mixture-mc-h30"])
    def test_config_digest_is_the_sha256_of_the_config_bytes(self, tmp_path, workload):
        path = WORKLOADS / f"{workload}.yaml"
        config = load_config(path)
        config.output_dir = tmp_path
        summary = run_pipeline(config, phases=())
        assert summary["provenance"]["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_run_without_monte_carlo_does_not_load_hashlib(self, tmp_path):
        # the config digest comes from the interpreter's builtin SHA-256:
        # hashlib's OpenSSL would add about 2 MB to a run's peak RSS
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        path = WORKLOADS / "additive-h200-phased.yaml"
        assert not load_config(path).monte_carlo.enabled
        code = ("import sys\nfrom pathlib import Path\n"
                "from imcverify.config import load_config\n"
                "from imcverify.pipeline import run_pipeline\n"
                f"config = load_config({str(path)!r})\n"
                f"config.output_dir = Path({str(tmp_path)!r})\n"
                "print(run_pipeline(config)['provenance']['config_sha256'])\n"
                "print('hashlib' in sys.modules, '_hashlib' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        digest, loaded = out.stdout.splitlines()[-2:]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded == "False False"
        assert (tmp_path / RESULTS_FILE).exists()

    def test_builtin_sha256_of_other_interpreters(self):
        # _sha256_hex names the builtin module of each Python version
        # (_sha2 from 3.12, _sha256 before): run its source, which needs no
        # numpy, in every other CPython 3.10+ that can be found
        data = (WORKLOADS / "paper-mult-40.yaml").read_bytes()
        code = (inspect.getsource(_sha256_hex) + "import sys\n"
                f"print(_sha256_hex({data!r}), 'hashlib' in sys.modules)")
        root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
        candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
        candidates += sorted(str(p) for p in root.glob("versions/3.*/bin/python3"))
        checked = set()
        for exe in filter(None, candidates):
            probe = subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                                   capture_output=True, text=True, timeout=60)
            version = tuple(map(int, probe.stdout.split())) if probe.returncode == 0 else ()
            if not (3, 10) <= version != sys.version_info[:2] or version in checked:
                continue
            out = subprocess.run([exe, "-c", code], capture_output=True, text=True,
                                 timeout=60, check=True)
            assert out.stdout.split() == [hashlib.sha256(data).hexdigest(), "False"], exe
            checked.add(version)
        if not checked:
            pytest.skip("no other CPython 3.10+ found")

    def test_posterior_table_from_computed_posteriors(self, tmp_path, caplog):
        # the data-driven path: a table holding the computed g(q) gives the
        # same abstraction as the run that computes it
        (tmp_path / "computed.yaml").write_text(ADDITIVE_2D.format(table="", outdir="computed"))
        cfg = load_config(tmp_path / "computed.yaml")
        part = partition_domain(*cfg.domain, cfg.grid)
        cells = part.corners(np.arange(part.n_cells))
        lo, hi = g_image(cfg.model, cells)
        write_posterior_table((lo, hi), tmp_path / "table.csv")
        (tmp_path / "table.yaml").write_text(
            ADDITIVE_2D.format(table="posterior_table: table.csv", outdir="from_table")
        )
        assert main(["abstract", "-c", str(tmp_path / "computed.yaml")]) == 0
        assert main(["abstract", "-c", str(tmp_path / "table.yaml")]) == 0
        for name in (IMC_FILE, LABELS_FILE):
            computed = (tmp_path / "computed" / name).read_bytes()
            assert (tmp_path / "from_table" / name).read_bytes() == computed
        table = tmp_path / "table.csv"
        lines = table.read_text().splitlines()
        table.write_text("\n".join(lines[:3] + ["16,0,0.0,0.1"] + lines[3:]) + "\n")
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["abstract", "-c", str(tmp_path / "table.yaml")]) == 1
        assert "table.csv:4: state index out of range" in caplog.text

    def test_no_phase_after_abstract_runs_without_the_posterior_table(self, tmp_path, caplog):
        # verify and improve bound transitions with it, and improve and
        # simulate check the stamp of results.csv against it
        text = ADDITIVE_2D.format(
            table="posterior_table: table.csv\ncluster:\n  passes: 1", outdir="out"
        ).replace("  enabled: false", "  trajectories: 20\n  cells: [0, 5]")
        (tmp_path / "table.yaml").write_text(text)
        cfg = load_config(tmp_path / "table.yaml")
        part = partition_domain(*cfg.domain, cfg.grid)
        cells = part.corners(np.arange(part.n_cells))
        lo, hi = g_image(cfg.model, cells)
        write_posterior_table((lo, hi), tmp_path / "table.csv")
        argv = ["-c", str(tmp_path / "table.yaml")]
        for phase in ("abstract", "verify"):
            assert main([phase, *argv]) == 0
        (tmp_path / "table.csv").unlink()
        for phase in ("verify", "improve", "simulate"):
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="imcverify"):
                assert main([phase, *argv]) == 1
            (error,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
            assert error == f"{tmp_path / 'table.csv'}: file does not exist"

    @pytest.mark.parametrize("case", ["config-is-a-directory", "table-is-a-directory",
                                      "output-dir-is-a-file", "output-dir-under-a-file"])
    def test_unusable_paths_exit_1_without_a_traceback(self, tmp_path, caplog, capsys, case):
        # an OSError on the config, the posterior table or the output
        # directory is an input error naming the path: one ERROR line, exit 1,
        # and nothing written
        adir, afile = tmp_path / "adir", tmp_path / "afile"
        adir.mkdir()
        afile.write_text("kept\n")
        cfg, table_cfg = write_toy(tmp_path), tmp_path / "table.yaml"
        table_cfg.write_text(ADDITIVE_2D.format(table=f"posterior_table: {adir}", outdir="out"))
        argv, path, reason = {
            "config-is-a-directory": (["run", "-c", adir], adir, "Is a directory"),
            "table-is-a-directory": (["abstract", "-c", table_cfg], adir, "Is a directory"),
            "output-dir-is-a-file": (["run", "-c", cfg, "--output-dir", afile], afile, "File exists"),
            "output-dir-under-a-file": (["run", "-c", cfg, "--output-dir", afile / "sub"],
                                        afile / "sub", "Not a directory"),
        }[case]
        before = sorted(tmp_path.rglob("*"))
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main([str(a) for a in argv]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert str(path) in error and error.endswith(reason)
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert afile.read_text() == "kept\n"

    def test_missing_posterior_table_exits_1(self, tmp_path, caplog):
        path = tmp_path / "absent.yaml"
        absent = tmp_path / "absent.csv"
        path.write_text(ADDITIVE_2D.format(table=f"posterior_table: {absent}", outdir="out"))
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["abstract", "-c", str(path)]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert error == f"{absent}: file does not exist"

    def test_non_utf8_posterior_table_names_its_line(self, tmp_path, caplog):
        # an undecodable byte is an input error at its line, not a bare UnicodeDecodeError
        path = tmp_path / "table.yaml"
        path.write_text(ADDITIVE_2D.format(table="posterior_table: table.csv", outdir="out"))
        (tmp_path / "table.csv").write_bytes(b"state,component,lo,hi\n0,0,0.\xff,0.5\n")
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["abstract", "-c", str(path)]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert error == f"{tmp_path / 'table.csv'}:2: not UTF-8 text (byte 0xff)"
        assert not (tmp_path / "out").exists()

    def test_run_opens_the_posterior_table_once(self, tmp_path):
        # one process reads the table once, for the posteriors of abstract
        # and improve and for both stamps; an audit hook counts the opens,
        # in a subprocess, since a hook cannot be removed
        text = ADDITIVE_2D.format(table="posterior_table: table.csv\ncluster:\n  passes: 1",
                                  outdir="out")
        cfg_path = tmp_path / "table.yaml"
        cfg_path.write_text(text)
        cfg = load_config(cfg_path)
        part = partition_domain(*cfg.domain, cfg.grid)
        table = tmp_path / "table.csv"
        write_posterior_table(g_image(cfg.model, part.corners(np.arange(16))), table)
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import os, sys\nfrom imcverify.cli import main\nopens = []\n"
                "def hook(event, args):\n"
                "    if event == 'open' and isinstance(args[0], (str, os.PathLike)):\n"
                f"        opens.append(os.fspath(args[0]) == {str(table)!r})\n"
                "sys.addaudithook(hook)\n"
                f"status = main(['run', '-c', {str(cfg_path)!r}])\n"
                "print(status, sum(opens))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.split() == ["0", "1"]
        assert (tmp_path / "out" / f"{IMPROVED_FILE}.stamp").exists()

    def test_verify_builds_the_noise_grid_once_and_simulate_never(self, tmp_path, monkeypatch):
        from imcverify import pipeline

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return cell_posteriors(*args, **kwargs)

        path = tmp_path / "general.yaml"
        w1 = "{type: uniform, lo: -0.1, hi: 0.1}"
        path.write_text(GENERAL_2D.format(w1=w1) + "cluster:\n  passes: 1\n")
        assert main(["abstract", "-c", str(path)]) == 0
        monkeypatch.setattr(pipeline, "cell_posteriors", counted)
        for phase, expected in (("verify", 1), ("simulate", 0), ("improve", 1)):
            calls.clear()
            assert main([phase, "-c", str(path)]) == 0
            assert len(calls) == expected, phase

    def test_output_dir_and_seed_override(self, tmp_path):
        cfg_path = write_toy(tmp_path)
        override = tmp_path / "elsewhere"
        assert main(
            ["run", "-c", str(cfg_path), "--output-dir", str(override), "--seed", "123"]
        ) == 0
        assert (override / SUMMARY_FILE).exists()
        summary = json.loads((override / SUMMARY_FILE).read_text())
        assert summary["phases"]["simulate"]["all_sound"]

    def test_summary_records_provenance_and_fixpoints(self, tmp_path):
        """The summary names the package version, the sha256 of the config
        file's bytes (null for a config built in code) and the Monte Carlo
        seed the run used (after --seed), and the sweep at which each bound
        became a bitwise fixpoint."""
        import imcverify

        cfg_path = write_toy(tmp_path, passes=0)
        digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
        assert load_config(cfg_path).source == cfg_path.read_bytes()
        for argv, seed in (([], 5), (["--seed", "123"], 123)):
            assert main(["run", "-c", str(cfg_path), *argv]) == 0
            summary = json.loads((tmp_path / "out" / SUMMARY_FILE).read_text())
            provenance = {"version": imcverify.__version__, "config_sha256": digest, "seed": seed}
            assert summary["provenance"] == provenance
        from imcverify.imc import build_imc
        from imcverify.pipeline import build_context, phase_verify

        ctx = build_context(load_config(cfg_path))
        result = phase_verify(ctx, build_imc(ctx.posteriors(), ctx.labels))
        assert result.fixpoints[0] is not None
        fixpoint_sweep = dict(zip(("lower", "upper"), result.fixpoints))
        assert summary["phases"]["verify"]["fixpoint_sweep"] == fixpoint_sweep
        # one more byte is another config, even when it loads the same
        cfg_path.write_bytes(cfg_path.read_bytes() + b"\n")
        summary = run_pipeline(load_config(cfg_path), phases=())
        assert summary["provenance"]["config_sha256"] != digest
        in_code = dataclasses.replace(load_config(cfg_path))
        assert run_pipeline(in_code, phases=())["provenance"]["config_sha256"] is None
