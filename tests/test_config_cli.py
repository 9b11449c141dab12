import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imcverify import cli
from imcverify.cli import main
from imcverify.config import load_config
from imcverify.dynamics import posterior_f
from imcverify.errors import InputError
from imcverify.geometry import partition_domain
from imcverify.imc import PosteriorTable, write_posterior_table
from imcverify.pipeline import (
    IMC_FILE,
    IMPROVED_FILE,
    LABELS_FILE,
    RESULTS_FILE,
    SUMMARY_FILE,
    TRAJECTORIES_FILE,
    run_pipeline,
)

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
        assert cfg.structure == "additive"
        assert cfg.horizon is None
        assert cfg.threshold == 0.9

    def test_paper_config(self, tmp_path):
        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D)
        cfg = load_config(path)
        assert cfg.structure == "multiplicative"
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
        ],
    )
    def test_invalid_value_rejected(self, tmp_path, caplog, old, new, field):
        # an empty cell list would validate nothing; a uniform with lo == hi
        # is a point mass, which the noise partitions (over (lo, hi]) drop
        path = tmp_path / "bad.yaml"
        text = TOY_1D.format(passes=0, mc="true", outdir="out")
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(InputError, match=re.escape(field)):
            load_config(path)
        with caplog.at_level(logging.ERROR, logger="imcverify"):
            assert main(["run", "-c", str(path)]) == 1
        assert f"{field}: " in caplog.text

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
        imc = phase_abstract(ctx)
        # claims every state violates, but the goal cell starts in the goal
        zeros = np.zeros(imc.n_states)
        wrong = VerificationResult(zeros, zeros, ("violates",) * imc.n_states, 0, True)
        with caplog.at_level(logging.WARNING, logger="imcverify"):
            records = phase_simulate(ctx, imc, wrong)
        unsound = [r["state"] for r in records if not r["sound"]]
        assert 3 in unsound
        (warning,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert f"states {unsound}" in warning.getMessage()

    def test_cluster_pass_counts_reported(self, tmp_path):
        cfg = load_config(write_toy(tmp_path, passes=2))
        summary = run_pipeline(cfg)
        passes = summary["phases"]["improve"]["passes"]
        assert 1 <= len(passes) <= 2
        assert all("improved" in p for p in passes)

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
        cfg_path = write_toy(tmp_path, passes=1)
        assert main(["abstract", "-c", str(cfg_path)]) == 0
        assert main(["verify", "-c", str(cfg_path)]) == 0
        assert main(["improve", "-c", str(cfg_path)]) == 0
        assert main(["simulate", "-c", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in (IMC_FILE, RESULTS_FILE, IMPROVED_FILE, TRAJECTORIES_FILE):
            assert (out / name).exists()

    def test_reloaded_results_are_classified_at_current_threshold(self, tmp_path):
        cfg_path = tmp_path / "paper.yaml"
        cfg_path.write_text(PAPER_2D)
        assert main(["abstract", "-c", str(cfg_path)]) == 0
        assert main(["verify", "-c", str(cfg_path)]) == 0
        out = tmp_path / "out"
        verified = json.loads((out / SUMMARY_FILE).read_text())["classification"]["counts"]
        cfg_path.write_text(PAPER_2D.replace("threshold: 0.9", "threshold: 0.3"))
        assert main(["simulate", "-c", str(cfg_path)]) == 0
        counts = json.loads((out / SUMMARY_FILE).read_text())["classification"]["counts"]
        rows = [line.split(",") for line in (out / RESULTS_FILE).read_text().splitlines()[1:]]
        p_lower = np.array([float(r[-3]) for r in rows])
        p_upper = np.array([float(r[-2]) for r in rows])
        expected = {
            "satisfies": int(np.sum(p_lower >= 0.3)),
            "violates": int(np.sum((p_lower < 0.3) & (p_upper < 0.3))),
        }
        expected["undetermined"] = len(rows) - sum(expected.values())
        assert counts == expected
        assert counts != verified

    def test_verify_without_abstract_fails(self, tmp_path):
        cfg_path = write_toy(tmp_path, outdir="fresh")
        assert main(["verify", "-c", str(cfg_path)]) == 1

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

    def test_import_does_not_load_scipy_special(self):
        # scipy.special is imported where a truncated Gaussian or a Monte
        # Carlo interval needs it, not by every CLI process
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, imcverify.cli; sys.exit('scipy.special' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_posterior_table_from_computed_posteriors(self, tmp_path, caplog):
        # the data-driven path: a table holding the computed g(q) gives the
        # same abstraction as the run that computes it
        (tmp_path / "computed.yaml").write_text(ADDITIVE_2D.format(table="", outdir="computed"))
        cfg = load_config(tmp_path / "computed.yaml")
        part = partition_domain(cfg.domain, cfg.grid)
        boxes = [posterior_f(cfg.dynamics_model(), part.cell(i)) for i in range(part.n_cells)]
        lo, hi = (np.array(e) for e in zip(*(b.endpoints() for b in boxes)))
        write_posterior_table(PosteriorTable(lo, hi), tmp_path / "table.csv")
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

    def test_output_dir_and_seed_override(self, tmp_path):
        cfg_path = write_toy(tmp_path)
        override = tmp_path / "elsewhere"
        assert main(
            ["run", "-c", str(cfg_path), "--output-dir", str(override), "--seed", "123"]
        ) == 0
        assert (override / SUMMARY_FILE).exists()
        summary = json.loads((override / SUMMARY_FILE).read_text())
        assert summary["phases"]["simulate"]["all_sound"]
