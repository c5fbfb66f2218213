"""CLI contract tests: key=value reports, exit codes, goldens, determinism."""

from pathlib import Path

import numpy as np
import pytest

from dhymgeo.cli import build_parser, main
from dhymgeo.config import load_problem
from dhymgeo.geodesic import solve
from dhymgeo.geometry import read_grid

from pin_geodesic import INTEGERS, NAMES, pinned_lines, read_pins

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


# A full 8 x 8 grid, whose Newton steps are solved by GMRES.
FULL_CFG = (
    "[geometry]\nn = 1\ngrid = 8 8\nalpha0 = 3\n\n"
    "[problem]\nphi1 = 0.15*cos(2*pi*x1) + 0.05*sin(2*pi*y1)\n"
    "phi2 = 0.1*sin(2*pi*x1) + 0.05\n\n"
    "[solver]\nnt = 7\nsweep_tol = 1e-12\nmax_iters = 20000\nresidual_tol = 1e-6\n"
)


def full_config(tmp_path, text=FULL_CFG):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(text)
    return str(cfg)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def grep(text, key):
    for line in text.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise KeyError(key)


class TestParser:
    def test_one_parser_serves_every_call(self, capsys):
        # main builds its parser once per process; a command run before
        # another leaves nothing behind in it
        angles = ("angles", "--matrix", str(CONFIGS / "angles_sample.mat"))
        dhym = ("dhym", "--config", str(CONFIGS / "dhym_sample.cfg"))
        for argv, golden in ((angles, "angles_sample"), (dhym, "dhym_sample"), (angles, "angles_sample")):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == (GOLDEN / f"{golden}.txt").read_text()
        assert build_parser() is build_parser()


class TestAngles:
    def test_zero_matrix(self, capsys, tmp_path):
        mat = tmp_path / "zero.mat"
        mat.write_text("0 0\n0 0\n")
        code, out, _ = run(capsys, "angles", "--matrix", str(mat))
        assert code == 0
        assert grep(out, "in_S") == "true"
        assert float(grep(out, "phi_usc")) == pytest.approx(np.pi / 2)
        assert float(grep(out, "phi_lsc")) == pytest.approx(-np.pi / 2)

    def test_identity_theta(self, capsys, tmp_path):
        mat = tmp_path / "eye.mat"
        mat.write_text("1 0\n0 1\n")
        code, out, _ = run(capsys, "angles", "--matrix", str(mat))
        assert code == 0
        assert float(grep(out, "theta")) == pytest.approx(np.pi / 2)

    def test_golden(self, capsys):
        # angles_edge writes bare i, -i, signed exponents and a U+2212 minus
        for name in ("angles_sample", "angles_edge"):
            code, out, _ = run(capsys, "angles", "--matrix", str(CONFIGS / f"{name}.mat"))
            assert code == 0
            assert out == (GOLDEN / f"{name}.txt").read_text(), name

    def test_bad_matrix_exit_2(self, capsys, tmp_path):
        mat = tmp_path / "bad.mat"
        mat.write_text("1 2\n3\n")
        code, _, err = run(capsys, "angles", "--matrix", str(mat))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_matrix_exit_2(self, capsys, tmp_path, bad):
        mat = tmp_path / "bad.mat"
        mat.write_text(f"1 {bad}\n{bad} 2\n")
        code, out, err = run(capsys, "angles", "--matrix", str(mat))
        assert code == 2
        assert "non-finite" in err
        assert out == ""

    def test_negative_eps_singular_exit_2(self, capsys):
        code, out, err = run(
            capsys, "angles", "--matrix", str(CONFIGS / "angles_sample.mat"), "--eps-singular", "-1"
        )
        assert code == 2
        assert out == ""
        assert "--eps-singular must be >= 0" in err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("2 1+1i\n1-1i 3\n"))
        code, out, _ = run(capsys, "angles", "--matrix", "-")
        assert code == 0
        assert float(grep(out, "theta")) == pytest.approx(
            np.arctan(np.linalg.eigvalsh([[2, 1 + 1j], [1 - 1j, 3]])).sum()
        )


class TestFuzzCommand:
    def test_convexity_pass(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--suite", "convexity", "--trials", "1500", "--n", "1"
        )
        assert code == 0
        assert grep(out, "status") == "pass"
        assert grep(out, "violations") == "0"

    def test_negative_control_passes_by_finding_violations(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--suite", "convexity-negative", "--trials", "2000"
        )
        assert code == 0
        assert int(grep(out, "violations")) > 0

    def test_convexity_reports_candidates_drawn(self, capsys):
        # 2000 trials need 4000 members; at acceptance p about
        # 4000 / p candidates are drawn and lifted
        _, out, _ = run(capsys, "fuzz", "--suite", "convexity-negative", "--trials", "2000")
        drawn = int(grep(out, "drawn"))
        assert 4000 <= drawn < 2 * 4000 / float(grep(out, "acceptance_rate"))

    def test_duality_and_positivity(self, capsys):
        for suite in ("duality", "positivity"):
            code, out, _ = run(
                capsys, "fuzz", "--suite", suite, "--trials", "1500", "--n", "2"
            )
            assert code == 0, suite
            assert grep(out, "violations") == "0"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_fewer_than_one_trial_exit_2(self, capsys, trials):
        code, out, err = run(capsys, "fuzz", "--suite", "convexity", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "trials must be at least 1" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--suite", "duality", "--n", "0"), "spatial dimension must be >= 1"),
            (("--suite", "positivity", "--threads", "-2"), "threads must be at least 1"),
            (("--suite", "duality", "--eps-singular", "-1"), "--eps-singular must be >= 0"),
        ],
        ids=["n-0", "threads-negative", "eps-negative"],
    )
    def test_meaningless_input_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "fuzz", "--trials", "10", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_negative_control_honours_explicit_n(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--suite", "convexity-negative", "--n", "1", "--trials", "2000"
        )
        assert code == 0
        assert grep(out, "n") == "1"

    def test_deterministic_output(self, capsys):
        args = ("fuzz", "--suite", "convexity", "--trials", "1000", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestDhymCommand:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "dhym", "--config", str(CONFIGS / "dhym_sample.cfg"))
        assert code == 0
        assert out == (GOLDEN / "dhym_sample.txt").read_text()

    def test_zero_background(self, capsys, tmp_path):
        cfg = tmp_path / "z.cfg"
        cfg.write_text("[geometry]\nn = 1\ngrid = 8 8\nalpha0 = 0\n")
        code, out, _ = run(capsys, "dhym", "--config", str(cfg))
        assert code == 0
        assert float(grep(out, "hat_theta")) == 0.0

    def test_unknown_geometry_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        text = (CONFIGS / "dhym_sample.cfg").read_text()
        cfg.write_text(text.replace("alpha0 = 3", "alpha_0 = 3"))
        code, out, err = run(capsys, "dhym", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown key 'alpha_0' in [geometry]" in err

    @pytest.mark.parametrize("expr", ["1e400*0", "1e400*x1", "sin(1e400)", "-1e400"])
    def test_non_finite_field_exit_2(self, capsys, tmp_path, expr):
        # NaN used to reach the angle code, which printed a numpy warning and
        # then "cannot convert float NaN to integer"
        cfg = tmp_path / "nan.cfg"
        text = (CONFIGS / "dhym_sample.cfg").read_text()
        cfg.write_text(text.replace("psi_alpha = 0.05*cos(2*pi*x1)", f"psi_alpha = {expr}"))
        code, out, err = run(capsys, "dhym", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: psi_alpha is not finite on the whole grid: {expr!r}\n"

    @pytest.mark.parametrize("expr", ["True", "0.1*False", "0.1 + True*cos(2*pi*x1)"])
    def test_bool_constant_exit_2(self, capsys, tmp_path, expr):
        # the grammar used to read True as 1.0
        cfg = tmp_path / "bool.cfg"
        text = (CONFIGS / "dhym_sample.cfg").read_text()
        cfg.write_text(text.replace("phi = 0.1*sin(2*pi*x1)", f"phi = {expr}"))
        code, out, err = run(capsys, "dhym", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "bad constant" in err and "in field expression" in err

    @pytest.mark.parametrize(
        "command, config, line, key",
        [
            ("dhym", "dhym_sample", "phi = True", "phi"),
            ("geodesic", "geodesic_sample", "phi1 = z", "phi1"),
            ("dhym", "dhym_sample", "psi_alpha = 1/x1", "psi_alpha"),
        ],
    )
    def test_field_error_names_its_key(self, capsys, tmp_path, command, config, line, key):
        cfg = tmp_path / "field.cfg"
        lines = (CONFIGS / f"{config}.cfg").read_text().splitlines()
        cfg.write_text("\n".join(line if old.startswith(f"{key} =") else old for old in lines))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key}: ") and "field expression" in err

    def test_sample_potential_is_read(self, capsys, tmp_path):
        # the sample's [dhym] phi changes the report against no potential
        code, out, _ = run(capsys, "dhym", "--config", str(CONFIGS / "dhym_sample.cfg"))
        assert code == 0
        cfg = tmp_path / "nophi.cfg"
        text = (CONFIGS / "dhym_sample.cfg").read_text()
        cfg.write_text(text.replace("phi = 0.1*sin(2*pi*x1)", ""))
        _, bare, _ = run(capsys, "dhym", "--config", str(cfg))
        assert grep(out, "h_margin") != grep(bare, "h_margin")

    def test_unknown_dhym_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        text = (CONFIGS / "dhym_sample.cfg").read_text()
        cfg.write_text(text.replace("phi = ", "ph = "))
        code, out, err = run(capsys, "dhym", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown key 'ph' in [dhym]" in err

    def test_writes_fields(self, capsys, tmp_path):
        out_dir = tmp_path / "fields"
        code, _, _ = run(
            capsys,
            "dhym",
            "--config",
            str(CONFIGS / "dhym_sample.cfg"),
            "--out",
            str(out_dir),
        )
        assert code == 0
        theta = read_grid(out_dir / "theta.grid")
        assert theta.shape == (16, 16)
        assert (out_dir / "residual.grid").exists()
        assert (out_dir / "dhym.txt").exists()

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "dhym", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2


class TestGeodesicCommand:
    def test_sample_passes(self, capsys, tmp_path):
        out_dir = tmp_path / "geo"
        code, out, _ = run(
            capsys,
            "geodesic",
            "--config",
            str(CONFIGS / "geodesic_sample.cfg"),
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert grep(out, "status") == "pass"
        sol = read_grid(out_dir / "solution.grid")
        assert sol.shape == (9, 16)
        lines = (out_dir / "slices.csv").read_text().splitlines()
        assert lines[0] == "t_index,t,theta_min,theta_max"
        assert len(lines) == 8  # header + 7 interior slices

    def test_constant_shift_matches_exact(self, capsys, tmp_path):
        cfg = tmp_path / "shift.cfg"
        cfg.write_text(
            "[geometry]\nn = 1\ngrid = 16\nreduced = true\nalpha0 = 3\n"
            "[problem]\nphi1 = 0.2*cos(2*pi*x1)\nphi2 = 0.2*cos(2*pi*x1) + 0.2\n"
            "[solver]\nnt = 9\nsweep_tol = 1e-13\nresidual_tol = 1e-6\n"
        )
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, "geodesic", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 0
        sol = read_grid(out_dir / "solution.grid")
        x = np.arange(16) / 16
        t = np.linspace(0, np.log(2), 9).reshape(-1, 1)
        exact = 0.2 * np.cos(2 * np.pi * x) + 0.2 * t / np.log(2)
        assert np.max(np.abs(sol - exact)) < 1e-8

    def test_grid_file_potentials(self, capsys, tmp_path):
        from dhymgeo.geometry import write_grid

        x = np.arange(16) / 16
        write_grid(tmp_path / "phi1.grid", 0.2 * np.cos(2 * np.pi * x))
        cfg = tmp_path / "gridded.cfg"
        cfg.write_text(
            "[geometry]\nn = 1\ngrid = 16\nreduced = true\nalpha0 = 3\n"
            "[problem]\nphi1 = @phi1.grid\nphi2 = 0.1\n"
            "[solver]\nnt = 9\nsweep_tol = 1e-11\n"
        )
        code, out, _ = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 0
        assert grep(out, "status") == "pass"

    def test_non_finite_grid_file_exit_2(self, capsys, tmp_path):
        from dhymgeo.geometry import write_grid

        phi = 0.2 * np.cos(2 * np.pi * np.arange(16) / 16)
        phi[5] = np.nan
        write_grid(tmp_path / "phi2.grid", phi)
        cfg = tmp_path / "gridded.cfg"
        cfg.write_text(
            "[geometry]\nn = 1\ngrid = 16\nreduced = true\nalpha0 = 3\n"
            "[problem]\nphi1 = 0.1\nphi2 = @phi2.grid\n"
            "[solver]\nnt = 9\n"
        )
        code, out, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "phi2 is not finite on the whole grid: '@phi2.grid'" in err

    def test_inadmissible_boundary_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[geometry]\nn = 1\ngrid = 16\nreduced = true\nalpha0 = 3\n"
            "[problem]\nphi1 = 3.0*cos(2*pi*x1)\nphi2 = 0\n"
            "[solver]\nnt = 9\n"
        )
        code, _, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 2
        assert "not admissible" in err

    def test_full_config_passes(self, capsys):
        cfg = str(CONFIGS / "geodesic_full.cfg")
        code, out, err = run(capsys, "geodesic", "--config", cfg)
        assert code == 0
        assert grep(out, "status") == "pass"
        assert int(grep(out, "krylov_iterations")) > 0
        assert grep(out, "check_perron") == "pass"
        removed_lines = ("mode", "solver", "omega", "rho_estimate", "plain_sweeps", "guard_sweep")
        for removed in removed_lines:
            with pytest.raises(KeyError):
                grep(out, removed)
        assert "note:" not in err
        assert run(capsys, "geodesic", "--config", cfg)[1] == out

    def test_floor_is_the_plateau_level(self, capsys, tmp_path):
        # floor= is 8 eps max(1, sup|U|) of the result the plateau test stopped at
        out_dir = tmp_path / "full"
        cfg = str(CONFIGS / "geodesic_full.cfg")
        code, out, _ = run(capsys, "geodesic", "--config", cfg, "--out", str(out_dir))
        assert code == 0 and grep(out, "stop_reason") == "plateau"
        sol = read_grid(out_dir / "solution.grid")
        floor = 8.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(sol))))
        assert grep(out, "floor") == format(floor, ".12g")
        assert float(grep(out, "perron_check")) <= float(grep(out, "floor"))

    def test_config_is_read_once(self, capsys, monkeypatch):
        from dhymgeo import config

        reads = []
        read = config._read

        def counting(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(config, "_read", counting)
        code, _, _ = run(capsys, "geodesic", "--config", str(CONFIGS / "geodesic_sample.cfg"))
        assert code == 0 and len(reads) == 1

    def test_unconverged_run_fails_perron_check(self, capsys, tmp_path):
        cfg = tmp_path / "short.cfg"
        text = (CONFIGS / "geodesic_sample.cfg").read_text()
        cfg.write_text(text.replace("max_iters = 20000", "max_iters = 2"))
        code, out, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 1
        assert grep(out, "stop_reason") == "max_iters"
        assert float(grep(out, "perron_check")) > 1e-9
        assert grep(out, "check_perron") == "fail"
        assert (
            "note: the Newton steps hit max_iters=2 before the projected distance "
            "met sweep_tol" in err
        )

    def test_plateau_stop_noted_on_stderr(self, capsys, tmp_path):
        # no step moves the grid by less than 1e-300, so the solve ends on the
        # plateau: sup|T(U) - U| at rounding, which check_perron gates, and no note
        text = FULL_CFG.replace("sweep_tol = 1e-12", "sweep_tol = 1e-300")
        code, out, err = run(capsys, "geodesic", "--config", full_config(tmp_path, text))
        assert code == 0
        assert grep(out, "stop_reason") == "plateau"
        assert grep(out, "check_perron") == "pass"
        assert "note:" not in err
        # and Newton on the reduced sample, which ends there at its own sweep_tol
        code, out, err = run(
            capsys, "geodesic", "--config", str(CONFIGS / "geodesic_sample.cfg")
        )
        assert code == 0
        assert grep(out, "stop_reason") == "plateau"
        assert "note:" not in err

    def test_generic_config_passes(self, capsys):
        # random phases put near-singular points on the grid, where the
        # residual check needs the fixed point to rounding
        code, out, _ = run(
            capsys, "geodesic", "--config", str(CONFIGS / "geodesic_generic.cfg")
        )
        assert code == 0
        assert int(grep(out, "iterations")) > 0
        assert grep(out, "check_residual") == "pass"
        assert grep(out, "status") == "pass"

    def test_singular_newton_block_exit_1(self, capsys, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        code, out, err = run(
            capsys, "geodesic", "--config", str(CONFIGS / "geodesic_sample.cfg")
        )
        assert code == 1
        assert out == ""
        assert "validation failure: singular Newton block at t row 1" in err

    @pytest.mark.parametrize("mode", ["jacobi"])
    def test_mode_flag_and_determinism(self, capsys, tmp_path, mode):
        # the report is the same from run to run and has no mode line; a
        # config that still names the removed mode key, even with the one
        # value it used to accept, is refused
        cfg = tmp_path / "named.cfg"
        text = (CONFIGS / "geodesic_sample.cfg").read_text()
        cfg.write_text(text.replace("[solver]\n", f"[solver]\nmode = {mode}\n"))
        _, out1, _ = run(capsys, "geodesic", "--config", str(CONFIGS / "geodesic_sample.cfg"))
        _, out2, _ = run(capsys, "geodesic", "--config", str(CONFIGS / "geodesic_sample.cfg"))
        assert out1 == out2
        with pytest.raises(KeyError):
            grep(out1, "mode")
        code, out3, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 2
        assert out3 == ""
        assert "unknown key 'mode' in [solver]" in err

    def test_gauss_seidel_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "gs.cfg"
        text = (CONFIGS / "geodesic_sample.cfg").read_text()
        cfg.write_text(text.replace("[solver]\n", "[solver]\nmode = gauss-seidel\n"))
        code, out, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown key 'mode' in [solver]" in err

    @pytest.mark.parametrize(
        "section, line",
        [
            ("solver", "sweep_tl = 1e-14"),
            ("problem", "phi3 = 0.1"),
            ("geometry", "alpha = 3"),
            ("solver", "bisect_tol = 0"),
        ],
        ids=["solver", "problem", "geometry", "bisect_tol"],
    )
    def test_unknown_key_exit_2(self, capsys, tmp_path, section, line):
        # a misspelt key used to run silently at the default; bisect_tol
        # bounds only the pointwise update, which a geodesic solve never calls
        cfg = tmp_path / "typo.cfg"
        text = (CONFIGS / "geodesic_sample.cfg").read_text()
        cfg.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        code, out, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 2
        assert out == ""
        key = line.split(" =")[0]
        assert f"unknown key {key!r} in [{section}]" in err

    def test_bad_boolean_exit_2(self, capsys, tmp_path):
        # any word but configparser's booleans used to read as false
        cfg = tmp_path / "bool.cfg"
        text = (CONFIGS / "geodesic_sample.cfg").read_text()
        cfg.write_text(text.replace("[solver]\n", "[solver]\ntwo_init = ture\n"))
        code, out, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "bad [solver] value for two_init: 'ture'" in err

    def test_two_init_off(self, capsys, tmp_path):
        cfg = tmp_path / "off.cfg"
        text = (CONFIGS / "geodesic_sample.cfg").read_text()
        cfg.write_text(text.replace("[solver]\n", "[solver]\ntwo_init = off\n"))
        code, out, _ = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 0
        assert grep(out, "status") == "pass"
        with pytest.raises(KeyError):
            grep(out, "two_init_discrepancy")
        with pytest.raises(KeyError):
            grep(out, "two_init_iterations")
        with pytest.raises(KeyError):
            grep(out, "check_two_init")

    def test_two_init_iterations_follow_the_discrepancy(self, capsys):
        # the second start's Newton steps, on the line after its discrepancy;
        # a reader of iterations= by prefix still gets the first start's count
        cfg = str(CONFIGS / "geodesic_sample.cfg")
        code, out, _ = run(capsys, "geodesic", "--config", cfg)
        assert code == 0
        lines = out.splitlines()
        at = lines.index("two_init_iterations=" + grep(out, "two_init_iterations"))
        assert lines[at - 1].startswith("two_init_discrepancy=")
        _, report = solve(load_problem(cfg)[0])
        assert int(grep(out, "two_init_iterations")) == len(report.details["two_init_newton_steps"]) > 0
        assert int(grep(out, "iterations")) == report.iterations

    @pytest.mark.parametrize(
        "line",
        ["sweep_tol = nan", "sweep_tol = inf", "max_iters = -1"],
        ids=lambda line: line.replace(" = ", "="),
    )
    def test_bad_solver_bound_exit_2(self, capsys, tmp_path, line):
        # a negative max_iters would never stop
        key = line.split(" =")[0]
        text = (CONFIGS / "geodesic_sample.cfg").read_text()
        kept = [ln for ln in text.splitlines() if not ln.startswith(key + " =")]
        cfg = tmp_path / "bound.cfg"
        cfg.write_text("\n".join(kept).replace("[solver]", f"[solver]\n{line}") + "\n")
        code, out, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{key} must" in err

    def test_repeated_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "twice.cfg"
        text = (CONFIGS / "geodesic_sample.cfg").read_text()
        cfg.write_text(text.replace("[solver]\n", "[solver]\nnt = 17\n"))
        code, out, err = run(capsys, "geodesic", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "error: bad config:" in err and "'nt'" in err



class TestGeodesicPins:
    """The three geodesic configs against their pins (``pin_geodesic``): the
    integer report lines and every check_ and status line exactly, the
    solution grid within 1e-13 (block Thomas and GMRES go through BLAS,
    whose kernels may round differently on other CPUs)."""

    def test_pins_cover_every_geodesic_config(self):
        assert sorted(read_pins()) == sorted(NAMES) == sorted(p.stem for p in CONFIGS.glob("geodesic_*.cfg"))

    @pytest.mark.parametrize("name", NAMES)
    def test_matches_pins(self, capsys, tmp_path, name):
        lines, grid = read_pins()[name]
        code, out, _ = run(capsys, "geodesic", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path))
        assert code == 0
        assert pinned_lines(out) == lines
        assert {line.split("=", 1)[0] for line in lines} >= set(INTEGERS)
        solution = read_grid(tmp_path / "solution.grid")
        assert solution.shape == grid.shape
        assert np.max(np.abs(solution - grid)) <= 1e-13
