"""Command line driver: parsing, precedence, artifacts, exit codes."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conefrac
from conefrac import liouville
from conefrac.cli import _QUAD, _Run, main
from conefrac.errors import AccuracyError
from conefrac.quadrature import DEFAULT_CONFIG, QuadratureConfig


def run_cli(tmp_path, *argv):
    """Run the driver in process, returning (exit code, outdir)."""
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_csv(path):
    """Parse one artifact into (header, rows of strings, trailer)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    trailer = lines[-1]
    rows = [ln.split(",") for ln in lines[1:-1]]
    return header, rows, trailer


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_unknown_subcommand(self):
        assert main(["nosuch", "--s", "0.5"]) == 2

    def test_missing_required_key(self, tmp_path):
        code, _ = run_cli(tmp_path, "calpha", "--s", "0.5")
        assert code == 2

    def test_flag_without_value(self):
        assert main(["calpha", "--s"]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "calpha", "--s", "0.5",
                          "--alpha", "0.25", "--bogus", "1")
        assert code == 2

    def test_key_equals_value_form(self, tmp_path):
        code, out = run_cli(tmp_path, "calpha", "--s=0.5", "--alpha=0.25")
        assert code == 0
        assert (out / "calpha.csv").exists()


class TestCalphaArtifact:
    def test_closed_value_and_trailer(self, tmp_path):
        code, out = run_cli(tmp_path, "calpha", "--s", "0.5",
                            "--alpha", "0.25")
        assert code == 0
        header, rows, trailer = read_csv(out / "calpha.csv")
        assert header == ["alpha", "s", "c_alpha", "err"]
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(-math.pi / 4.0, rel=1e-10)
        assert trailer.startswith("# seed=20220 version=")

    def test_vanishes_at_alpha_equal_s(self, tmp_path):
        code, out = run_cli(tmp_path, "calpha", "--s", "0.5",
                            "--alpha", "0.5")
        assert code == 0
        _, rows, _ = read_csv(out / "calpha.csv")
        assert abs(float(rows[0][2])) <= 1e-8

    def test_alpha_list_gives_one_row_each(self, tmp_path):
        code, out = run_cli(tmp_path, "calpha", "--s", "0.5",
                            "--alpha", "0.1,0.25,0.4")
        assert code == 0
        _, rows, _ = read_csv(out / "calpha.csv")
        assert [float(r[0]) for r in rows] == [0.1, 0.25, 0.4]


class TestEvalArtifact:
    def test_halfspace_power_closed_path(self, tmp_path):
        code, out = run_cli(tmp_path, "eval", "--s", "0.5",
                            "--x", "0.3,1.0",
                            "--function.kind", "halfspace_power",
                            "--function.alpha", "0.25")
        assert code == 0
        header, rows, _ = read_csv(out / "eval.csv")
        assert header == ["x1", "x2", "value", "err", "path"]
        assert rows[0][4] == "closed_form"
        # c_{1/4} * moment = (-pi/4) * 4 at x_N = 1
        assert float(rows[0][2]) == pytest.approx(-math.pi, rel=1e-9)


class TestIdentitySubcommand:
    def test_scaling_residual_within_budget(self, tmp_path):
        code, out = run_cli(tmp_path, "identity", "--s", "0.5",
                            "--check", "scaling",
                            "--function.kind", "bump",
                            "--x", "0.2,1.1")
        assert code == 0
        _, rows, _ = read_csv(out / "identity.csv")
        assert len(rows) == 1
        residual, budget = float(rows[0][3]), float(rows[0][4])
        assert residual <= budget + 1e-8

    def test_loosened_quadrature_default_recorded(self, tmp_path):
        code, out = run_cli(tmp_path, "identity", "--s", "0.5",
                            "--check", "scaling",
                            "--function.kind", "bump",
                            "--x", "0.2,1.1")
        assert code == 0
        resolved = (out / "resolved.cfg").read_text()
        assert "quad.abs_tol = 1e-05" in resolved
        assert "quad.rel_tol = 1e-04" in resolved

    def test_strict_budget_failure_exits_four(self, tmp_path):
        # with refinement switched off the decaying-power comparison cannot
        # meet the tight target, so the accuracy error must surface
        code, _ = run_cli(tmp_path, "identity", "--s", "0.5",
                          "--check", "kelvin",
                          "--function.kind", "kelvin",
                          "--x", "0.3,1.0",
                          "--quad.abs_tol", "1e-8",
                          "--quad.rel_tol", "1e-7",
                          "--quad.max_subdiv", "0")
        assert code == 4


class TestPairSubcommand:
    def test_default_disjoint_bumps(self, tmp_path):
        code, out = run_cli(tmp_path, "pair", "--s", "0.5")
        assert code == 0
        header, rows, _ = read_csv(out / "pair.csv")
        assert header == ["I_uLv", "I_vLu", "residual"]
        assert float(rows[0][0]) == pytest.approx(2.1639319388712633e-02,
                                                  rel=1e-6)
        assert float(rows[0][2]) <= 1e-3 * abs(float(rows[0][0]))


class TestScanSubcommand:
    def test_coherent_expectation_passes(self, tmp_path):
        code, out = run_cli(tmp_path, "scan", "--s", "0.5",
                            "--p", "1.2,1.8", "--expect", "coherent")
        assert code == 0
        _, rows, _ = read_csv(out / "scan.csv")
        assert [r[-1] for r in rows] == ["false", "true"]
        assert float(rows[0][1]) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_column_expectation_failure_exits_three(self, tmp_path):
        code, _ = run_cli(tmp_path, "scan", "--s", "0.5",
                          "--p", "1.8", "--expect", "certified=false")
        assert code == 3

    def test_error_rows_are_named_on_stderr(self, tmp_path, monkeypatch,
                                            capsys):
        def fail(*args, **kwargs):
            raise AccuracyError("budget exhausted")

        monkeypatch.setattr(liouville, "construct_supersolution", fail)
        code, out = run_cli(tmp_path, "scan", "--s", "0.5", "--p", "1.2,1.8")
        assert code == 0
        _, rows, _ = read_csv(out / "scan.csv")
        assert [r[2] for r in rows] == ["kelvin", "error"]
        err = capsys.readouterr().err
        assert "p=1.8" in err and "AccuracyError: budget exhausted" in err
        assert "p=1.2" not in err


class TestRescaledSubcommand:
    def test_rows_carry_both_errors(self, tmp_path):
        code, out = run_cli(tmp_path, "rescaled", "--s", "0.5", "--p", "1.5",
                            "--R", "0.5,2")
        assert code == 0
        head, rows, _ = read_csv(out / "rescaled.csv")
        assert head[-2:] == ["lhs_err", "rhs_err"]
        for r in rows:
            lhs_err, rhs_err = float(r[-2]), float(r[-1])
            assert 0.0 <= lhs_err <= 1e-2 * abs(float(r[1]))
            assert 0.0 <= rhs_err <= 1e-2 * abs(float(r[2]))


class TestStepOneSubcommand:
    def test_region_rows_carry_their_error(self, tmp_path):
        code, out = run_cli(tmp_path, "stepone", "--s", "0.5")
        assert code == 0
        header, rows, _ = read_csv(out / "stepone.csv")
        assert header[:3] == ["region", "M_est", "M_err"]
        assert rows[-1][0] == "all"
        # alpha0 defaults to (s + min(1, 2s)) / 2
        rep = conefrac.step_one_M(conefrac.ConstantDensity(2), 0.5, 0.75, 0.25,
                                 DEFAULT_CONFIG)
        assert (float(rows[-1][1]), float(rows[-1][2])) == (rep.M_est, rep.M_err)
        assert all(math.isfinite(float(r[2])) for r in rows)


class TestQuadKeys:
    def test_every_config_field_has_a_key(self):
        # doubling every quad.* default must move every QuadratureConfig
        # field: a field no key reaches cannot be set from the CLI
        doubled = {k: str(2 * int(v)) if v.isdigit() else repr(2 * float(v))
                   for k, v in _QUAD.items()}
        got = _Run("calpha", doubled).quad_config()
        moved = {f.name for f in dataclasses.fields(QuadratureConfig)
                 if getattr(got, f.name) != getattr(DEFAULT_CONFIG, f.name)}
        assert moved == {f.name for f in dataclasses.fields(QuadratureConfig)}


    @pytest.mark.parametrize("key,value,via", [
        ("quad.t0_factor", "0.4", "flag"),
        ("quad.sphere_nodes", "16", "config"),
    ])
    def test_removed_quad_keys_are_unknown(self, tmp_path, key, value, via):
        # the inner split radius and the circle rule's panel count are
        # constants: a flag or a config file naming them is rejected
        args = ["calpha", "--s", "0.5", "--alpha", "0.25"]
        if via == "flag":
            args += ["--" + key, value]
        else:
            cfgfile = tmp_path / "old.cfg"
            cfgfile.write_text("%s = %s\n" % (key, value))
            args += ["--config", str(cfgfile)]
        code, _ = run_cli(tmp_path, *args)
        assert code == 2


class TestPrecedence:
    def test_config_file_overrides_default(self, tmp_path):
        cfgfile = tmp_path / "mine.cfg"
        cfgfile.write_text("quad.mc_seed = 555\n")
        code, out = run_cli(tmp_path, "calpha", "--s", "0.5",
                            "--alpha", "0.25", "--config", str(cfgfile))
        assert code == 0
        assert "quad.mc_seed = 555" in (out / "resolved.cfg").read_text()
        _, _, trailer = read_csv(out / "calpha.csv")
        assert trailer.startswith("# seed=555 ")

    def test_environment_overrides_file(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "mine.cfg"
        cfgfile.write_text("quad.mc_seed = 555\n")
        monkeypatch.setenv("CONEFRAC_QUAD__MC_SEED", "999")
        code, out = run_cli(tmp_path, "calpha", "--s", "0.5",
                            "--alpha", "0.25", "--config", str(cfgfile))
        assert code == 0
        assert "quad.mc_seed = 999" in (out / "resolved.cfg").read_text()

    def test_flag_overrides_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONEFRAC_QUAD__MC_SEED", "999")
        code, out = run_cli(tmp_path, "calpha", "--s", "0.5",
                            "--alpha", "0.25", "--quad.mc_seed", "111")
        assert code == 0
        assert "quad.mc_seed = 111" in (out / "resolved.cfg").read_text()

    def test_malformed_config_line(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("quad.mc_seed 555\n")
        code, _ = run_cli(tmp_path, "calpha", "--s", "0.5",
                          "--alpha", "0.25", "--config", str(cfgfile))
        assert code == 2

    def test_subcommand_mismatch_rejected(self, tmp_path):
        code, out = run_cli(tmp_path, "calpha", "--s", "0.5",
                            "--alpha", "0.25")
        assert code == 0
        code2 = main(["moment", "--config", str(out / "resolved.cfg"),
                      "--out", str(tmp_path / "out2")])
        assert code2 == 2


class TestDeterminism:
    def test_rerun_from_resolved_config(self, tmp_path):
        code, out = run_cli(tmp_path, "moment", "--s", "0.5",
                            "--density.kind", "cone_plateau")
        assert code == 0
        out2 = tmp_path / "out2"
        assert main(["moment", "--config", str(out / "resolved.cfg"),
                     "--out", str(out2)]) == 0
        assert (out / "moment.csv").read_bytes() \
            == (out2 / "moment.csv").read_bytes()


    @pytest.mark.parametrize("sub,args", [
        ("certify", ["--s", "0.5", "--p", "1.8"]),
        ("rescaled", ["--s", "0.5", "--p", "1.5", "--R", "0.5,2"]),
    ])
    def test_subcommand_reruns_from_resolved_config(self, tmp_path, sub, args):
        code, out = run_cli(tmp_path, sub, *args)
        assert code == 0
        out2 = tmp_path / "out2"
        assert main([sub, "--config", str(out / "resolved.cfg"),
                     "--out", str(out2)]) == 0
        assert (out / (sub + ".csv")).read_bytes() \
            == (out2 / (sub + ".csv")).read_bytes()

        def settings(d):
            return [ln for ln in (d / "resolved.cfg").read_text().splitlines()
                    if not ln.startswith("output.directory ")]
        assert settings(out) == settings(out2)


class TestSvgOutput:
    def test_written_only_on_request(self, tmp_path):
        code, out = run_cli(tmp_path, "calpha", "--s", "0.5",
                            "--alpha", "0.1,0.25,0.4", "--svg", "true")
        assert code == 0
        text = (out / "calpha.svg").read_text()
        assert text.lstrip().startswith("<svg")
        assert "</svg>" in text
        code, out2 = run_cli(tmp_path / "b", "calpha", "--s", "0.5",
                             "--alpha", "0.25")
        assert code == 0
        assert not (out2 / "calpha.svg").exists()


class TestDegenerateInputs:
    def test_vanishing_density_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "moment", "--s", "0.5",
                          "--density.value", "0")
        assert code == 2

    def test_subthreshold_construct_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "construct", "--s", "0.5", "--p", "1.5")
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["identity", "--s", "0.5", "--x", "0.3,abc"],
        ["certify", "--s", "0.5", "--p", "1.8", "--epsilon", "abc"],
        ["construct", "--s", "0.5", "--p", "1.8", "--epsilon", "abc"],
    ], ids=["identity_x", "certify_epsilon", "construct_epsilon"])
    def test_malformed_number_is_invalid_config(self, tmp_path, capsys, args):
        # a number that does not parse is a configuration error naming its
        # key, not a traceback
        code, _ = run_cli(tmp_path, *args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-config: problem.")
        assert "abc'" in err


def test_module_entry_point(tmp_path):
    # run the package under test, whether it is installed or imported from
    # a source checkout
    out = tmp_path / "out"
    src = Path(conefrac.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "conefrac", "calpha", "--s", "0.5",
         "--alpha", "0.25", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert (out / "calpha.csv").exists()
