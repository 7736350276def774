import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainbounds
import chainbounds.family as family_module
from chainbounds import (ModelFormatError, __version__, lambda_n_exact,
                         load_model, two_sided_bound)
from chainbounds.cli import main
from chainbounds.sim import ergodic_checks
from conftest import random_irreducible_model

TWO_STATE_DOC = """
states: [s0, s1]
P:
  - [0.7, 0.3]
  - [0.3, 0.7]
f: [0.0, 1.0]
q: [0.5, 0.5]
"""

NO_SELFLOOP_DOC = """
states: ["-1", "1"]
P:
  - [0.5, 0.5]
  - [1.0, 0.0]
f: [-1, 1]
"""

BIRTH_DEATH_DOC = """
states: ["-1", "0", "1"]
P:
  - [0.5, 0.5, 0.0]
  - [0.5, 0.0, 0.5]
  - [0.0, 0.5, 0.5]
f: [1, 0, -1]
"""

# validate on BIRTH_DEATH_DOC, without the model_sha256 header line; the
# report holds no floats, so these bytes are the same on every platform
BIRTH_DEATH_VALIDATE_TEXT = f"""\
command = validate
parameters = format=text
version = {__version__}

[assumptions]
a1 = true
a2 = false
a3 = true
a4 = false
S_b = [-1]
S_a = [1]
violations = [{{'assumption': 'A2', 'witness': 'A2: state(s) 1 have no \
one-step transition into S_b', 'states': ['1']}}, {{'assumption': 'A4', \
'witness': 'A4: state(s) -1 have no one-step transition into S_a', \
'states': ['-1']}}]
"""

BIRTH_DEATH_VALIDATE_MACHINE = f"""\
{{
  "assumptions": {{
    "S_a": [
      "1"
    ],
    "S_b": [
      "-1"
    ],
    "a1": true,
    "a2": false,
    "a3": true,
    "a4": false,
    "violations": [
      {{
        "assumption": "A2",
        "states": [
          "1"
        ],
        "witness": "A2: state(s) 1 have no one-step transition into S_b"
      }},
      {{
        "assumption": "A4",
        "states": [
          "-1"
        ],
        "witness": "A4: state(s) -1 have no one-step transition into S_a"
      }}
    ]
  }},
  "command": "validate",
  "parameters": {{
    "format": "machine"
  }},
  "version": "{__version__}"
}}
"""

IID_DOC = """
states: [s0, s1]
P:
  - [0.7, 0.3]
  - [0.7, 0.3]
f: [0, 1]
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_clean_model_exits_zero(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, out, err = run_cli(capsys, "validate", "--model", path)
        assert code == 0
        assert "a1 = true" in out and err == ""

    def test_violation_exits_one_and_names_assumption(self, write_model, capsys):
        path = write_model(NO_SELFLOOP_DOC)
        code, out, _ = run_cli(capsys, "validate", "--model", path)
        assert code == 1
        assert "A1" in out

    def test_birth_death_names_a2_witness(self, write_model, capsys):
        path = write_model(BIRTH_DEATH_DOC)
        code, out, _ = run_cli(capsys, "validate", "--model", path)
        assert code == 1
        assert "A2" in out

    def test_golden_report_names_a2_and_a4(self, write_model, capsys):
        path = write_model(BIRTH_DEATH_DOC)
        for fmt, expected in (("text", BIRTH_DEATH_VALIDATE_TEXT),
                              ("machine", BIRTH_DEATH_VALIDATE_MACHINE)):
            code, out, err = run_cli(capsys, "validate", "--model", path,
                                     "--format", fmt)
            assert (code, err) == (1, "")
            lines = out.splitlines(keepends=True)
            assert sum("model_sha256" in line for line in lines) == 1
            assert "".join(line for line in lines
                           if "model_sha256" not in line) == expected

    def test_unreadable_model(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--model", "/nope.yaml")
        assert code == 1
        assert "model" in err

    def test_bad_model_contents(self, write_model, capsys):
        path = write_model("states: [a, b]\nP: [[0.5, 0.4], [1, 0]]\nf: [0, 1]\n")
        code, _, err = run_cli(capsys, "validate", "--model", path)
        assert code == 1
        assert "not stochastic" in err


class TestReports:
    def test_bound_report_ordering_visible(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, out, _ = run_cli(capsys, "bound", "--model", path,
                               "--mu", "0.7", "--n", "50")
        assert code == 0
        fields = {}
        for line in out.splitlines():
            if " = " in line:
                key, _, value = line.partition(" = ")
                fields[key.strip()] = value.strip()
        chern = float(fields["chernoff"])
        hs = float(fields["hoeffding_sigma"])
        hr = float(fields["hoeffding_range"])
        assert chern <= hs <= hr

    def test_byte_identical_reruns(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        _, first, _ = run_cli(capsys, "simulate", "--model", path,
                              "--mu", "0.7", "--n", "20",
                              "--trials", "500", "--seed", "42")
        _, second, _ = run_cli(capsys, "simulate", "--model", path,
                               "--mu", "0.7", "--n", "20",
                               "--trials", "500", "--seed", "42")
        assert first == second

    def test_machine_format_is_json_with_audit_fields(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, out, _ = run_cli(capsys, "constants", "--model", path,
                               "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["model_sha256"]) == 64
        assert doc["version"]
        assert doc["command"] == "constants"
        assert doc["parameters"]["side"] == "upper"
        assert doc["constants"]["K"] >= 1.0

    def test_spectrum_csv(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, out, _ = run_cli(capsys, "spectrum", "--model", path,
                               "--theta=-1:1:5", "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "theta,Lambda,Lambda1,Lambda2"
        assert len(lines) == 6

    def test_spectrum_default_grid(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, out, _ = run_cli(capsys, "spectrum", "--model", path,
                               "--format", "csv")
        rows = [l for l in out.splitlines()
                if l and not l.startswith("#")][1:]
        assert code == 0 and len(rows) == 81

    def test_csv_rejected_for_scalar_reports(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, _, err = run_cli(capsys, "bound", "--model", path,
                               "--mu", "0.7", "--n", "10",
                               "--format", "csv")
        assert code == 1
        assert "csv" in err

    @pytest.mark.parametrize("command", ["validate", "spectrum", "rate",
                                         "constants", "bound", "simulate",
                                         "ergodic"])
    def test_help_lists_the_formats_offered(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        grid = command in ("spectrum", "rate", "ergodic")
        assert ("{text,machine,csv}" if grid else "{text,machine}") in out

    def test_ergodic_integer_range(self, write_model, capsys):
        path = write_model(IID_DOC)
        code, out, _ = run_cli(capsys, "ergodic", "--model", path,
                               "--theta", "1", "--n", "1:100",
                               "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 100
        assert all(row.rsplit(",", 1)[1] == "true" for row in rows)
        # IID rows force the finite-n rate to equal its limit
        assert all(float(row.split(",")[4]) < 1e-10 for row in rows)

    def test_ergodic_rows_equal_single_horizon_values(self, write_model,
                                                      capsys):
        # the CLI sweeps all horizons at once; each row must still be the
        # exact single-horizon value
        path = write_model(TWO_STATE_DOC)
        code, out, _ = run_cli(capsys, "ergodic", "--model", path,
                               "--theta=-0.5,1.5", "--n", "1:40",
                               "--format", "machine")
        assert code == 0
        rows = json.loads(out)["ergodic"]
        assert len(rows) == 80
        model = load_model(path)
        for row in rows:
            assert row["Lambda_n"] == lambda_n_exact(model, row["theta"],
                                                     row["n"])

    def test_ergodic_listed_and_counted_horizons(self, write_model, capsys):
        # lo:hi:count rounds an even spread and drops repeated horizons
        path = write_model(TWO_STATE_DOC)
        model = load_model(path)
        for spec, ns in (("5,10,20", [5, 10, 20]),
                         ("1:100:7", [1, 18, 34, 50, 67, 84, 100]),
                         ("1:5:9", [1, 2, 3, 4, 5]), ("25", [25])):
            code, out, _ = run_cli(capsys, "ergodic", "--model", path,
                                   "--theta", "0.5", "--n", spec,
                                   "--format", "machine")
            assert code == 0
            want = [{"theta": c.theta, "n": c.n, "Lambda_n": c.Lambda_n,
                     "Lambda": c.Lambda, "gap": c.gap, "bound": c.bound,
                     "pass": c.passed}
                    for c in ergodic_checks(model, 0.5, ns)]
            assert json.loads(out)["ergodic"] == want

    def test_bound_interval_equals_two_sided_bound(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        want = two_sided_bound(load_model(path), 50, (0.6, 0.9))
        argv = ("bound", "--model", path, "--mu", "0.7", "--n", "50",
                "--interval", "0.6,0.9")
        code, out, _ = run_cli(capsys, *argv, "--format", "machine")
        assert code == 0
        assert json.loads(out)["two_sided"] == {
            "interval_lo": 0.6, "interval_hi": 0.9, "n": 50, "value": want}
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        section = out.split("[two_sided]\n", 1)[1]
        assert section == ("interval_lo = 0.6\ninterval_hi = 0.9\nn = 50\n"
                           f"value = {want!r}\n")

    def test_rate_with_mu_list(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, out, _ = run_cli(capsys, "rate", "--model", path,
                               "--mu", "0.6,0.9,1.0")
        assert code == 0
        assert "inf" in out  # theta at the boundary mean

    def test_simulate_consistency_flag(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, out, _ = run_cli(capsys, "simulate", "--model", path,
                               "--mu", "0.8", "--n", "30",
                               "--trials", "1000", "--seed", "3")
        assert code == 0
        assert "ci_low_below_chernoff = true" in out

    def test_out_writes_file(self, write_model, tmp_path, capsys):
        path = write_model(TWO_STATE_DOC)
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "validate", "--model", path,
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert "a1 = true" in target.read_text()

    def test_python_dash_m_runs_the_cli(self, write_model, capsys):
        # ``python -m chainbounds`` gives main's bytes and exit status
        path = write_model(BIRTH_DEATH_DOC)
        code, out, _ = run_cli(capsys, "validate", "--model", path)
        env = dict(os.environ, PYTHONPATH=str(
            Path(chainbounds.__file__).resolve().parents[1]))
        for argv, status, stdout in ((["--version"], 0, __version__ + "\n"),
                                     (["validate", "--model", path], code,
                                      out)):
            done = subprocess.run([sys.executable, "-m", "chainbounds",
                                   *argv], capture_output=True, text=True,
                                  env=env, timeout=60)
            assert (done.returncode, done.stdout) == (status, stdout)


class TestUsageAndErrors:
    def test_model_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(TWO_STATE_DOC.replace("s0", "s\xe9").encode("latin-1"))
        code, _, err = run_cli(capsys, "validate", "--model", str(path))
        assert code == 1
        assert err.startswith("error: model: cannot read ")
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(path)

    @pytest.mark.parametrize("target", [".", "missing/report.txt"])
    def test_unwritable_out(self, write_model, tmp_path, capsys, target):
        path = write_model(TWO_STATE_DOC)
        out = str(tmp_path / target)
        code, stdout, err = run_cli(capsys, "validate", "--model", path,
                                    "--out", out)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cli: cannot write {out}: ")

    def test_missing_required_flag(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, _, err = run_cli(capsys, "bound", "--model", path, "--n", "10")
        assert code == 1
        assert "mu" in err

    def test_nonnumeric_mu(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, _, err = run_cli(capsys, "bound", "--model", path,
                               "--mu", "lots", "--n", "10")
        assert code == 1
        assert "real number" in err

    def test_nonfinite_mu_rejected(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, _, err = run_cli(capsys, "bound", "--model", path,
                               "--mu", "inf", "--n", "10")
        assert code == 1
        assert "finite" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate", "--model", "x")
        assert code == 1

    def test_bad_grid_spec(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, _, err = run_cli(capsys, "spectrum", "--model", path,
                               "--theta", "1:2")
        assert code == 1
        assert "lo:hi:count" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_integer_grid_count_below_one(self, write_model, capsys, count):
        path = write_model(IID_DOC)
        code, out, err = run_cli(capsys, "ergodic", "--model", path,
                                 "--theta", "1", "--n", f"1:10:{count}")
        assert code == 1
        assert out == ""
        assert "grid count must be >= 1" in err

    @pytest.mark.parametrize("argv, message", [
        (["bound", "--mu", "0.7", "--n", "2.5"],
         "cli: --n expects an integer, got '2.5'"),
        (["spectrum", "--theta=0:1:0"], "cli: grid count must be >= 1, got 0"),
        (["ergodic", "--theta", "1", "--n", "5:3"], "cli: empty range '5:3'"),
        (["ergodic", "--theta", "1", "--n", "1:2:3:4"],
         "cli: cannot parse integer grid '1:2:3:4'"),
        (["bound", "--mu", "0.7", "--n", "10", "--interval", "0.9,0.2"],
         "bounds: empty interval [0.9, 0.2]"),
        # trial t's Philox key is seed + t: 2**128 - 1 serves one trial only
        (["simulate", "--mu", "0.7", "--n", "10", "--trials", "2",
          "--seed", str(2**128 - 1)],
         f"sim: Philox keys seed + t must be below 2**128, got seed "
         f"{2**128 - 1} with 2 trial(s)"),
    ])
    def test_bad_option_values(self, write_model, capsys, argv, message):
        path = write_model(TWO_STATE_DOC)
        code, out, err = run_cli(capsys, argv[0], "--model", path, *argv[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_negative_q_is_a_model_error(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC.replace("[0.5, 0.5]", "[1.5, -0.5]"))
        code, out, err = run_cli(capsys, "validate", "--model", path)
        assert (code, out, err) == (
            1, "", "error: model: q[1] = -0.5 is negative\n")

    def test_interval_needs_two_values(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, _, err = run_cli(capsys, "bound", "--model", path,
                               "--mu", "0.7", "--n", "10", "--interval", "0.9")
        assert code == 1
        assert "LO,HI" in err

    def test_wrong_side_mu_is_validation_failure(self, write_model, capsys):
        path = write_model(TWO_STATE_DOC)
        code, _, err = run_cli(capsys, "bound", "--model", path,
                               "--mu", "0.2", "--n", "10")
        assert code == 1
        assert "wrong side" in err

    def test_assumption_failure_reported(self, write_model, capsys):
        path = write_model(NO_SELFLOOP_DOC)
        code, _, err = run_cli(capsys, "bound", "--model", path,
                               "--mu", "0.5", "--n", "10")
        assert code == 1
        assert "A1" in err

    def test_numerical_failure_exits_two(self, write_model, capsys):
        # extreme tilt of a degenerate two-cycle underflows the shifted
        # matrix into a nilpotent one: an honest eigensolver failure
        path = write_model(
            'states: ["-1", "1"]\nP: [[0, 1], [1, 0]]\nf: [-1, 1]\n')
        code, _, err = run_cli(capsys, "spectrum", "--model", path,
                               "--theta", "600")
        assert code == 2
        assert "perron" in err

    def test_spectrum_checks_each_tilt_alone(self, write_model, capsys):
        # a check of the cells between 0, 1 and 35 split toward theta =
        # 34.0951 and raised there, though each tilt passes its own cell
        model = random_irreducible_model(np.random.default_rng(991), 11)
        path = write_model(json.dumps({"states": list(model.states),
                                       "P": model.P.tolist(),
                                       "f": model.f.tolist()}))
        code, out, _ = run_cli(capsys, "spectrum", "--model", path,
                               "--theta=0,1,35", "--format", "machine")
        assert code == 0
        assert [row["theta"] for row in json.loads(out)["spectrum"]] == [
            0.0, 1.0, 35.0]

    @pytest.mark.parametrize("seed, theta", [(31, "163"), (1, "-163")])
    def test_singular_fundamental_matrix_exits_two(self, write_model, capsys,
                                                   monkeypatch, seed, theta):
        # the tilt itself solves; with the identity in place of P_theta,
        # I - P_theta + 1 pi' is the rank-one 1 pi'
        model = random_irreducible_model(np.random.default_rng(seed), 11)
        path = write_model(json.dumps({"states": list(model.states),
                                       "P": model.P.tolist(),
                                       "f": model.f.tolist()}))
        assert run_cli(capsys, "spectrum", "--model", path,
                       "--theta", theta)[0] == 0
        monkeypatch.setattr(family_module, "_tilted_chains",
                            lambda P, D, V, rho: np.array([np.eye(11)] * len(D)))
        code, _, err = run_cli(capsys, "spectrum", "--model", path,
                               "--theta", theta)
        assert code == 2
        assert err.startswith("error: family: ")
        assert f"singular at theta={float(theta)!r}" in err
