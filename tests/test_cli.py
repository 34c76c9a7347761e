import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hss_stab import analysis, pipeline, runner
from hss_stab.cli import main
from hss_stab.runner import export_results, run_command
from hss_stab import ConfigurationError, load_scenario
from tests.conftest import scenario_path

TWO_NODE = str(scenario_path("two_node"))
RLC = str(scenario_path("rlc_grid"))
TOY = str(scenario_path("toy_gain"))


def run_cli(*argv):
    return main(list(argv))


class TestEig:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "eig.csv"
        code = run_cli(
            "eig", "--scenario", RLC, "--out", str(out), "--no-timestamp"
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "index,re,im,dominant_component,dominant_harmonic,classification,spurious_flag"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 6  # 6 grid states at hmax 0

    def test_json_output(self, tmp_path):
        out = tmp_path / "eig.json"
        assert run_cli("eig", "--scenario", RLC, "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["stable"] is True
        assert len(doc["records"]) == 6

    def test_hmax_override(self, tmp_path):
        out = tmp_path / "eig.csv"
        assert run_cli("eig", "--scenario", RLC, "--hmax", "1", "--out", str(out), "--no-timestamp") == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 18

    def test_fail_on_unstable(self, tmp_path):
        # negative gain makes the toy plant unstable: eigenvalue at +|k|
        raw = json.loads(Path(TOY).read_text())
        raw["ciders"][0]["control"][0]["d"]["0"] = [
            [-2.0, 0.0, 0.0],
            [0.0, -2.0, 0.0],
            [0.0, 0.0, -2.0],
        ]
        p = tmp_path / "unstable.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        code = run_cli(
            "eig", "--scenario", str(p), "--out", str(out), "--fail-on-unstable"
        )
        assert code == 4
        assert "# stable=false" in out.read_text()

    def test_determinism_subprocess(self, tmp_path):
        outputs = []
        for k in range(2):
            out = tmp_path / f"run{k}.csv"
            res = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "hss_stab.cli",
                    "eig",
                    "--scenario",
                    TWO_NODE,
                    "--hmax",
                    "2",
                    "--out",
                    str(out),
                    "--no-timestamp",
                ],
                capture_output=True,
            )
            assert res.returncode == 0, res.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestValidationErrors:
    def test_bad_scenario_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        assert run_cli("eig", "--scenario", str(p)) == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["exit_code"] == 2

    def test_sweep_one_value_exit_2(self, capsys):
        code = run_cli(
            "sweep", "--scenario", RLC, "--param", "grid.branches.0.r", "--values", "0.1"
        )
        assert code == 2

    def test_classify_missing_hardware_exit_2(self, tmp_path, capsys):
        raw = json.loads(Path(RLC).read_text())
        raw["analysis"] = {"stability_margin": raw["analysis"]["stability_margin"]}
        p = tmp_path / "no_params.json"
        p.write_text(json.dumps(raw))
        code = run_cli(
            "classify",
            "--scenario",
            str(p),
            "--control-params",
            "analysis.stability_margin",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "non-empty control and hardware parameter sets" in record["message"]

    def assert_scenario_error(self, capsys, field):
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ScenarioError"
        assert record["exit_code"] == 2
        assert f"at '{field}': " in record["message"]
        return record

    def test_shape_error_exit_2(self, tmp_path, capsys):
        # hardware block 'plant' gets a C with one column more than it has
        # states: the block is rejected at load, at its field
        raw = json.loads(Path(TOY).read_text())
        plant = next(b for b in raw["ciders"][0]["hardware"] if b["name"] == "plant")
        for row in plant["c"]["0"]:
            row.append(0.0)
        p = tmp_path / "wide_c.json"
        p.write_text(json.dumps(raw))
        assert run_cli("eig", "--scenario", str(p)) == 2
        record = self.assert_scenario_error(capsys, "ciders.0.hardware.0")
        assert "C cols != state dim" in record["message"]

    def test_reference_width_mismatch_exit_2(self, tmp_path, capsys):
        # the vf reference still gives 3 channels; the control now takes 2 reference inputs
        raw = json.loads(Path(TOY).read_text())
        raw["ciders"][0]["routing"]["ctl_inputs"][2] = {"kind": "measurement", "meas": 2}
        p = tmp_path / "narrow_ref.json"
        p.write_text(json.dumps(raw))
        assert run_cli("eig", "--scenario", str(p)) == 2
        record = self.assert_scenario_error(capsys, "ciders.0.reference")
        assert record["message"].endswith("one per reference input: 3, expected 2")

    @pytest.mark.parametrize(
        "w_pi", [{}, {"0": [1.0, 0.0, 0.0]}], ids=["zero-trajectory", "given-trajectory"]
    )
    def test_hardware_frame_width_mismatch_exit_2(self, w_pi, tmp_path, capsys):
        # a fourth, measured hardware output widens the hardware-to-control
        # transform to 3x4, while the grid inputs and w_pi stay 3 wide: the
        # resource is rejected at load, whether or not w_pi has entries
        raw = json.loads(Path(TOY).read_text())
        cider = raw["ciders"][0]
        plant = cider["hardware"][0]
        plant["c"]["0"].append([1.0, 1.0, 1.0])
        plant["d"]["0"] = [[0.0] * 6 for _ in range(4)]
        cider["routing"]["ctl_measured_outputs"] = [0, 1, 2, 3]
        frame = {"type": "custom", "harmonics": {"0": np.eye(3, 4).tolist()}}
        cider["transforms"]["hardware_to_control"] = frame
        cider["transforms"]["hardware_output_to_grid_output"] = frame
        cider["operating_point"]["w_pi"]["harmonics"] = w_pi
        p = tmp_path / "wide_hardware.json"
        p.write_text(json.dumps(raw))
        assert run_cli("eig", "--scenario", str(p), "--hmax", "1") == 2
        record = self.assert_scenario_error(capsys, "ciders.0.transforms.hardware_to_control")
        assert record["message"].endswith("one per grid input: 4, expected 3")

    @pytest.mark.parametrize(
        "argv",
        [
            ("htf", "--scenario", RLC, "--s", "1+x"),
            ("sweep", "--scenario", RLC, "--param", "grid.branches.0.r", "--values", "0.1,abc"),
            ("eig", "--scenario", RLC, "--hmax", "x"),
            ("eig", "--scenario", RLC, "--jobs", "x"),
            ("eig", "--scenario", RLC, "--format", "xml"),
            ("classify", "--scenario", TWO_NODE, "--epsilon", "x"),
            ("spurious", "--scenario", RLC, "--delta", "x"),
            ("spurious", "--scenario", RLC, "--hmax-probe", "x"),
            ("eig",),
            ("sweep", "--scenario", RLC, "--param", "grid.branches.0.r", "--values", "nan,0.1"),
            ("classify", "--scenario", TWO_NODE, "--epsilon", "nan"),
            ("spurious", "--scenario", RLC, "--delta", "inf"),
            ("htf", "--scenario", RLC, "--s", "nan"),
            ("htf", "--scenario", RLC, "--s", "1+infj"),
            ("htf", "--scenario", RLC, "--s", "1+6j", "--port", "nope"),
            ("classify", "--scenario", RLC, "--epsilon", "-1"),
            ("spurious", "--scenario", RLC, "--delta", "0"),
            ("spurious", "--scenario", RLC, "--delta", "-1"),
            ("htf", "--scenario", RLC, "--hmax", "1", "--s", "1+6j")
            + ("--port", "gamma", "--port", "gamma"),
            ("classify", "--scenario", TWO_NODE, "--control-params", ","),
            ("classify", "--scenario", TWO_NODE, "--hardware-params", ","),
        ],
        ids=[
            "htf-s",
            "sweep-values",
            "hmax",
            "unknown-flag",
            "format",
            "classify-epsilon",
            "spurious-delta",
            "spurious-hmax-probe",
            "missing-scenario",
            "sweep-values-nan",
            "classify-epsilon-nan",
            "spurious-delta-inf",
            "htf-s-nan",
            "htf-s-inf-imag",
            "htf-unknown-port",
            "classify-epsilon-negative",
            "spurious-delta-zero",
            "spurious-delta-negative",
            "htf-repeated-port",
            "classify-control-params-empty",
            "classify-hardware-params-empty",
        ],
    )
    def test_malformed_number_exit_2(self, argv, capsys):
        assert run_cli(*argv) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigurationError"
        assert record["exit_code"] == 2

    @pytest.mark.parametrize(
        "command, key, value",
        [("classify", "classification_tolerance", -1.0), ("spurious", "spurious_tolerance", 0.0)],
    )
    def test_scenario_tolerance_out_of_range_exit_2(self, command, key, value, tmp_path, capsys):
        raw = json.loads(Path(RLC).read_text())
        raw["analysis"][key] = value
        p = tmp_path / "tolerance.json"
        p.write_text(json.dumps(raw))
        assert run_cli(command, "--scenario", str(p)) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigurationError"
        assert record["exit_code"] == 2

    def test_unreadable_scenario_exit_2(self, tmp_path, capsys):
        assert run_cli("eig", "--scenario", str(tmp_path)) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ScenarioError"
        assert record["exit_code"] == 2

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "eig.csv"
        assert run_cli("eig", "--scenario", RLC, "--out", str(out)) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigurationError"
        assert record["exit_code"] == 2

    def test_sweep_changing_state_count_exit_2(self, capsys):
        # every hmax has its own state count, so there are no loci to match
        argv = ("--hmax", "1", "--param", "system.hmax", "--values", "1,2")
        assert run_cli("sweep", "--scenario", TWO_NODE, *argv) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigurationError"
        assert record["message"] == (
            "sweeping system.hmax changes the eigenvalue count: 57 at 1, 95 at 2"
        )

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("eig", "--help")
        assert exc.value.code == 0
        assert "--scenario" in capsys.readouterr().out

    def test_non_finite_rebuild_exit_3(self, monkeypatch, capsys):
        # a NaN eigenvalue reaching the matcher is a numerical error: exit 3
        # with the JSON record, never a traceback or a hang
        only = analysis.eigenvalues_only

        def with_nan(model):
            spectrum = only(model)
            lam = spectrum.eigenvalues.copy()
            lam[0] = np.nan
            return replace(spectrum, eigenvalues=lam)

        monkeypatch.setattr(analysis, "eigenvalues_only", with_nan)
        assert run_cli("classify", "--scenario", TWO_NODE, "--hmax", "2") == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "NumericalError" and record["exit_code"] == 3

    def test_htf_at_pole_exit_3(self, capsys):
        # s exactly on an RLC eigenvalue
        code = run_cli("htf", "--scenario", RLC, "--s=-50+9999.8749992187j")
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "PoleProximityError"


class TestOperatingPointErrors:
    """A reference law that its operating voltage leaves undefined or
    aliased names the resource and the trajectory, and exits 3."""

    def run_eig(self, raw, hmax, tmp_path, capsys):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(raw))
        assert run_cli("eig", "--scenario", str(p), "--hmax", str(hmax)) == 3
        return json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    def test_aliased_voltage(self, tmp_path, capsys):
        raw = json.loads(Path(TWO_NODE).read_text())
        w_pi = raw["ciders"][1]["operating_point"]["w_pi"]["harmonics"]
        phasors = 100.0 * np.exp(-2j * np.pi * np.arange(3) / 3)  # balanced, a at 0
        w_pi["5"] = np.column_stack([phasors.real, phasors.imag]).tolist()
        w_pi["-5"] = np.column_stack([phasors.real, -phasors.imag]).tolist()
        record = self.run_eig(raw, 5, tmp_path, capsys)
        assert record["error"] == "NumericalError"
        assert record["message"].startswith(
            "n2: operating_point.w_pi: reference trajectory is not band-limited enough"
        )

    def test_zero_voltage(self, tmp_path, capsys):
        raw = json.loads(scenario_path("four_cider_six_node").read_text())
        w_pi = raw["ciders"][2]["operating_point"]["w_pi"]["harmonics"]
        for order, channels in w_pi.items():
            w_pi[order] = [[0.0, 0.0]] * len(channels)
        record = self.run_eig(raw, 2, tmp_path, capsys)
        assert record["error"] == "SingularOperatingPointError"
        assert record["message"] == (
            "n3: operating_point.w_pi: "
            "power reference undefined at (near-)zero voltage operating point"
        )


class TestCommands:
    def test_htf(self, tmp_path):
        out = tmp_path / "htf.csv"
        assert run_cli(
            "htf", "--scenario", RLC, "--s", "10+100j", "--out", str(out), "--no-timestamp"
        ) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "row,col,re,im"
        assert len(rows) == 1 + 6 * 6

    def test_sweep_named(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--scenario", RLC, "--sweep", "resistance", "--out", str(out), "--no-timestamp"
        ) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "param_value,trace_id,re,im"
        assert len(rows) == 1 + 20 * 6

    def test_classify_runs(self, tmp_path):
        out = tmp_path / "cls.csv"
        code = run_cli(
            "classify",
            "--scenario",
            RLC,
            "--control-params",
            "analysis.stability_margin",
            "--hardware-params",
            "grid.branches.0.r",
            "--out",
            str(out),
            "--no-timestamp",
        )
        assert code == 0
        body = out.read_text()
        assert "CDI" in body

    @pytest.mark.parametrize("scenario", [RLC, TOY], ids=["rlc_grid", "toy_gain"])
    def test_classify_bundled_parameter_sets(self, scenario, tmp_path):
        out = tmp_path / "cls.json"
        code = run_cli(
            "classify", "--scenario", scenario, "--format", "json", "--out", str(out), "--no-timestamp"
        )
        assert code == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["control_parameters"] and meta["hardware_parameters"]

    def test_spurious_runs(self, tmp_path):
        out = tmp_path / "sp.csv"
        code = run_cli(
            "spurious",
            "--scenario",
            RLC,
            "--hmax",
            "2",
            "--hmax-probe",
            "5",
            "--out",
            str(out),
            "--no-timestamp",
        )
        assert code == 0
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert "spurious_flag" in header

    def test_classify_and_sweep_leave_scipy_optimize_unloaded(self, tmp_path):
        # eigenvalue matching uses the package's own assignment solver
        code = (
            "import sys\n"
            "from hss_stab.cli import main\n"
            f"assert main(['classify', '--scenario', {TWO_NODE!r}, '--hmax', '3',"
            f" '--out', {str(tmp_path / 'c.csv')!r}]) == 0\n"
            f"assert main(['sweep', '--scenario', {TWO_NODE!r}, '--sweep', 'voltage_kp',"
            f" '--out', {str(tmp_path / 's.csv')!r}]) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr

    def test_analysis_commands_leave_scipy_linalg_unloaded(self, tmp_path):
        # one BLAS per process: numpy's LAPACK serves the eigen and loop
        # solves and the package finds graph components itself; only htf's
        # condition estimate loads scipy.linalg
        unloaded = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
        runs = [
            ["eig", "--hmax", "2"],
            ["classify", "--hmax", "2"],
            ["spurious", "--hmax", "2", "--hmax-probe", "4"],
            ["sweep", "--sweep", "voltage_kp", "--hmax", "2"],
        ]
        argvs = [
            [*args, "--scenario", TWO_NODE, "--out", str(tmp_path / f"{k}.csv")]
            for k, args in enumerate(runs)
        ]
        htf = ["htf", "--scenario", TWO_NODE, "--hmax", "2", "--s", "1+6j"]
        htf += ["--out", str(tmp_path / "h.csv")]
        code = (
            "import sys\n"
            "from hss_stab.cli import main\n"
            f"assert all(main(argv) == 0 for argv in {argvs!r})\n"
            f"loaded = [m for m in {unloaded!r} if m in sys.modules]\n"
            "assert not loaded, f'{loaded} imported'\n"
            f"assert main({htf!r}) == 0\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "h.csv").read_text().count("\n") > 1

    def test_load_and_eig_leave_jsonschema_unloaded(self):
        # scenarios are validated by the package's own field-path checks
        code = (
            "import sys\n"
            "from hss_stab import load_scenario, run_command\n"
            f"run_command('eig', load_scenario({TWO_NODE!r}).with_hmax(1))\n"
            "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


@pytest.fixture
def solve_counts(monkeypatch):
    """Calls of ``assemble`` and ``eigen_decompose``, counted at every
    ``hss_stab`` module that binds them."""
    counts = {}
    for fn in (pipeline.assemble, analysis.eigen_decompose):
        counts[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "hss_stab" or name.startswith("hss_stab."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return counts


class TestSingleNominalSolve:
    @pytest.mark.parametrize("command", ["eig", "spurious", "classify"])
    def test_nominal_system_solved_once(self, command, solve_counts):
        scenario = load_scenario(TWO_NODE).with_hmax(5)
        run_command(command, scenario)
        # spurious assembles the probe grid too; classify rebuilds the
        # model at four perturbations of every classified parameter
        n_params = len(scenario.analysis.control_parameters) + len(
            scenario.analysis.hardware_parameters
        )
        assemblies = {"eig": 1, "spurious": 2, "classify": 1 + 4 * n_params}[command]
        assert solve_counts == {"assemble": assemblies, "eigen_decompose": 1}


def test_eig_stores_no_dense_system_matrix():
    # the command holds the closed loop in CSR: its peak allocation stays
    # below a quarter of one dense n x n complex array
    scenario = load_scenario(scenario_path("four_cider_six_node")).with_hmax(12)
    tracemalloc.start()
    try:
        result = run_command("eig", scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(result.records)
    assert n == 1325
    assert peak < n * n * 16 / 4


class TestEigenRecords:
    def test_degenerate_component_invariant_under_mixing(self):
        # any unit vector in the eigenspace of a (near) double eigenvalue is
        # a valid eigenvector, so mixing a pair must not move its component
        scenario = load_scenario(TWO_NODE).with_hmax(8)
        sol = analysis.eigen_decompose(pipeline.assemble(scenario, state_only=True).model)
        records = runner._eigen_records(sol)
        cluster = runner._clusters(sol.eigenvalues)
        pairs = [np.flatnonzero(cluster == k) for k in np.flatnonzero(np.bincount(cluster) == 2)]
        assert len(pairs) == 12
        dense = sol.vectors.toarray()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            mixed = dense.copy()
            for pair in pairs:
                q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                mixed[:, pair] = dense[:, pair] @ q
            got = runner._eigen_records(replace(sol, vectors=sp.csc_array(mixed)))
            for pair in pairs:
                assert [got[i][3] for i in pair] == [records[pair[0]][3]] * 2


def brute_force_pairs(lam, tol):
    i, j = np.triu_indices(lam.size, 1)
    near = np.abs(lam[i] - lam[j]) <= tol
    return np.column_stack((i[near], j[near]))


class TestClosePairs:
    """``runner._close_pairs`` against every pair compared directly."""

    def test_random_spectrum(self):
        rng = np.random.default_rng(11)
        for size in (1, 2, 40, 300):
            lam = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            lam = np.concatenate((lam, lam[: size // 3] + 1e-3 * rng.standard_normal(size // 3)))
            for tol in (1e-10, 1e-3, 0.2):
                assert np.array_equal(runner._close_pairs(lam, tol), brute_force_pairs(lam, tol))

    def test_ladder_with_ties_in_re(self):
        # copies of three modes 2*pi*50 apart, equal in Re or 1e-15 apart,
        # plus a near-double pair on every rung; the order is shuffled
        rng = np.random.default_rng(12)
        rungs = 1j * 2 * np.pi * 50 * np.arange(-25, 26)
        modes = np.array([-3.0 + 10j, -3.0 + 10j + 1e-12, -3.0 + 1e-15 + 40j, -7.5 + 0j])
        lam = rng.permutation((modes[:, None] + rungs[None, :]).ravel())
        tol = runner.DEGENERATE_RTOL * np.max(np.abs(lam))
        pairs = runner._close_pairs(lam, tol)
        assert np.array_equal(pairs, brute_force_pairs(lam, tol))
        assert len(pairs) == rungs.size  # one near-double pair per rung

    def test_pairs_at_exactly_the_tolerance(self):
        tol = 1e-10
        lam = np.array([0.0, tol, 1j * tol, tol + 1j * tol, -np.nextafter(tol, 1.0)])
        pairs = runner._close_pairs(lam, tol)
        assert np.array_equal(pairs, brute_force_pairs(lam, tol))
        # the sides of the square are exactly tol long: in; its diagonals
        # and the point one ulp beyond tol from 0: out
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]


class TestExport:
    def test_round_trip_exact(self, tmp_path):
        scenario = load_scenario(RLC)
        results = run_command("eig", scenario)
        out = tmp_path / "r.csv"
        export_results(results, "csv", out, timestamp=False)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        for line, rec in zip(lines[1:], results.records):
            parts = line.split(",")
            assert float(parts[header.index("re")]) == rec[1]
            assert float(parts[header.index("im")]) == rec[2]
        # json round trip
        out_json = tmp_path / "r.json"
        export_results(results, "json", out_json, timestamp=False)
        doc = json.loads(out_json.read_text())
        for row, rec in zip(doc["records"], results.records):
            assert row["re"] == rec[1]
            assert row["im"] == rec[2]

    @pytest.mark.parametrize(
        "command, options",
        [
            ("eig", {}),
            ("classify", {}),
            ("spurious", {"hmax_probe": 4}),
            ("sweep", {"sweep_name": "voltage_kp"}),
            ("htf", {"s": "1+6j"}),
        ],
    )
    @pytest.mark.parametrize("timestamp", [False, True])
    def test_json_is_the_indented_dump(self, command, options, timestamp):
        # the records skip json's pure-Python indenting encoder, but the text
        # is the one it writes
        results = run_command(command, load_scenario(TWO_NODE).with_hmax(2), **options)
        text = runner._to_json(results, timestamp)
        doc = {
            "kind": results.kind,
            "meta": results.meta,
            "columns": list(results.columns),
            "records": [
                {c: v.item() if isinstance(v, np.generic) else v for c, v in zip(results.columns, r)}
                for r in results.records
            ],
        }
        if timestamp:
            doc["generated"] = json.loads(text)["generated"]
        assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def test_empty_rejected(self):
        from hss_stab.runner import ResultSet

        with pytest.raises(ConfigurationError):
            export_results(ResultSet("eigenvalues", ("a",), ()), "csv", "/tmp/x.csv")

    def test_trace_long_format(self, tmp_path):
        scenario = load_scenario(TOY)
        results = run_command(
            "sweep",
            scenario,
            parameter="ciders.0.control.0.d.0.0.0",
            values=[1.0, 2.0, 3.0],
        )
        assert len(results.records) == 3 * 3  # 3 steps x 3 eigenvalues
