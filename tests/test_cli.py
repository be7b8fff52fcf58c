import contextlib
import errno
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demotrend.cli import UsageError, _scenario_plan

from conftest import TINY, minimal_rows, run_cli, write_rows


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    code, stdout, stderr = run_cli([
        "--data-dir", str(TINY), "--out", str(out), "--scenario", "baseline",
        "--dump-donors", "--dump-ensembles",
    ])
    assert code == 0, stderr
    return out


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code, stdout, stderr = run_cli([
        "--data-dir", str(TINY), "--out", str(out),
        "--scenario", "sweep:0:2:1",
        "--aggregate", "world,income,region,country",
    ])
    assert code == 0, stderr
    return out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestHappyPath:
    def test_expected_files(self, baseline_run):
        names = sorted(p.name for p in baseline_run.iterdir())
        assert names == ["donors.csv", "ensembles.csv", "figure_income_groups.svg",
                         "figure_regions.svg", "figure_world.svg",
                         "run_manifest.json", "summary.csv", "trajectories.csv"]

    def test_trajectory_coverage(self, baseline_run):
        rows = read_csv(baseline_run / "trajectories.csv")
        scopes = {r["scope"] for r in rows}
        assert scopes == {"World", "High income", "Low income",
                          "Upper-middle income", "Sub-Saharan Africa",
                          "East Asia and Pacific", "North America"}
        years = sorted({int(r["year"]) for r in rows})
        assert years[0] == 2015 and years[-1] == 2100 and len(years) == 86
        assert all(float(r["population"]) > 0.0 for r in rows)

    def test_summary_rows(self, baseline_run):
        rows = read_csv(baseline_run / "summary.csv")
        assert [r["scope"] for r in rows] == [
            "World", "High income", "Low income", "Upper-middle income",
            "Sub-Saharan Africa", "East Asia and Pacific", "North America"]
        world = rows[0]
        assert world["scenario_id"] == "baseline"
        assert float(world["pop2015"]) > 0.0
        assert 2015 <= int(world["peak_year"]) <= 2100
        assert float(world["peak_pop"]) >= float(world["pop2015"])
        assert float(world["peak_pop"]) >= float(world["pop2100"])

    def test_world_equals_fixture_base_total(self, baseline_run, tiny_dataset):
        rows = read_csv(baseline_run / "summary.csv")
        world_2015 = float(rows[0]["pop2015"]) * 1e6
        expected = sum(float(tiny_dataset.base_population(iso3).counts.sum())
                       for iso3 in ("AAA", "BBB", "CCC"))
        assert world_2015 == pytest.approx(expected, rel=1e-6)

    def test_donor_dump(self, baseline_run):
        rows = read_csv(baseline_run / "donors.csv")
        assert [(r["target_iso3"], r["donor_iso3"]) for r in rows] == [("AAA", "BBB")]

    def test_ensemble_dump(self, baseline_run):
        rows = read_csv(baseline_run / "ensembles.csv")
        by_series = {}
        for r in rows:
            key = (r["iso3"], r["variable"], r["age_group"], r["sex"])
            by_series.setdefault(key, []).append(r)
        # per country: 6 fertility bands + 21 bands x 2 sexes of mortality
        assert len(by_series) == 3 * (6 + 42)
        for key, members in by_series.items():
            total = sum(float(m["weight"]) for m in members)
            assert total == pytest.approx(1.0, abs=1e-6), key
            forms = [m["form"] for m in members]
            assert len(forms) == len(set(forms))

    def test_no_sensitivity_for_single_scenario(self, baseline_run):
        assert not (baseline_run / "sensitivity.csv").exists()


class TestManifest:
    def test_content(self, baseline_run):
        manifest = json.loads((baseline_run / "run_manifest.json").read_text())
        assert set(manifest) == {"config", "inputs", "version"}
        config = manifest["config"]
        assert config["scenario"] == "baseline"
        assert config["fertility_cap"] == 30000.0
        assert config["srb"] == 1.05
        assert config["horizon"] == 2100
        assert "jobs" not in config
        assert "out_dir" not in config

    def test_input_digests(self, baseline_run):
        manifest = json.loads((baseline_run / "run_manifest.json").read_text())
        assert sorted(manifest["inputs"]) == [
            "base_pop.csv", "countries.csv", "gdp_baseline.csv",
            "gdp_hist.csv", "rates.csv"]
        actual = hashlib.sha256((TINY / "countries.csv").read_bytes()).hexdigest()
        assert manifest["inputs"]["countries.csv"] == actual

    def test_version_matches_package(self, baseline_run):
        import demotrend

        manifest = json.loads((baseline_run / "run_manifest.json").read_text())
        assert manifest["version"] == demotrend.__version__


class TestSweep:
    def test_scenarios_present(self, sweep_run):
        rows = read_csv(sweep_run / "trajectories.csv")
        assert sorted({r["scenario_id"] for r in rows}) == ["m0.0", "m1.0", "m2.0"]

    def test_country_scope_included(self, sweep_run):
        rows = read_csv(sweep_run / "summary.csv")
        scopes = [r["scope"] for r in rows if r["scenario_id"] == "m0.0"]
        assert scopes[-3:] == ["AAA", "BBB", "CCC"]

    def test_sensitivity_emitted(self, sweep_run):
        rows = read_csv(sweep_run / "sensitivity.csv")
        assert [r["iso3"] for r in rows] == ["AAA", "BBB", "CCC"]
        for r in rows:
            assert float(r["ratio"]) >= 0.0

    def test_poor_country_most_sensitive(self, sweep_run):
        """Growth matters most where fertility still responds to GDP."""
        rows = {r["iso3"]: float(r["ratio"]) for r in
                read_csv(sweep_run / "sensitivity.csv")}
        assert rows["AAA"] > rows["CCC"]

    def test_frozen_growth_yields_larger_population(self, sweep_run):
        """Lower growth keeps fertility higher -> more people by 2100."""
        rows = read_csv(sweep_run / "summary.csv")
        world = {r["scenario_id"]: float(r["pop2100"]) for r in rows
                 if r["scope"] == "World"}
        assert world["m0.0"] > world["m1.0"] > world["m2.0"]


class TestDeterminism:
    def test_reruns_byte_identical(self, tmp_path):
        args = ["--data-dir", str(TINY), "--scenario", "m:0.5",
                "--dump-donors", "--dump-ensembles"]
        code1, _, err1 = run_cli([*args, "--out", str(tmp_path / "a")])
        code2, _, err2 = run_cli([*args, "--out", str(tmp_path / "b")])
        assert code1 == 0 and code2 == 0, err1 + err2
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_openblas_thread_count_invisible(self, tmp_path):
        # The README suggests OPENBLAS_NUM_THREADS=1 to save CPU; it must not
        # change a byte of any output.
        args = ["--data-dir", str(TINY), "--scenario", "sweep:0:2:1",
                "--dump-donors", "--dump-ensembles"]
        code1, _, err1 = run_cli([*args, "--out", str(tmp_path / "default")])
        code2, _, err2 = run_cli([*args, "--out", str(tmp_path / "one")],
                                 env_extra={"OPENBLAS_NUM_THREADS": "1"})
        assert code1 == 0 and code2 == 0, err1 + err2
        names = sorted(p.name for p in (tmp_path / "default").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "one" / name).read_bytes(), name

    def test_import_leaves_worker_pools_unloaded(self):
        """Single-job runs never pay for importing ``concurrent.futures``, and
        runs without an internal error never import ``traceback``."""
        script = ("import sys\n"
                  "import demotrend.cli\n"
                  "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n"
                  "assert 'traceback' not in sys.modules, 'traceback was imported'\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
    def test_entry_point_pins_openblas_threads(self, preset, expected):
        """``python -m demotrend`` and the ``demotrend`` script run one OpenBLAS
        thread per process unless the user chose a count."""
        script = ("import os\n"
                  "import demotrend.__main__\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**env, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    def test_import_compiles_no_generated_methods(self):
        """Records are built without ``dataclasses``, whose every generated method
        is compiled from source at each import. The one compile left is the
        ``data_ingest.RateRow`` namedtuple, which only ``Dataset.rates`` uses."""
        script = ("import sys\n"
                  "import numpy\n"
                  "compiled = []\n"
                  "sys.addaudithook(lambda event, args: compiled.append(args[0])\n"
                  "                 if event == 'compile' and args[1] == '<string>' else None)\n"
                  "import demotrend.cli\n"
                  "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
                  "assert len(compiled) == 1, compiled\n"
                  "assert compiled[0].startswith(b'lambda _cls, iso3, year,'), compiled\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr

    def test_library_import_leaves_openblas_threads_unset(self):
        script = ("import os\n"
                  "import demotrend, demotrend.cli\n"
                  "from demotrend.data_ingest import load_dataset\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**env, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"

    def test_entry_point_freezes_the_import_heap(self):
        """The entry point moves what its import left behind to the permanent
        generation and leaves the collector running."""
        script = ("import gc\n"
                  "import demotrend.__main__\n"
                  "assert gc.isenabled(), 'gc left disabled'\n"
                  "assert gc.get_freeze_count() > 0, 'nothing frozen'\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr

    def test_library_import_leaves_gc_alone(self):
        script = ("import gc\n"
                  "import demotrend, demotrend.cli\n"
                  "from demotrend.data_ingest import load_dataset\n"
                  f"load_dataset({str(TINY)!r})\n"
                  "assert gc.isenabled(), 'gc disabled'\n"
                  "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr

    def test_entry_point_exit_codes_and_stderr(self, tmp_path):
        code, stdout, stderr = run_cli(["--data-dir", str(TINY)])
        assert code == 2 and stdout == ""
        assert stderr.startswith("usage: demotrend ")
        assert stderr.endswith("\ndemotrend: error: the following arguments are required: "
                               "--out\n")
        code, stdout, stderr = run_cli(["--data-dir", str(tmp_path / "absent"),
                                        "--out", str(tmp_path / "out")])
        assert code == 1 and stdout == ""
        assert stderr == ("error: required input file not found: "
                          f"{tmp_path / 'absent' / 'countries.csv'}\n")

    def test_pinned_thread_count_invisible(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        args = ["--data-dir", str(TINY), "--scenario", "sweep:0:2:1",
                "--dump-donors", "--dump-ensembles"]
        code1, _, err1 = run_cli([*args, "--out", str(tmp_path / "unset")])
        code2, _, err2 = run_cli([*args, "--out", str(tmp_path / "four")],
                                 env_extra={"OPENBLAS_NUM_THREADS": "4"})
        assert code1 == 0 and code2 == 0, err1 + err2
        names = sorted(p.name for p in (tmp_path / "unset").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "four").iterdir())
        for name in names:
            assert (tmp_path / "unset" / name).read_bytes() == \
                (tmp_path / "four" / name).read_bytes(), name

    def test_worker_count_invisible(self, tmp_path):
        args = ["--data-dir", str(TINY), "--scenario", "sweep:0:2:1",
                "--aggregate", "world,country", "--dump-donors",
                "--dump-ensembles"]
        code1, _, err1 = run_cli([*args, "--out", str(tmp_path / "j1"),
                                  "--jobs", "1"])
        code2, _, err2 = run_cli([*args, "--out", str(tmp_path / "j3"),
                                  "--jobs", "3"])
        assert code1 == 0 and code2 == 0, err1 + err2
        names = sorted(p.name for p in (tmp_path / "j1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "j3").iterdir())
        for name in names:
            assert (tmp_path / "j1" / name).read_bytes() == \
                (tmp_path / "j3" / name).read_bytes(), name


def jittered_tiny(seed, data_dir):
    """The tiny fixture with every GDP value and rate scaled by a seeded
    factor in [0.9, 1.1]; mortality stays at most 1."""
    rng = np.random.default_rng(seed)
    data_dir.mkdir()
    for src in sorted(TINY.iterdir()):
        lines = src.read_text(encoding="utf-8").splitlines()
        if src.name in ("gdp_hist.csv", "gdp_baseline.csv", "rates.csv"):
            for i in range(1, len(lines)):
                *cells, value = lines[i].split(",")
                value = float(value) * rng.uniform(0.9, 1.1)
                if "Mortality" in cells:
                    value = min(value, 1.0)
                lines[i] = ",".join([*cells, f"{value:.9g}"])
        (data_dir / src.name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data_dir


class TestRandomDatasetProperties:
    """Properties of whole runs on seeded variants of the tiny fixture."""

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_jobs_invisible_and_unit_multiplier_is_baseline(self, tmp_path_factory, seed):
        root = tmp_path_factory.mktemp("jittered")
        data_dir = jittered_tiny(seed, root / "data")
        common = ["--data-dir", str(data_dir), "--aggregate", "world,income,country"]
        sweep = [*common, "--scenario", "sweep:0:2:1", "--dump-donors", "--dump-ensembles"]
        runs = {"j1": [*sweep, "--jobs", "1"], "j2": [*sweep, "--jobs", "2"],
                "base": [*common, "--scenario", "baseline"]}
        for out, args in runs.items():
            code, _, stderr = run_cli([*args, "--out", str(root / out)])
            assert code == 0, stderr

        names = sorted(p.name for p in (root / "j1").iterdir())
        assert names == sorted(p.name for p in (root / "j2").iterdir())
        for name in names:
            assert (root / "j1" / name).read_bytes() == (root / "j2" / name).read_bytes(), name

        # multiplier_pathway recomposes the baseline's growth, so m = 1 is
        # not bit-exact; populations are compared as the CSV rounds them.
        base = {(r["scope"], r["year"]): float(r["population"])
                for r in read_csv(root / "base" / "trajectories.csv")}
        m1 = {(r["scope"], r["year"]): float(r["population"])
              for r in read_csv(root / "j1" / "trajectories.csv") if r["scenario_id"] == "m1.0"}
        assert base.keys() == m1.keys()
        for key, value in base.items():
            assert math.isclose(m1[key], value, rel_tol=1e-9), key


class TestScenarioVariants:
    def test_multiplier_one_matches_baseline_numbers(self, baseline_run, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(TINY),
                                   "--out", str(tmp_path / "m1"),
                                   "--scenario", "m:1.0"])
        assert code == 0, stderr
        base_rows = read_csv(baseline_run / "trajectories.csv")
        m1_rows = read_csv(tmp_path / "m1" / "trajectories.csv")
        base_pop = [(r["scope"], r["year"], r["population"]) for r in base_rows]
        m1_pop = [(r["scope"], r["year"], r["population"]) for r in m1_rows]
        assert base_pop == m1_pop

    def test_overflowing_multiplier_prints_one_error_line(self, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(TINY), "--out", str(tmp_path / "out"),
                                   "--scenario", "m:1e6"])
        assert code == 1
        assert stderr == "error: AAA/m1000000.0: pathway values must be positive and finite\n"

    def test_manifest_records_the_raw_token(self, tmp_path):
        """The spec drives the run; the manifest keeps the token as typed."""
        code, _, stderr = run_cli(["--data-dir", str(TINY), "--out", str(tmp_path / "m"),
                                   "--scenario", "m:1e0", "--format", "csv"])
        assert code == 0, stderr
        manifest = json.loads((tmp_path / "m" / "run_manifest.json").read_text())
        assert manifest["config"]["scenario"] == "m:1e0"
        rows = read_csv(tmp_path / "m" / "trajectories.csv")
        assert {r["scenario_id"] for r in rows} == {"m1.0"}

    def test_convergence_runs(self, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(TINY),
                                   "--out", str(tmp_path / "conv"),
                                   "--scenario", "convergence"])
        assert code == 0, stderr
        rows = read_csv(tmp_path / "conv" / "trajectories.csv")
        assert {r["scenario_id"] for r in rows} == {"convergence"}

    def test_horizon_truncates(self, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(TINY),
                                   "--out", str(tmp_path / "short"),
                                   "--horizon", "2050"])
        assert code == 0, stderr
        rows = read_csv(tmp_path / "short" / "trajectories.csv")
        years = sorted({int(r["year"]) for r in rows})
        assert years[0] == 2015 and years[-1] == 2050
        summary = read_csv(tmp_path / "short" / "summary.csv")
        assert all(r["pop2100"] == "" for r in summary)
        assert all(r["pop2050"] != "" for r in summary)

    def test_csv_format_skips_figures(self, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(TINY),
                                   "--out", str(tmp_path / "csvonly"),
                                   "--format", "csv"])
        assert code == 0, stderr
        names = sorted(p.name for p in (tmp_path / "csvonly").iterdir())
        assert names == ["run_manifest.json", "summary.csv", "trajectories.csv"]

    def test_fertility_cap_flag_changes_results(self, tmp_path):
        """CCC's pathway stays above a low cap, so its numbers must move."""
        base = ["--data-dir", str(TINY), "--scenario", "baseline",
                "--aggregate", "country", "--format", "csv"]
        code1, _, _ = run_cli([*base, "--out", str(tmp_path / "cap30k")])
        code2, _, _ = run_cli([*base, "--out", str(tmp_path / "cap10k"),
                               "--fertility-cap", "10000"])
        assert code1 == 0 and code2 == 0
        pop = {}
        for tag in ("cap30k", "cap10k"):
            rows = read_csv(tmp_path / tag / "summary.csv")
            pop[tag] = {r["scope"]: r["pop2100"] for r in rows}
        assert pop["cap30k"]["CCC"] != pop["cap10k"]["CCC"]
        # AAA's baseline pathway tops out at 6000, far below either cap
        assert pop["cap30k"]["AAA"] == pop["cap10k"]["AAA"]

    def test_srb_flag_changes_results(self, tmp_path):
        base = ["--data-dir", str(TINY), "--format", "csv"]
        code1, _, _ = run_cli([*base, "--out", str(tmp_path / "srb_a")])
        code2, _, _ = run_cli([*base, "--out", str(tmp_path / "srb_b"),
                               "--srb", "1.2"])
        assert code1 == 0 and code2 == 0
        a = read_csv(tmp_path / "srb_a" / "summary.csv")[0]
        b = read_csv(tmp_path / "srb_b" / "summary.csv")[0]
        assert a["pop2100"] != b["pop2100"]

    def test_env_var_data_dir(self, tmp_path):
        code, _, stderr = run_cli(["--out", str(tmp_path / "via_env")],
                                  env_extra={"DEMOTREND_DATA_DIR": str(TINY)})
        assert code == 0, stderr


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["--scenario", "bogus"],
        ["--scenario", "m:abc"],
        ["--scenario", "m:-0.5"],
        ["--scenario", "sweep:0:2"],
        ["--scenario", "sweep:0:2:0"],
        ["--scenario", "sweep:-1:2:0.5"],
        ["--horizon", "2015"],
        ["--horizon", "2101"],
        ["--fertility-cap", "0"],
        ["--srb", "0"],
        ["--srb", "-1"],
        ["--jobs", "0"],
        ["--jobs", "many"],
        ["--aggregate", "world,planet"],
        ["--aggregate", ""],
        ["--srb", "nan"],
        ["--srb", "inf"],
        ["--fertility-cap", "nan"],
        ["--scenario", "m:nan"],
        ["--scenario", "sweep:0:nan:0.5"],
        ["--scenario", "sweep:0:2:nan"],
    ])
    def test_exit_code_2(self, tmp_path, args):
        code, _, stderr = run_cli(["--data-dir", str(TINY),
                                   "--out", str(tmp_path / "x"), *args])
        assert code == 2
        assert "error:" in stderr

    @pytest.mark.parametrize("token", ["sweep:0:1e6:1e-9", "sweep:0:1e308:1e-300",
                                       "sweep:0:1000:1"])
    def test_oversized_sweep_rejected_at_parse(self, token):
        """Only the token is parsed: no scenario is built."""
        with pytest.raises(UsageError, match="1000 scenarios"):
            _scenario_plan(token)

    def test_largest_sweep_accepted_at_parse(self):
        plan = _scenario_plan("sweep:0:999:1")
        assert len(plan) == 1000 and plan[-1] == ("m999.0", 999.0)

    @pytest.mark.parametrize("token,spec", [
        ("baseline", [("baseline", None)]),
        ("convergence", [("convergence", None)]),
        ("sweep", list(zip(["m0.0", "m0.1", "m0.2", "m0.3", "m0.4", "m0.5", "m0.6", "m0.7",
                            "m0.8", "m0.9", "m1.0", "m1.1", "m1.2", "m1.3", "m1.4", "m1.5",
                            "m1.6", "m1.7", "m1.8", "m1.9", "m2.0"],
                           [i / 10 for i in range(21)]))),
        ("sweep:0:2:0.5", [("m0.0", 0.0), ("m0.5", 0.5), ("m1.0", 1.0), ("m1.5", 1.5),
                           ("m2.0", 2.0)]),
        # 3 * 0.1 is 0.30000000000000004: each multiplier is rounded to 10 decimals.
        ("sweep:0:0.3:0.1", [("m0.0", 0.0), ("m0.1", 0.1), ("m0.2", 0.2), ("m0.3", 0.3)]),
        ("m:1.5", [("m1.5", 1.5)]),
        ("m:0", [("m0.0", 0.0)]),
    ])
    def test_token_parses_to_spec(self, token, spec):
        """Each token parses to the (scenario id, multiplier or None) it runs."""
        assert _scenario_plan(token) == spec

    def test_bad_token_rejected_before_reading_data(self, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(tmp_path / "absent"),
                                   "--out", str(tmp_path / "x"), "--scenario", "m:abc"])
        assert code == 2
        assert "multiplier must be numeric" in stderr

    def test_empty_sweep_rejected_before_reading_data(self, tmp_path):
        with pytest.raises(UsageError, match="^scenario 'sweep:0.5:0.25:1' produced no "):
            _scenario_plan("sweep:0.5:0.25:1")
        code, _, stderr = run_cli(["--data-dir", str(tmp_path / "absent"),
                                   "--out", str(tmp_path / "x"), "--scenario", "sweep:0.5:0.25:1"])
        assert code == 2
        assert stderr == "error: scenario 'sweep:0.5:0.25:1' produced no scenarios\n"
        assert not (tmp_path / "x").exists()

    def test_empty_sweep_is_a_usage_error(self, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(TINY), "--out", str(tmp_path / "x"),
                                   "--scenario", "sweep:0.5:0.25:1"])
        assert code == 2
        assert "produced no scenarios" in stderr

    def test_missing_data_dir_flag(self, tmp_path):
        code, _, stderr = run_cli(["--out", str(tmp_path / "x")],
                                  env_extra={"DEMOTREND_DATA_DIR": ""})
        assert code == 2
        assert "data-dir" in stderr


class TestDataErrors:
    def test_mortality_rate_above_one(self, tmp_path):
        data_dir = tmp_path / "tiny"
        shutil.copytree(TINY, data_dir)
        rates = data_dir / "rates.csv"
        lines = rates.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if ",Mortality," in line)
        lines[row] = lines[row].rsplit(",", 1)[0] + ",1.7"
        rates.write_text("\n".join(lines) + "\n")
        code, _, stderr = run_cli(["--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"rates.csv:{row + 1}:" in stderr and "1.7" in stderr

    def test_missing_input_file(self, tmp_path):
        rows = minimal_rows()
        del rows["rates.csv"]
        data_dir = write_rows(tmp_path, rows)
        code, _, stderr = run_cli(["--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "out")])
        assert code == 1
        assert "rates.csv" in stderr

    def test_schema_violation_reports_location(self, tmp_path):
        rows = minimal_rows()
        rows["gdp_hist.csv"].append("AAA,2000,zero")
        data_dir = write_rows(tmp_path, rows)
        code, _, stderr = run_cli(["--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "out")])
        assert code == 1
        assert "gdp_hist.csv" in stderr and "zero" in stderr

    def test_missing_base_population(self, tmp_path):
        rows = minimal_rows()
        rows["countries.csv"].append("BBB,Bet,High,NorthAmerica")
        rows["gdp_hist.csv"].append("BBB,1990,20000")
        rows["gdp_hist.csv"].append("BBB,2015,30000")
        rows["gdp_baseline.csv"].extend(
            f"BBB,{y},{30000 + 100 * (y - 2015)}"
            for y in list(range(2015, 2096, 10)) + [2100])
        rows["rates.csv"].append("BBB,1990,Fertility,20-24,Female,0.1")
        rows["rates.csv"].append("BBB,1990,Mortality,0-4,Both,0.01")
        data_dir = write_rows(tmp_path, rows)
        code, _, stderr = run_cli(["--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "out")])
        assert code == 1
        assert "BBB" in stderr

    def test_huge_gdp_year_is_a_data_error(self, tmp_path):
        data_dir = tmp_path / "tiny"
        shutil.copytree(TINY, data_dir)
        with open(data_dir / "gdp_hist.csv", "a") as handle:
            handle.write(f"AAA,1{'0' * 400},900\n")
        code, _, stderr = run_cli(["--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "out")])
        assert code == 1, stderr
        assert "gdp_hist.csv:" in stderr and "year must lie in 1000-9999" in stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("out_format", ["csv", "csv+svg"])
    @pytest.mark.parametrize("flag,value,year", [("--srb", "1e308", 2016),
                                                 ("--fertility-cap", "1e-300", 2020)])
    def test_overflowing_projection_is_a_data_error(self, tmp_path, flag, value, year,
                                                    out_format, jobs):
        """A population that overflows is reported once, at its first year, with
        no numpy warning and no file left; from a worker too."""
        out = tmp_path / "nest" / "out"
        code, stdout, stderr = run_cli(["--data-dir", str(TINY), "--out", str(out), flag, value,
                                        "--format", out_format, "--jobs", jobs,
                                        "--dump-donors", "--dump-ensembles"])
        assert (code, stdout) == (1, "")
        assert stderr == f"error: AAA/baseline: projected population is not finite in {year}\n"
        assert not (tmp_path / "nest").exists()

    def test_large_finite_flags_still_run(self, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(TINY), "--out", str(tmp_path / "out"),
                                   "--srb", "1e100", "--fertility-cap", "1e-3",
                                   "--format", "csv"])
        assert (code, stderr) == (0, "")
        rows = read_csv(tmp_path / "out" / "trajectories.csv")
        assert rows and all(math.isfinite(float(row["population"])) for row in rows)

    def test_unknown_country_rows_warn_but_run(self, tmp_path):
        rows = minimal_rows()
        rows["rates.csv"].append("QQQ,1990,Fertility,20-24,Female,0.3")
        data_dir = write_rows(tmp_path, rows)
        code, _, stderr = run_cli(["--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "out"),
                                   "--format", "csv"])
        assert code == 0
        assert "warning" in stderr and "QQQ" in stderr
        assert (tmp_path / "out" / "summary.csv").exists()


def tiny_without_20_24_fertility(tmp_path, *countries):
    """A copy of the tiny fixture in which each of ``countries`` fails to fit."""
    data_dir = tmp_path / "tiny"
    shutil.copytree(TINY, data_dir)
    rates = data_dir / "rates.csv"
    rates.write_text("".join(line for line in rates.read_text().splitlines(True)
                             if line[:3] not in countries or ",20-24," not in line))
    return data_dir


class TestWriteFailures:
    """A failed write exits 1 and leaves no output file, dumps included."""

    @pytest.mark.parametrize("name", ["donors.csv", "ensembles.csv", "run_manifest.json",
                                      "trajectories.csv"])
    def test_unwritable_output_removes_every_file(self, tmp_path, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code, _, stderr = run_cli(["--data-dir", str(TINY), "--out", str(out),
                                   "--scenario", "sweep:0:2:1",
                                   "--dump-donors", "--dump-ensembles"])
        assert code == 1, stderr
        assert stderr.startswith(f"error: failed writing outputs to {out}:"), stderr
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_data_error_for_a_later_country_leaves_no_dump(self, tmp_path, jobs):
        """CCC, the last country, has no 20-24 fertility history: the dump rows
        already written for AAA and BBB are removed."""
        data_dir = tiny_without_20_24_fertility(tmp_path, "CCC")
        out = tmp_path / "out"
        code, _, stderr = run_cli(["--data-dir", str(data_dir), "--out", str(out),
                                   "--jobs", jobs, "--dump-donors", "--dump-ensembles"])
        assert code == 1
        assert stderr == "error: CCC: no usable Fertility history for 20-24\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_data_error_removes_every_directory_it_made(self, tmp_path, jobs):
        data_dir = tiny_without_20_24_fertility(tmp_path, "CCC")
        code, _, stderr = run_cli(["--data-dir", str(data_dir), "--out", "nest/a/b",
                                   "--jobs", jobs, "--dump-donors"], cwd=tmp_path)
        assert stderr == "error: CCC: no usable Fertility history for 20-24\n"
        assert code == 1
        assert not (tmp_path / "nest").exists()

    def test_data_error_keeps_an_existing_ancestor(self, tmp_path):
        data_dir = tiny_without_20_24_fertility(tmp_path, "CCC")
        (tmp_path / "nest").mkdir()
        code, _, stderr = run_cli(["--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "nest" / "a" / "b"),
                                   "--dump-donors"])
        assert stderr == "error: CCC: no usable Fertility history for 20-24\n"
        assert code == 1
        assert (tmp_path / "nest").is_dir() and not any((tmp_path / "nest").iterdir())

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_data_error_keeps_an_existing_empty_out(self, tmp_path, jobs):
        """A failed run removes only what it made: an --out that was already
        there stays, empty."""
        data_dir = tiny_without_20_24_fertility(tmp_path, "CCC")
        out = tmp_path / "out"
        out.mkdir()
        code, _, stderr = run_cli(["--data-dir", str(data_dir), "--out", str(out),
                                   "--jobs", jobs, "--dump-donors", "--dump-ensembles"])
        assert code == 1, stderr
        assert out.is_dir() and not any(out.iterdir())


def tiny_config(out, jobs, **overrides):
    from demotrend.cli import RunConfig

    return RunConfig(**{"data_dir": str(TINY), "out_dir": str(out), "scenario": "sweep:0:2:1",
                        "dump_donors": True, "dump_ensembles": True, "jobs": jobs,
                        **overrides})


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class Unrebuildable(Exception):
    """An error that pickles but cannot be rebuilt from its pickle."""

    def __init__(self, country, why):
        super().__init__(f"{country}: {why}")


class Unpicklable(Exception):
    """An error that holds a lambda, which pickle refuses."""

    def __init__(self, country, why):
        super().__init__(country, why)
        self.hook = lambda: None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs forks its workers")
class TestForkedWorkers:
    """``--jobs`` above 1 forks workers: results come back in country order
    through spool files, and no worker, pipe or spool outlives a run."""

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_first_failing_country_in_order_is_reported(self, tmp_path, jobs):
        data_dir = tiny_without_20_24_fertility(tmp_path, "BBB", "CCC")
        code, stdout, stderr = run_cli(["--data-dir", str(data_dir),
                                        "--out", str(tmp_path / "out"), "--jobs", jobs])
        assert (code, stdout) == (1, "")
        assert stderr == "error: BBB: no usable Fertility history for 20-24\n"

    # --jobs 2 and 3 are compared with 1 in TestRandomDatasetProperties and TestDeterminism.
    @pytest.mark.parametrize("jobs", ["8", "auto"])
    def test_more_workers_write_the_same_bytes(self, tmp_path, jobs):
        """More workers than countries, and as many as the CPUs."""
        args = ["--data-dir", str(TINY), "--scenario", "sweep:0:2:1",
                "--aggregate", "world,country", "--dump-donors", "--dump-ensembles"]
        runs = {name: run_cli([*args, "--out", str(tmp_path / name), "--jobs", name])
                for name in ("1", jobs)}
        assert all(code == 0 for code, _, _ in runs.values()), runs
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / jobs).iterdir())
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / jobs / name).read_bytes(), name

    def test_jobs_run_imports_no_pool_modules(self, tmp_path):
        script = ("import sys\n"
                  "from demotrend.cli import main\n"
                  f"code = main(['--data-dir', {str(TINY)!r}, '--out', "
                  f"{str(tmp_path / 'out')!r}, '--jobs', '2'])\n"
                  "assert code == 0, code\n"
                  "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
                  "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary.csv").is_file()

    def test_in_process_run_leaves_no_child_and_no_descriptor(self, tmp_path):
        from demotrend import cli

        before = open_fds()
        written = cli.run(tiny_config(tmp_path / "ok", 2))
        assert {p.name for p in written} >= {"donors.csv", "ensembles.csv", "summary.csv"}
        assert_no_child()
        assert open_fds() == before

        config = tiny_config(tmp_path / "bad", 3, data_dir=str(
            tiny_without_20_24_fertility(tmp_path, "BBB")))
        with pytest.raises(cli.DemotrendError, match="^BBB: no usable Fertility history"):
            cli.run(config)
        assert_no_child()
        assert open_fds() == before
        assert not (tmp_path / "bad").exists()

    def test_killed_worker_is_an_internal_error(self, tmp_path, monkeypatch):
        """Workers inherit the patched ``_project_one``: the one that takes BBB
        kills itself, and the run fails once the others have run out of work."""
        from demotrend import cli

        project_one = cli._project_one

        def dies_on_bbb(payload, iso3):
            if iso3 == "BBB":
                os.kill(os.getpid(), signal.SIGKILL)
            return project_one(payload, iso3)

        monkeypatch.setattr(cli, "_project_one", dies_on_bbb)
        before = open_fds()
        with deadline(30), pytest.raises(RuntimeError, match="^a --jobs worker exited "
                                                             "without a result for BBB$"):
            cli.run(tiny_config(tmp_path / "out", 2))
        assert not (tmp_path / "out").exists()
        assert_no_child()
        assert open_fds() == before

    def test_first_failure_kills_busy_workers(self, tmp_path, monkeypatch):
        """AAA fails at once while the other workers are busy for 90 s: the
        run raises without waiting for them."""
        from demotrend import cli

        def aaa_fails_bbb_hangs(payload, iso3):
            if iso3 == "AAA":
                raise cli.SchemaViolation("rates.csv", 0, "AAA fails")
            time.sleep(90)

        monkeypatch.setattr(cli, "_project_one", aaa_fails_bbb_hangs)
        with deadline(30), pytest.raises(cli.SchemaViolation, match="AAA fails"):
            cli.run(tiny_config(tmp_path / "out", 3))
        assert not (tmp_path / "out").exists()
        assert_no_child()

    @pytest.mark.parametrize("error", [ValueError, Unrebuildable, Unpicklable])
    def test_worker_exception_is_exit_3_with_its_traceback(self, tmp_path, monkeypatch,
                                                          capsys, error):
        from demotrend import cli

        project_one = cli._project_one

        def fails_on_ccc(payload, iso3):
            if iso3 == "CCC":
                raise error("CCC", "raised in the worker")
            return project_one(payload, iso3)

        monkeypatch.setattr(cli, "_project_one", fails_on_ccc)
        code = cli.main(["--data-dir", str(TINY), "--out", str(tmp_path / "out"),
                         "--jobs", "2", "--dump-donors"])
        stderr = capsys.readouterr().err
        assert code == 3
        assert "CCC failed in a --jobs worker:" in stderr
        assert "in fails_on_ccc" in stderr and "raised in the worker" in stderr
        assert not (tmp_path / "out").exists()
        assert_no_child()

    def test_tasks_beyond_one_atomic_write_are_sent_after_forking(self, tmp_path,
                                                                   monkeypatch):
        """With room for one index before the fork, the parent writes the rest
        once workers read; the outputs do not change."""
        from demotrend import cli

        expected = {p.name: p.read_bytes() for p in cli.run(tiny_config(tmp_path / "j1", 1))}
        monkeypatch.setattr(cli.os, "fpathconf", lambda fd, name: cli._TASK.size)
        written = cli.run(tiny_config(tmp_path / "j2", 2))
        assert {p.name: p.read_bytes() for p in written} == expected
        assert_no_child()

    @pytest.mark.parametrize("started", [0, 1])
    def test_failed_worker_start_is_an_internal_error(self, tmp_path, monkeypatch, capsys,
                                                      started):
        """``os.fork`` fails after ``started`` workers: exit 3, not a write
        failure, and the started worker, pipes and spools are gone."""
        from demotrend import cli

        fork, calls = os.fork, []

        def fork_fails():
            calls.append(None)
            if len(calls) > started:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", fork_fails)
        before = open_fds()
        code = cli.main(["--data-dir", str(TINY), "--out", str(tmp_path / "out"),
                         "--jobs", "3", "--dump-donors"])
        stderr = capsys.readouterr().err
        assert code == 3
        assert (f"RuntimeError: could not start --jobs workers: [Errno {errno.EAGAIN}] "
                f"{os.strerror(errno.EAGAIN)}\n") in stderr
        assert "failed writing outputs" not in stderr
        assert not (tmp_path / "out").exists()
        assert_no_child()
        assert open_fds() == before

    def test_runs_serially_without_fork(self, tmp_path, monkeypatch):
        from demotrend import cli

        expected = {p.name: p.read_bytes() for p in cli.run(tiny_config(tmp_path / "j1", 1))}
        monkeypatch.delattr(os, "fork")
        written = cli.run(tiny_config(tmp_path / "j2", 2))
        assert {p.name: p.read_bytes() for p in written} == expected

    def test_caller_gc_state_is_kept(self, tmp_path):
        """A library caller's collector is as it was after the run; a heap the
        caller froze stays frozen."""
        import gc

        from demotrend import cli

        assert gc.get_freeze_count() == 0
        cli.run(tiny_config(tmp_path / "thawed", 2))
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            cli.run(tiny_config(tmp_path / "frozen", 2))
            assert gc.get_freeze_count() >= frozen
        finally:
            gc.unfreeze()


class TestJobsAuto:
    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch, tmp_path):
        from demotrend import cli

        monkeypatch.setattr(cli, "CGROUP_DIR", tmp_path)  # no quota files
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        args = cli._build_parser().parse_args(["--data-dir", "d", "--out", "o",
                                               "--jobs", "auto"])
        assert cli._config_from_args(args).jobs == 1

    def test_auto_falls_back_to_the_cpu_count(self, monkeypatch, tmp_path):
        from demotrend import cli

        monkeypatch.setattr(cli, "CGROUP_DIR", tmp_path)  # no quota files
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        args = cli._build_parser().parse_args(["--data-dir", "d", "--out", "o",
                                               "--jobs", "auto"])
        assert cli._config_from_args(args).jobs == 3


class TestJobsAutoQuota:
    """``--jobs auto`` takes the smaller of the affinity count and a cgroup
    CPU quota, read from fake cgroup files here."""

    @pytest.mark.parametrize("files,expected", [
        ({}, 4),
        ({"cpu.max": "max 100000\n"}, 4),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "100000 100000\n"}, 1),
        ({"cpu.max": "1000 100000\n"}, 1),
        ({"cpu.max": "900000 100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({"cpu/cpu.cfs_quota_us": "50000\n"}, 4),
    ])
    def test_quota_caps_the_affinity_count(self, tmp_path, monkeypatch, files, expected):
        from demotrend import cli

        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(cli, "CGROUP_DIR", tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        args = cli._build_parser().parse_args(["--data-dir", "d", "--out", "o",
                                               "--jobs", "auto"])
        assert cli._config_from_args(args).jobs == expected
