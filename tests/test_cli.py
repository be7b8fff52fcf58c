import builtins
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demotrend.cli import RunConfig, UsageError, _build_parser, _config_from_args, _scenario_plan
from demotrend.models import COEF_FIELDS, FORM_ORDER
from demotrend.report import SCOPE_KINDS

import seed_oracle
from conftest import SYNTH, TINY, minimal_rows, run_cli, world_like, write_rows


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

    def test_ensemble_dump_fills_the_columns_of_each_form(self, baseline_run):
        """A member's weight, sigma and aicc are always filled, and a
        coefficient cell only where ``COEF_FIELDS`` holds the header's field
        in that column: the spline's right slope and the null mean are blank."""
        coefficients = {"Null": (), "Linear": ("beta1", "beta2"),
                        "Division": ("beta1", "beta2"), "NegLog": ("beta1", "beta2"),
                        "NegPower": ("beta1", "beta2", "beta3"),
                        "LinearSpline": ("beta1", "beta2", "x1"),
                        "RightHinge": ("beta1", "beta2", "x1"),
                        "LeftHinge": ("beta1", "beta2", "x1")}
        header = {"beta1": "beta1", "beta2": "beta2", "beta3": "beta3", "x1": "breakpoint_x1"}
        for form in FORM_ORDER:
            assert coefficients[form.value] == tuple(
                column for (column, name), field in zip(header.items(), COEF_FIELDS[form])
                if field == name), form
        filled = {}
        for r in read_csv(baseline_run / "ensembles.csv"):
            cells = ("weight", *header, "sigma", "aicc")
            filled.setdefault(r["form"], set()).add(tuple(c for c in cells if r[c] != ""))
        assert filled == {form: {("weight", *columns, "sigma", "aicc")}
                          for form, columns in coefficients.items()}

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

    def test_config_records_every_setting_that_can_change_results(self, baseline_run):
        """The settings are read from ``RunConfig``'s fields: a new one is
        recorded without naming it, and only jobs and out_dir are left out."""
        config = json.loads((baseline_run / "run_manifest.json").read_text())["config"]
        fields = set(RunConfig._fields) - {"jobs", "out_dir", "out_format"}
        assert set(config) == fields | {"format"}
        assert config["format"] == "csv+svg"

    def test_input_digests(self, baseline_run):
        manifest = json.loads((baseline_run / "run_manifest.json").read_text())
        assert sorted(manifest["inputs"]) == [
            "base_pop.csv", "countries.csv", "gdp_baseline.csv",
            "gdp_hist.csv", "rates.csv"]
        for name, digest in manifest["inputs"].items():
            assert digest == hashlib.sha256((TINY / name).read_bytes()).hexdigest(), name

    def test_hashlib_fallback_writes_the_same_manifest(self, baseline_run, tmp_path):
        """An interpreter without the built-in SHA-256 module hashes through
        hashlib, to the same bytes."""
        script = ("import sys\n"
                  "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                  "from demotrend import cli, data_ingest\n"
                  "import hashlib\n"
                  "assert data_ingest.sha256 is hashlib.sha256, data_ingest.sha256\n"
                  f"code = cli.main(['--data-dir', {str(TINY)!r}, '--out', "
                  f"{str(tmp_path / 'out')!r}, '--dump-donors', '--dump-ensembles'])\n"
                  "assert code == 0, code\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run_manifest.json").read_bytes() == \
            (baseline_run / "run_manifest.json").read_bytes()

    def test_sha2_module_writes_the_same_manifest(self, baseline_run, tmp_path):
        """CPython 3.12+ names its built-in SHA-256 module ``_sha2``: with a
        stand-in ``_sha2`` that exposes the built-in function, and no
        ``_sha256``, the run hashes with that function, to the same bytes."""
        script = ("import sys, types\n"
                  "try:\n"
                  "    import _sha256 as builtin\n"
                  "except ImportError:\n"
                  "    import _sha2 as builtin\n"
                  "stand_in = types.ModuleType('_sha2')\n"
                  "stand_in.sha256 = builtin.sha256\n"
                  "sys.modules['_sha2'], sys.modules['_sha256'] = stand_in, None\n"
                  "from demotrend import cli, data_ingest\n"
                  "assert data_ingest.sha256 is stand_in.sha256, data_ingest.sha256\n"
                  f"code = cli.main(['--data-dir', {str(TINY)!r}, '--out', "
                  f"{str(tmp_path / 'out')!r}, '--dump-donors', '--dump-ensembles'])\n"
                  "assert code == 0, code\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run_manifest.json").read_bytes() == \
            (baseline_run / "run_manifest.json").read_bytes()

    def test_digests_are_of_the_bytes_loaded(self, tmp_path, monkeypatch):
        """An input rewritten after ingest does not change the manifest."""
        from demotrend import cli

        data_dir = tmp_path / "data"
        shutil.copytree(TINY, data_dir)
        rates = data_dir / "rates.csv"
        loaded = hashlib.sha256(rates.read_bytes()).hexdigest()
        build_baselines = cli.build_baselines

        def rewrite_then_build(*args):
            rates.write_text("rewritten during the run\n")
            return build_baselines(*args)

        monkeypatch.setattr(cli, "build_baselines", rewrite_then_build)
        cli.run(cli.RunConfig(data_dir=str(data_dir), out_dir=str(tmp_path / "out")))
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert rates.read_text() == "rewritten during the run\n"
        assert manifest["inputs"]["rates.csv"] == loaded

    def test_digests_are_of_the_bytes_parsed(self, tmp_path, monkeypatch):
        """An input rewritten after ingest has parsed it, while ingest still
        reads the later files, keeps the digest of the bytes parsed."""
        from demotrend import cli, data_ingest

        data_dir = tmp_path / "data"
        shutil.copytree(TINY, data_dir)
        rates = data_dir / "rates.csv"
        parsed = hashlib.sha256(rates.read_bytes()).hexdigest()
        load_gdp = data_ingest._load_gdp

        def rewrite_then_load(rows):
            rates.write_text("rewritten during ingest\n")
            return load_gdp(rows)

        monkeypatch.setattr(data_ingest, "_load_gdp", rewrite_then_load)
        cli.run(cli.RunConfig(data_dir=str(data_dir), out_dir=str(tmp_path / "out")))
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert rates.read_text() == "rewritten during ingest\n"
        assert manifest["inputs"]["rates.csv"] == parsed

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

    def test_import_leaves_worker_pools_unloaded(self, tmp_path):
        """Single-job runs never pay for importing ``concurrent.futures``, and
        runs without an internal error never import ``traceback``. Neither
        the import nor ingest, which hashes each input, loads OpenSSL."""
        script = ("import sys\n"
                  "import demotrend.cli\n"
                  "from demotrend.data_ingest import load_dataset\n"
                  f"load_dataset({str(TINY)!r})\n"
                  f"code = demotrend.cli.main(['--data-dir', {str(TINY)!r}, '--out', "
                  f"{str(tmp_path / 'out')!r}])\n"
                  "assert code == 0, code\n"
                  "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n"
                  "assert 'traceback' not in sys.modules, 'traceback was imported'\n"
                  "loaded = {'_hashlib', 'ssl'} & set(sys.modules)\n"
                  "assert not loaded, loaded\n")
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
        """Records are built without ``dataclasses`` or ``namedtuple``, whose
        generated methods are compiled from source at each import."""
        script = ("import sys\n"
                  "import numpy\n"
                  "compiled = []\n"
                  "sys.addaudithook(lambda event, args: compiled.append(args[0])\n"
                  "                 if event == 'compile' and args[1] == '<string>' else None)\n"
                  "import demotrend.cli\n"
                  "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
                  "assert not compiled, compiled\n")
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

    def test_worker_count_invisible_with_several_donors(self, tmp_path):
        """The tiny and four-country sets give a country at most one donor per
        scenario; a world-like set gives it up to six."""
        data_dir = SYNTH.write_dataset(tmp_path / "data", world_like(12), "mixed", 0)
        outputs = {jobs: sweep_outputs(data_dir, tmp_path / f"j{jobs}", jobs) for jobs in (1, 3)}
        assert outputs[1] == outputs[3]
        donors = [tuple(line.split(b",")[:2]) for line in outputs[1]["donors.csv"].splitlines()]
        assert max(map(donors.count, donors)) > 1


class TestSeedProjection:
    """Every country's (S, T+1) totals and donor lists of a ``sweep:0:2:1``
    run equal the frozen seed's ``cli._project_one``, with ``==``: a one-ulp
    change from ingest to projection fails here, where the 6 printed digits
    of the outputs would hide it."""

    @pytest.mark.parametrize("data", ["tiny", "synth"])
    def test_totals_and_donors_equal_the_seed(self, data, seed_sweeps):
        (totals, donors, _), (seed_totals, seed_donors, _) = seed_sweeps(data)
        assert totals.keys() == seed_totals.keys() and len(totals) > 1
        for iso3, series in totals.items():
            assert series.shape == (3, 86) and np.array_equal(series, seed_totals[iso3]), iso3
        assert donors == seed_donors and donors


class TestNoSelfDonor:
    def test_target_inside_its_own_corridor_is_not_its_donor(self, tmp_path):
        """With AAA's 1990-2015 GDP raised by half, its history lies inside its
        own m1.0 and m2.0 corridors; it still borrows only from the others,
        as in the seed."""
        from demotrend.augmentation import DonorRule, select_donors
        from demotrend.data_ingest import load_dataset
        from demotrend.scenarios import build_baselines

        data_dir = tmp_path / "tiny"
        shutil.copytree(TINY, data_dir)
        path = data_dir / "gdp_hist.csv"
        path.write_text(re.sub(r"(?m)^AAA,(199\d|20(0\d|1[0-5])),(.*)$",
                               lambda m: f"AAA,{m[1]},{float(m[3]) * 1.5!r}", path.read_text()))
        dataset = load_dataset(data_dir)
        pathway = build_baselines(dataset)["AAA"]
        rule = DonorRule(pathway.gdp(2015), pathway.max_gdp())
        assert select_donors(rule, {"AAA": dataset.gdp_hist_series("AAA")}) == ["AAA"]

        written = sweep_outputs(data_dir, tmp_path / "out")
        donors = written["donors.csv"].decode().splitlines()[1:]
        assert all(line.split(",")[1] != line.split(",")[2] for line in donors)
        assert donors == seed_oracle.project(data_dir, "sweep:0:2:1")[1]


def sweep_outputs(data_dir, out, jobs=1):
    """Each output file's bytes, by name, of an in-process ``sweep:0:2:1`` run
    with every scope and both dumps."""
    from demotrend import cli

    config = tiny_config(out, jobs, data_dir=str(data_dir), aggregate=SCOPE_KINDS)
    return {p.name: p.read_bytes() for p in cli.run(config)}


@pytest.fixture(scope="module")
def ladder_run(tmp_path_factory):
    """An eight-country synth-mixed ladder set, and its ``sweep_outputs`` by
    ``--jobs``."""
    root = tmp_path_factory.mktemp("ladder")
    data_dir = SYNTH.write_dataset(root / "data", SYNTH.ladder_countries(8), "mixed", 0)
    return data_dir, {jobs: sweep_outputs(data_dir, root / f"j{jobs}", jobs) for jobs in (1, 2)}


class TestLocalityInvariant:
    """Removing a country that no other country borrows as a donor leaves the
    rows of every other country byte-identical: its ``country``-scope
    trajectories, sensitivity, donors and ensembles."""

    @staticmethod
    def rows(outputs, keep):
        return [line for name, column in (("trajectories.csv", 0), ("sensitivity.csv", 0),
                                          ("donors.csv", 1), ("ensembles.csv", 1))
                for line in outputs[name].splitlines() if line.split(b",")[column] in keep]

    def test_other_countries_rows_unchanged(self, ladder_run, tmp_path):
        data_dir, full = ladder_run
        countries = {line.split(b",")[0]
                     for line in (data_dir / "countries.csv").read_bytes().splitlines()[1:]}
        borrowed = {line.split(b",")[2] for line in full[1]["donors.csv"].splitlines()[1:]}
        assert len(countries - borrowed) == 3  # the three poorest rungs
        for gone in sorted(countries - borrowed):
            without = tmp_path / gone.decode()
            without.mkdir()
            for src in data_dir.iterdir():
                lines = src.read_bytes().splitlines(keepends=True)
                (without / src.name).write_bytes(
                    b"".join(line for line in lines if not line.startswith(gone + b",")))
            keep = countries - {gone}
            for jobs in (1, 2):
                outputs = sweep_outputs(without, without / f"j{jobs}", jobs)
                assert self.rows(outputs, keep) == self.rows(full[jobs], keep), (gone, jobs)
                assert not self.rows(outputs, {gone})


class TestOrderInvariant:
    """Shuffling the data rows of every input file changes no output byte but
    the input digests and the data directory of ``run_manifest.json``."""

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shuffled_rows_change_no_output_byte(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        root = tmp_path_factory.mktemp("shuffled")
        for src in TINY.iterdir():
            header, *rows = src.read_text(encoding="utf-8").splitlines()
            rows = [rows[i] for i in rng.permutation(len(rows))]
            (root / src.name).write_text("\n".join([header, *rows, ""]), encoding="utf-8")
        runs = [sweep_outputs(data_dir, root / name)
                for name, data_dir in (("tiny", TINY), ("shuffled", root))]
        for outputs in runs:
            manifest = json.loads(outputs.pop("run_manifest.json"))
            del manifest["inputs"], manifest["config"]["data_dir"]
            outputs["run_manifest.json"] = manifest
        assert runs[0] == runs[1] and len(runs[0]) == 9


def tiny_with(tmp_path, name, line, replacement):
    """A copy of the tiny fixture with each whole line of ``name`` that the
    pattern ``line`` matches replaced (``re.sub``) by ``replacement``."""
    data_dir = tmp_path / "tiny"
    shutil.copytree(TINY, data_dir)
    path = data_dir / name
    text, count = re.subn(f"(?m)^{line}$", replacement, path.read_text())
    assert count
    path.write_text(text)
    return data_dir


def extreme_cell(seed):
    """A data row number and a value drawn log-uniform from 5e-324 (subnormal)
    to 1.7e308."""
    rng = np.random.default_rng(seed)
    return int(rng.integers(1 << 20)), 10.0 ** rng.uniform(-323.3, 308.23)


class TestWarningsAsErrors:
    """Runs with warnings as errors: a full sweep with every scope and both
    dumps, serial and forked, under ``-X dev -W error`` (the command line that
    CI smoke-runs), and runs with one extreme input cell."""

    @pytest.mark.parametrize("name,line,replacement,expected", [
        (None, None, None, (0, "")),
        # The breakpoint screens overflow in x.x and in their cross products.
        ("gdp_hist.csv", "AAA,1955,621.63", "AAA,1955,1e200", (0, "")),
        ("gdp_hist.csv", "AAA,1955,621.63", "AAA,1955,1e307", (0, "")),
        # A subnormal anchor's growth ratio overflows between anchors.
        ("gdp_baseline.csv", "AAA,2025,1661.44", "AAA,2025,1e-320",
         (1, "error: AAA/baseline: pathway values must be positive and finite\n")),
        # Anchors of 1e-300 overflow the NegPower rate forecasts.
        ("gdp_baseline.csv", r"(\w+,\d+),.*", r"\1,1e-300",
         (1, "error: AAA/m0.0: rate forecast is not finite at GDP per capita 1e-300\n")),
        # Growth ratios near 1e-24 up to 2025: m1.0 follows them, m1.1 cannot.
        ("gdp_baseline.csv", "CCC,2025,37291.28", "CCC,2025,1.78e-233",
         (1, "error: CCC: multiplier 1.1 drives GDP non-positive in year 2016\n")),
    ], ids=["tiny", "gdp-1e200", "gdp-1e307", "anchor-1e-320", "anchors-1e-300",
            "anchor-1.78e-233"])
    def test_sweep_warns_nothing_and_jobs_write_the_same_bytes(self, tmp_path, name, line,
                                                               replacement, expected):
        data_dir = TINY if name is None else tiny_with(tmp_path, name, line, replacement)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            code, _, stderr = run_cli(
                ["--data-dir", str(data_dir), "--out", str(out), "--scenario", "sweep",
                 "--aggregate", ",".join(SCOPE_KINDS), "--dump-donors", "--dump-ensembles",
                 "--jobs", jobs],
                env_extra={"PYTHONWARNINGS": "error", "PYTHONDEVMODE": "1"})
            assert (code, stderr) == expected
            outputs.append({p.name: p.read_bytes() for p in out.glob("*")})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == (9 if expected[0] == 0 else 0)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(["rates.csv", "gdp_hist.csv", "gdp_baseline.csv", "base_pop.csv"]),
           cell=st.integers(0, 2**32 - 1).map(extreme_cell))
    @example("rates.csv", (0, 1e200))  # AAA's 1950 fertility rate at 15-19
    @example("base_pop.csv", (0, 1.7e308))
    @example("gdp_baseline.csv", (10, 1e-300))  # BBB's 2015 anchor
    def test_one_extreme_cell(self, tmp_path_factory, name, cell):
        """One numeric cell of the tiny fixture at an extreme value: the run
        exits 0 or 1, no warning reaches stderr, and no output cell is nan or
        inf."""
        row, value = cell
        rows = (TINY / name).read_text().splitlines()[1:]
        key = rows[row % len(rows)].rsplit(",", 1)[0]
        data_dir = tiny_with(tmp_path_factory.mktemp("cell"), name, re.escape(key) + ",.*",
                             f"{key},{value!r}")
        out = data_dir.parent / "out"
        code, _, stderr = run_cli(["--data-dir", str(data_dir), "--out", str(out), "--scenario",
                                   "sweep:0:2:1", "--format", "csv"],
                                  env_extra={"PYTHONWARNINGS": "error"})
        assert code in (0, 1) and "Warning" not in stderr, stderr
        written = {cell for path in out.glob("*.csv")
                   for line in path.read_text().splitlines() for cell in line.split(",")}
        assert not written & {"nan", "inf", "-inf"}


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

    def test_negative_zero_multiplier_runs_as_m0(self, tmp_path):
        for token in ("m:0", "m:-0"):
            code, _, stderr = run_cli(["--data-dir", str(TINY), "--out", str(tmp_path / token),
                                       "--scenario", token, "--format", "csv"])
            assert code == 0, stderr
        for name in ("trajectories.csv", "summary.csv"):
            assert ((tmp_path / "m:-0" / name).read_bytes()
                    == (tmp_path / "m:0" / name).read_bytes())
        rows = read_csv(tmp_path / "m:-0" / "summary.csv")
        assert {r["scenario_id"] for r in rows} == {"m0.0"}

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


# A library RunConfig setting out of range, and the flags that give it.
REJECTED = [
    ({"out_format": "svg"}, ["--format", "svg"]),
    ({"aggregate": ()}, ["--aggregate", ""]),
    ({"aggregate": ("bogus",)}, ["--aggregate", "bogus"]),
    ({"horizon": 2015}, ["--horizon", "2015"]),
    ({"horizon": 2101}, ["--horizon", "2101"]),
    ({"jobs": 0}, ["--jobs", "0"]),
    ({"srb": -1.0}, ["--srb", "-1"]),
    ({"srb": math.nan}, ["--srb", "nan"]),
    ({"fertility_cap": 0.0}, ["--fertility-cap", "0"]),
    ({"fertility_cap": math.nan}, ["--fertility-cap", "nan"]),
    ({"data_dir": ""}, ["--data-dir", ""]),
]


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
        ("m:-0", [("m0.0", 0.0)]),
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

    @pytest.mark.parametrize("token,sid", [
        ("sweep:1:1.000001:0.0000005", "m1"),  # 1.0000005 and 1.000001 both read m1
        ("sweep:0:1e-12:1e-13", "m0.0"),  # eleven multipliers round to 0.0
    ])
    def test_repeated_scenario_id_rejected_before_reading_data(self, tmp_path, token, sid):
        message = f"scenario {token!r} gives two scenarios the id {sid!r}"
        with pytest.raises(UsageError, match=f"^{message}$"):
            _scenario_plan(token)
        code, _, stderr = run_cli(["--data-dir", str(tmp_path / "absent"),
                                   "--out", str(tmp_path / "x"), "--scenario", token])
        assert code == 2
        assert stderr == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_empty_sweep_is_a_usage_error(self, tmp_path):
        code, _, stderr = run_cli(["--data-dir", str(TINY), "--out", str(tmp_path / "x"),
                                   "--scenario", "sweep:0.5:0.25:1"])
        assert code == 2
        assert "produced no scenarios" in stderr

    def test_aggregate_accepts_exactly_the_scope_kinds(self):
        for kind in SCOPE_KINDS:
            assert parsed_config("--aggregate", kind).aggregate == (kind,)
        assert parsed_config("--aggregate", ",".join(SCOPE_KINDS)).aggregate == SCOPE_KINDS
        for bad in ("planet", "World", "countries", "income,regions"):
            with pytest.raises(UsageError, match="^--aggregate accepts world, income, "
                                                 "region, country$"):
                parsed_config("--aggregate", bad)

    @pytest.mark.parametrize("setting,flags", REJECTED, ids=[repr(s) for s, _ in REJECTED])
    def test_run_config_rejects_what_the_command_line_rejects(self, tmp_path, capsys,
                                                              setting, flags):
        """A library ``RunConfig`` raises the ``UsageError`` that the command
        line prints, before ``run`` reads any input or writes any file."""
        from demotrend import cli

        out = tmp_path / "x"
        with pytest.raises(UsageError) as raised:
            RunConfig(**{"data_dir": str(TINY), "out_dir": str(out), **setting})
        assert cli.main(["--data-dir", str(TINY), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("setting,flag", [({"jobs": 1.5}, "--jobs"),
                                              ({"jobs": True}, "--jobs"),
                                              ({"horizon": 2050.5}, "--horizon")],
                             ids=["jobs=1.5", "jobs=True", "horizon=2050.5"])
    def test_run_config_requires_integer_settings(self, tmp_path, setting, flag):
        """A library ``RunConfig`` takes only an ``int`` (not a ``bool``) for
        ``jobs`` and ``horizon``, where the command line parses an integer."""
        with pytest.raises(UsageError, match=f"^{flag} must be an integer, got "):
            RunConfig(**{"data_dir": str(TINY), "out_dir": str(tmp_path / "x"), **setting})

    TYPED = [({"scenario": 5}, "--scenario must be a string, got 5"),
             ({"srb": "1.05"}, "--srb must be a number, got '1.05'"),
             ({"fertility_cap": None}, "--fertility-cap must be a number, got None"),
             ({"dump_donors": "no"}, "--dump-donors must be true or false, got 'no'"),
             ({"dump_ensembles": 1}, "--dump-ensembles must be true or false, got 1"),
             ({"srb": True}, "--srb must be a number, got True"),
             ({"out_dir": 7}, "--out must be a string, got 7"),
             ({"data_dir": 7}, "--data-dir must be a string, got 7"),
             ({"data_dir": Path("D")}, f"--data-dir must be a string, got {Path('D')!r}"),
             ({"out_format": b"csv"}, "--format must be a string, got b'csv'"),
             ({"aggregate": ["world"]}, "--aggregate accepts world, income, region, country")]

    @pytest.mark.parametrize("setting,message", TYPED, ids=[repr(s) for s, _ in TYPED])
    def test_run_config_requires_the_types_the_command_line_parses(self, tmp_path, setting,
                                                                   message):
        """A library ``RunConfig`` takes only the types argparse gives: ``str``
        paths, scenario and format, real numbers (not ``bool``) for the cap
        and srb, ``bool`` dump flags and a tuple of scope kinds."""
        out = tmp_path / "x"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            RunConfig(**{"data_dir": str(TINY), "out_dir": str(out), **setting})
        assert not out.exists()

    def test_run_config_takes_numpy_numbers(self):
        config = RunConfig(data_dir="D", out_dir="O", srb=np.float64(1.05), fertility_cap=30000)
        assert config.srb == 1.05 and config.fertility_cap == 30000

    def test_missing_data_dir_flag(self, tmp_path):
        code, _, stderr = run_cli(["--out", str(tmp_path / "x")],
                                  env_extra={"DEMOTREND_DATA_DIR": ""})
        assert code == 2
        assert "data-dir" in stderr


def parsed_config(*flags):
    """The RunConfig of ``--data-dir D --out O`` and ``flags``."""
    return _config_from_args(_build_parser().parse_args(["--data-dir", "D", "--out", "O",
                                                         *flags]))


class TestFlagDefaults:
    def test_defaults_are_the_run_config_defaults(self):
        assert parsed_config() == RunConfig(data_dir="D", out_dir="O")

    def test_help_shows_the_run_config_defaults(self):
        text = " ".join(_build_parser().format_help().split())
        for flag_help in ("(default: baseline)", "(default: 30000)", "(default: 1.05)",
                          "(default: 2100)", "(default: world,income,region)",
                          "'auto' (default: 1)"):
            assert flag_help in text


def assert_one_error_line(data_dir, out, message):
    """A run on ``data_dir`` exits 1 with ``error: message`` as its whole
    stderr, no traceback, and leaves no ``out``."""
    code, _, stderr = run_cli(["--data-dir", str(data_dir), "--out", str(out)])
    assert (code, stderr) == (1, f"error: {message}\n")
    assert not out.exists()


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

    def test_undecodable_byte_is_a_data_error(self, tmp_path):
        data_dir = tmp_path / "tiny"
        shutil.copytree(TINY, data_dir)
        rates = data_dir / "rates.csv"
        line = rates.read_bytes().count(b"\n") + 1  # the line after the last newline
        rates.write_bytes(rates.read_bytes() + b"\xff")
        assert_one_error_line(data_dir, tmp_path / "out",
                              f"rates.csv:{line}: byte 0xff is not UTF-8 (invalid start byte)")

    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path):
        data_dir = tmp_path / "tiny"
        shutil.copytree(TINY, data_dir)
        countries = data_dir / "countries.csv"
        lines = countries.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[1], "N" * 200_000)
        countries.write_text("\n".join(lines) + "\n")
        assert_one_error_line(data_dir, tmp_path / "out",
                              "countries.csv:3: field larger than field limit (131072)")

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
        code, stdout, stderr = run_cli(["--data-dir", str(data_dir),
                                        "--out", str(tmp_path / "nest" / "out"),
                                        "--dump-donors", "--dump-ensembles"])
        assert (code, stdout) == (1, "")
        assert stderr == "error: base_pop.csv:0: no base population for BBB\n"
        assert not (tmp_path / "nest").exists()

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
    def test_non_finite_criterion_names_its_country_and_series(self, tmp_path, jobs):
        """A fertility rate of 1e200 gives its series an infinite RSS on the
        target's own observations, so no member has a finite criterion. The
        RSS overflows in fitting and in scoring without a warning. 15-19 is
        row 0 of its fitted group and 20-24 row 1: the error names the failing
        row's own series."""
        for band, rate in [("15-19", "0.077"), ("20-24", "0.291836")]:
            data_dir = tiny_with(tmp_path / band, "rates.csv",
                                 f"AAA,1950,Fertility,{band},Female,{rate}",
                                 f"AAA,1950,Fertility,{band},Female,1e200")
            code, stdout, stderr = run_cli(
                ["--data-dir", str(data_dir), "--out", str(tmp_path / band / "out"),
                 "--jobs", jobs], env_extra={"PYTHONWARNINGS": "error", "PYTHONDEVMODE": "1"})
            assert (code, stdout, stderr) == (
                1, "", f"error: AAA: Fertility {band} Female: criterion values must be finite\n")

    # A GDP of 1e-100 makes x^-5 overflow, and 1e-320 makes 1/x overflow too:
    # NegPower, and then Division, have no finite design and are skipped.
    @pytest.mark.parametrize("gdp,skipped", [("1e-100", {"NegPower"}),
                                             ("1e-320", {"NegPower", "Division"})])
    def test_tiny_positive_gdp_skips_forms_without_a_finite_design(self, tmp_path, gdp,
                                                                     skipped):
        data_dir = tiny_with(tmp_path, "gdp_hist.csv", "AAA,1955,621.63", f"AAA,1955,{gdp}")
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(["--data-dir", str(data_dir), "--out", str(out),
                                        "--dump-ensembles"])
        assert code in (0, 1), stderr
        assert "Traceback" not in stderr
        assert "DLASCL" not in stdout + stderr
        if code == 0:
            forms = {row["form"] for row in read_csv(out / "ensembles.csv")
                     if row["iso3"] == "AAA"}
            assert forms and not forms & skipped

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


class TestScenarioChunks:
    """``_project_one`` projects a country's scenarios ``SCENARIO_CHUNK`` at a
    time; one scenario per chunk changes no byte and no error."""

    def test_chunked_sweep_writes_the_same_bytes(self, tmp_path, monkeypatch):
        from demotrend import cli

        def outputs(name):
            config = tiny_config(tmp_path / name, 1, scenario="sweep", aggregate=SCOPE_KINDS)
            return {p.name: p.read_bytes() for p in cli.run(config)}

        expected = outputs("whole")
        monkeypatch.setattr(cli, "SCENARIO_CHUNK", 1)
        assert outputs("chunked") == expected
        assert len(expected) == 9

    @pytest.mark.parametrize("chunk", [1, 2, 64])
    def test_first_failing_scenario_in_a_later_chunk_is_named(self, tmp_path, monkeypatch,
                                                              chunk):
        """m1.0 and m2.0 overflow: m1.0, in the second chunk of one, is named."""
        from demotrend import cli
        from demotrend.errors import NonFiniteResult

        pathway_rates = cli.pathway_rates

        def overflowing(base, ensembles, pathway, cap, horizon):
            asfr, q = pathway_rates(base, ensembles, pathway, cap, horizon)
            return (asfr * 1e300 if pathway.scenario_id != "m0.0" else asfr), q

        monkeypatch.setattr(cli, "pathway_rates", overflowing)
        monkeypatch.setattr(cli, "SCENARIO_CHUNK", chunk)
        with pytest.raises(NonFiniteResult,
                           match="^AAA/m1.0: projected population is not finite in 2020$"):
            cli.run(tiny_config(tmp_path / "out", 1))
        assert not (tmp_path / "out").exists()


class TestDumpMemory:
    """The dump files are streamed: a run holds no country's ``donors.csv`` or
    ``ensembles.csv`` rows whole, so dumping does not grow its memory."""

    def traced_peak(self, out, jobs, dumps):
        """The traced peak of an in-process 200-scenario sweep. The dump rows do
        not depend on the horizon; a short one keeps the run short."""
        from demotrend import cli

        config = cli.RunConfig(data_dir=str(TINY), out_dir=str(out), scenario="sweep:0:1.99:0.01",
                               horizon=2016, aggregate=("world",), out_format="csv", jobs=jobs,
                               dump_donors=dumps, dump_ensembles=dumps)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cli.run(config)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_dumps_add_under_1_mib_to_the_traced_peak(self, tmp_path, jobs):
        """A 25 MB ensembles.csv: the run that joined a country's rows into one
        string, and pickled it from a worker, peaked 24-29 MiB above the run
        without dumps; the streamed one takes under 0.2 MiB more."""
        plain = self.traced_peak(tmp_path / "plain", jobs, False)
        dumped = self.traced_peak(tmp_path / "dumped", jobs, True)
        assert (tmp_path / "dumped" / "ensembles.csv").stat().st_size > 20_000_000
        assert dumped - plain < 1 << 20


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

    @pytest.mark.parametrize("name, room", [("trajectories.csv", 1000),
                                            ("run_manifest.json", 100)])
    def test_disk_full_partway_leaves_nothing(self, tmp_path, monkeypatch, capsys, name,
                                              room):
        from demotrend import cli

        out = tmp_path / "out"
        failed = fill_disk_after(monkeypatch, name, room)
        code = cli.main(["--data-dir", str(TINY), "--out", str(out),
                         "--scenario", "sweep:0:2:1"])
        stderr = capsys.readouterr().err
        assert failed == [str(out / name)]
        assert code == 1, stderr
        assert stderr == (f"error: failed writing outputs to {out}: "
                          f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
        assert not out.exists()

    def test_failure_between_series_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        """The second series' label raises once the first series is in
        trajectories.csv."""
        from demotrend import cli, report

        label, calls = report.Scope.label, []

        def fails_second(scope):
            calls.append(scope)
            if len(calls) == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return label.fget(scope)

        monkeypatch.setattr(report.Scope, "label", property(fails_second))
        out = tmp_path / "out"
        code = cli.main(["--data-dir", str(TINY), "--out", str(out),
                         "--scenario", "sweep:0:2:1", "--dump-donors"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: failed writing outputs to {out}:")
        assert len(calls) == 2
        assert not out.exists()


def fill_disk_after(monkeypatch, name, room):
    """Files named ``name`` opened for writing take ``room`` characters; then
    their writes fail with ENOSPC, as on a full disk. Returns the paths that
    failed."""
    real_open, failed = io.open, []

    class Filling:
        def __init__(self, handle):
            self.handle, self.room = handle, room

        def write(self, text):
            self.handle.write(text[:self.room])
            if len(text) > self.room:
                self.room = 0
                failed.append(self.handle.name)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.room -= len(text)
            return len(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def __getattr__(self, attr):
            return getattr(self.handle, attr)

    def opener(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        named = isinstance(file, (str, os.PathLike)) and os.path.basename(file) == name
        return Filling(handle) if named and "w" in mode else handle

    monkeypatch.setattr(builtins, "open", opener)
    monkeypatch.setattr(io, "open", opener)  # what pathlib opens with
    return failed


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
    through spool files, and no worker or spool outlives a run."""

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

    def test_multibyte_iso3_writes_the_same_bytes(self, tmp_path):
        """ÅAA in place of AAA: its two-byte first character passes through
        the workers' text spools to both dumps and the country scope, and
        every worker count writes the same bytes."""
        from demotrend import cli

        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for path in TINY.glob("*.csv"):
            (data_dir / path.name).write_text(
                path.read_text(encoding="utf-8").replace("AAA", "ÅAA"), encoding="utf-8")
        trees = [{p.name: p.read_bytes() for p in cli.run(tiny_config(
            tmp_path / f"j{jobs}", jobs, data_dir=str(data_dir), scenario="sweep",
            aggregate=SCOPE_KINDS))} for jobs in (1, 2, 3)]
        assert trees[1] == trees[0] and trees[2] == trees[0]
        text = {name: trees[0][name].decode("utf-8")
                for name in ("donors.csv", "ensembles.csv", "trajectories.csv")}
        assert "AAA" not in "".join(text.values())
        assert ",ÅAA," in text["donors.csv"] and ",ÅAA," in text["ensembles.csv"]
        assert "\nÅAA,m1.0,2015," in text["trajectories.csv"]
        assert_no_child()

    def test_jobs_run_imports_no_pool_modules(self, tmp_path):
        script = ("import sys\n"
                  "from demotrend.cli import main\n"
                  f"code = main(['--data-dir', {str(TINY)!r}, '--out', "
                  f"{str(tmp_path / 'out')!r}, '--jobs', '2'])\n"
                  "assert code == 0, code\n"
                  "loaded = {'concurrent.futures', 'multiprocessing', '_hashlib', 'ssl'}"
                  " & set(sys.modules)\n"
                  "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary.csv").is_file()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_maps_no_openssl(self, tmp_path, jobs):
        """``python -m demotrend`` hashes its inputs without OpenSSL: neither
        the run nor a worker imports ``_hashlib`` or ``ssl``, and libcrypto
        is not mapped."""
        script = ("import runpy, sys\n"
                  "from pathlib import Path\n"
                  "from demotrend import cli\n"
                  "project = cli._project_one\n"
                  "def checked(dataset, scenarios, config, iso3):\n"
                  "    result = project(dataset, scenarios, config, iso3)\n"
                  "    loaded = {'_hashlib', 'ssl'} & set(sys.modules)\n"
                  "    assert not loaded, (iso3, loaded)\n"
                  "    return result\n"
                  "cli._project_one = checked\n"
                  f"sys.argv = ['demotrend', '--data-dir', {str(TINY)!r}, '--out', "
                  f"{str(tmp_path / 'out')!r}, '--dump-ensembles', '--jobs', {jobs!r}]\n"
                  "try:\n"
                  "    runpy.run_module('demotrend', run_name='__main__')\n"
                  "except SystemExit as exc:\n"
                  "    assert exc.code == 0, exc.code\n"
                  "loaded = {'_hashlib', 'ssl'} & set(sys.modules)\n"
                  "assert not loaded, loaded\n"
                  "maps = Path('/proc/self/maps')\n"
                  "assert not maps.exists() or 'libcrypto' not in maps.read_text()\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run_manifest.json").is_file()

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
        kills itself, and the run fails once AAA, the country before it, is read."""
        from demotrend import cli

        project_one = cli._project_one

        def dies_on_bbb(dataset, scenarios, config, iso3):
            if iso3 == "BBB":
                os.kill(os.getpid(), signal.SIGKILL)
            return project_one(dataset, scenarios, config, iso3)

        monkeypatch.setattr(cli, "_project_one", dies_on_bbb)
        before = open_fds()
        with deadline(30), pytest.raises(RuntimeError, match="^a --jobs worker exited "
                                                             "without a result for BBB$"):
            cli.run(tiny_config(tmp_path / "out", 2))
        assert not (tmp_path / "out").exists()
        assert_no_child()
        assert open_fds() == before

    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_worker_killed_mid_dump_is_an_internal_error(self, tmp_path, monkeypatch, capsys,
                                                         jobs):
        """The worker of BBB is killed after 100 of BBB's ensembles.csv rows:
        exit 3, and the dump files got AAA's rows, whole, and none of BBB's
        before they were removed."""
        from demotrend import cli

        project_one = cli._project_one

        def dies_mid_dump(dataset, scenarios, config, iso3):
            series, donors, ensembles = project_one(dataset, scenarios, config, iso3)
            if iso3 != "BBB":
                return series, donors, ensembles

            def killing():
                for n, line in enumerate(ensembles):
                    if n == 100:
                        os.kill(os.getpid(), signal.SIGKILL)
                    yield line
            return series, donors, killing()

        expected = {}
        for path in cli.run(tiny_config(tmp_path / "serial", 1)):
            if path.name in ("donors.csv", "ensembles.csv"):
                header, *rows = path.read_text(encoding="utf-8").splitlines(True)
                expected[path.name] = header + "".join(r for r in rows if r.split(",")[1] == "AAA")
        unlink, reached = Path.unlink, {}

        def reading_unlink(path, missing_ok=False):
            if path.name in expected:
                reached[path.name] = path.read_text(encoding="utf-8")
            unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(cli, "_project_one", dies_mid_dump)
        monkeypatch.setattr(Path, "unlink", reading_unlink)
        out = tmp_path / "out"
        before = open_fds()
        with deadline(30):
            code = cli.main(["--data-dir", str(TINY), "--out", str(out), "--scenario", "sweep:0:2:1",
                             "--jobs", jobs, "--dump-donors", "--dump-ensembles"])
        stderr = capsys.readouterr().err
        assert code == 3
        assert stderr.endswith("RuntimeError: a --jobs worker exited without a result for BBB\n")
        assert reached == expected
        assert not out.exists()
        assert_no_child()
        assert open_fds() == before

    def test_first_failure_kills_busy_workers(self, tmp_path, monkeypatch):
        """AAA fails at once while the other workers are busy for 90 s: the
        run raises without waiting for them."""
        from demotrend import cli

        def aaa_fails_bbb_hangs(dataset, scenarios, config, iso3):
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

        def fails_on_ccc(dataset, scenarios, config, iso3):
            if iso3 == "CCC":
                raise error("CCC", "raised in the worker")
            return project_one(dataset, scenarios, config, iso3)

        monkeypatch.setattr(cli, "_project_one", fails_on_ccc)
        code = cli.main(["--data-dir", str(TINY), "--out", str(tmp_path / "out"),
                         "--jobs", "2", "--dump-donors"])
        stderr = capsys.readouterr().err
        assert code == 3
        assert "CCC failed in a --jobs worker:" in stderr
        assert "in fails_on_ccc" in stderr and "raised in the worker" in stderr
        assert not (tmp_path / "out").exists()
        assert_no_child()

    def test_runs_without_pipes(self, tmp_path, monkeypatch):
        from demotrend import cli

        expected = {p.name: p.read_bytes() for p in cli.run(tiny_config(tmp_path / "j1", 1))}

        def no_pipe():
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr(os, "pipe", no_pipe)
        written = cli.run(tiny_config(tmp_path / "j2", 2))
        assert {p.name: p.read_bytes() for p in written} == expected
        assert_no_child()

    def test_worker_stops_after_its_first_failure(self, tmp_path, monkeypatch):
        """The worker of AAA and CCC fails on AAA and never starts CCC."""
        from demotrend import cli

        started = tmp_path / "started"
        project_one = cli._project_one

        def aaa_fails(dataset, scenarios, config, iso3):
            with open(started, "a") as handle:
                handle.write(f"{iso3}\n")
            if iso3 == "AAA":
                raise cli.SchemaViolation("rates.csv", 0, "AAA fails")
            return project_one(dataset, scenarios, config, iso3)

        monkeypatch.setattr(cli, "_project_one", aaa_fails)
        with deadline(30), pytest.raises(cli.SchemaViolation, match="AAA fails"):
            cli.run(tiny_config(tmp_path / "out", 2))
        assert_no_child()
        projected = started.read_text().split()
        assert "AAA" in projected and "CCC" not in projected

    @pytest.mark.parametrize("started", [0, 1])
    def test_failed_worker_start_is_an_internal_error(self, tmp_path, monkeypatch, capsys,
                                                      started):
        """``os.fork`` fails after ``started`` workers: exit 3, not a write
        failure, and the started worker and spools are gone."""
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
