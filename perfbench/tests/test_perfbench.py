"""Self-tests for the benchmark: generator, output checks and span arithmetic."""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import synth  # noqa: E402
import tracer  # noqa: E402

from demotrend.data_ingest import load_dataset  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("mortality", synth.MORTALITY_MODES)
def test_generator_is_deterministic_and_loads(tmp_path, mortality):
    countries = synth.ladder_countries(5)
    first = synth.write_dataset(tmp_path / "a", countries, mortality, seed=7)
    second = synth.write_dataset(tmp_path / "b", countries, mortality, seed=7)
    other = synth.write_dataset(tmp_path / "c", countries, mortality, seed=8)
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)

    dataset = load_dataset(first)
    assert not dataset.rejections
    assert sorted(c.iso3 for c in dataset.countries) == [c.iso3 for c in countries]
    assert dataset.has_sexed_mortality == (mortality != "both")
    both_only = {r.iso3 for r in dataset.rates if r.sex.value == "Both"}
    expected = {"both": {c.iso3 for c in countries}, "sexed": set(),
                "mixed": {countries[0].iso3, countries[4].iso3}}[mortality]
    assert both_only == expected


def test_ladder_donors_do_not_depend_on_the_seed(tmp_path):
    from demotrend.augmentation import DonorRule, select_donors
    from demotrend.scenarios import build_baselines

    def donor_sets(seed):
        dataset = load_dataset(synth.write_dataset(tmp_path / str(seed),
                                                   synth.ladder_countries(12), seed=seed))
        baselines = build_baselines(dataset)
        sets = {}
        for iso3, pathway in baselines.items():
            rule = DonorRule(pathway.gdp(2015), pathway.max_gdp())
            candidates = {o: dataset.gdp_hist_series(o) for o in baselines if o != iso3}
            sets[iso3] = select_donors(rule, candidates)
        return sets

    first = donor_sets(1)
    assert first["QAA"] == ["QAD", "QAE", "QAF", "QAG"]
    assert all(donor_sets(seed) == first for seed in (2, 3))


def test_digest_check_catches_one_changed_byte(tmp_path):
    (tmp_path / "summary.csv").write_bytes(b"scenario_id,scope\nm1.0,World\n")
    (tmp_path / "trajectories.csv").write_bytes(b"scope,scenario_id,year,population\n")
    recorded = checks.file_digests(tmp_path)
    assert checks.compare_digests(checks.file_digests(tmp_path), recorded) == []

    data = bytearray((tmp_path / "summary.csv").read_bytes())
    data[-2] ^= 0x01
    (tmp_path / "summary.csv").write_bytes(bytes(data))
    problems = checks.compare_digests(checks.file_digests(tmp_path), recorded)
    assert len(problems) == 1 and problems[0].startswith("summary.csv")

    (tmp_path / "trajectories.csv").unlink()
    problems = checks.compare_digests(checks.file_digests(tmp_path), recorded)
    assert "trajectories.csv: missing" in problems


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert np.allclose(tracer.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_recorder_nests_spans_and_sums_self_time_by_name():
    recorder = tracer.Recorder()

    def leaf(x):
        return x + 1

    traced_leaf = recorder.wrap(leaf, "m.leaf")
    traced_outer = recorder.wrap(lambda: [traced_leaf(i) for i in range(3)], "m.outer")
    assert traced_outer() == [1, 2, 3]

    spans = recorder.arrays()
    assert list(spans["parent"]) == [-1, 0, 0, 0]
    self_s, calls = tracer.per_name(spans)
    assert calls == {"m.leaf": 3, "m.outer": 1}
    total = spans["end"][0] - spans["start"][0]
    assert self_s["m.outer"] + self_s["m.leaf"] == pytest.approx(total)
