import numpy as np
import pytest

from demotrend.core import IncomeGroup, Region, Sex, Variable
from demotrend.data_ingest import load_dataset
from demotrend.errors import MissingFile, NonPositiveGdp, SchemaViolation

from conftest import minimal_rows, write_rows


def load_mutated(tmp_path, mutate):
    rows = minimal_rows()
    mutate(rows)
    return load_dataset(write_rows(tmp_path, rows))


class TestHappyPath:
    def test_minimal_set_loads(self, tmp_path):
        ds = load_mutated(tmp_path, lambda rows: None)
        assert [c.iso3 for c in ds.countries] == ["AAA"]
        assert ds.countries[0].income_group is IncomeGroup.LOW
        assert ds.countries[0].region is Region.SUB_SAHARAN_AFRICA
        assert ds.rejections == []

    def test_tiny_fixture_loads(self, tiny_dataset):
        assert sorted(c.iso3 for c in tiny_dataset.countries) == ["AAA", "BBB", "CCC"]
        assert tiny_dataset.rejections == []

    def test_rate_series_sorted_oldest_first(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"].append("AAA,2010,Fertility,20-24,Female,0.15")
            rows["rates.csv"].append("AAA,2000,Fertility,20-24,Female,0.18")

        ds = load_mutated(tmp_path, mutate)
        years, rates = ds.rate_series("AAA", Variable.FERTILITY, "20-24")
        assert years.tolist() == [1990.0, 2000.0, 2010.0]
        assert rates.tolist() == [0.2, 0.18, 0.15]

    def test_fertility_lookup_ignores_sex_argument(self, tmp_path):
        ds = load_mutated(tmp_path, lambda rows: None)
        via_male = ds.rate_series("AAA", Variable.FERTILITY, "20-24", Sex.MALE)
        via_none = ds.rate_series("AAA", Variable.FERTILITY, "20-24")
        assert via_male[1].tolist() == via_none[1].tolist() == [0.2]

    def test_mortality_both_fallback(self, tmp_path):
        ds = load_mutated(tmp_path, lambda rows: None)
        years, rates = ds.rate_series("AAA", Variable.MORTALITY, "0-4", Sex.FEMALE)
        assert rates.tolist() == [0.01]
        assert not ds.has_sexed_mortality
        assert ds.sexed_mortality == frozenset()

    def test_mortality_prefers_sexed_rows(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"].append("AAA,1990,Mortality,0-4,Female,0.04")

        ds = load_mutated(tmp_path, mutate)
        _, female = ds.rate_series("AAA", Variable.MORTALITY, "0-4", Sex.FEMALE)
        _, male = ds.rate_series("AAA", Variable.MORTALITY, "0-4", Sex.MALE)
        assert female.tolist() == [0.04]
        assert male.tolist() == [0.01]  # falls back to the Both row
        assert ds.has_sexed_mortality
        assert ds.sexed_mortality == {("AAA", "0-4")}

    def test_missing_series_is_empty(self, tmp_path):
        ds = load_mutated(tmp_path, lambda rows: None)
        years, rates = ds.rate_series("AAA", Variable.FERTILITY, "50-54")
        assert years.size == 0 and rates.size == 0
        years, rates = ds.rate_series("ZZZ", Variable.MORTALITY, "0-4", Sex.MALE)
        assert years.size == 0 and rates.size == 0

    def test_gdp_series_sorted(self, tiny_dataset):
        years, values = tiny_dataset.gdp_hist_series("AAA")
        assert (np.diff(years) > 0).all()
        assert (values > 0).all()

    def test_base_population_shape(self, tmp_path):
        ds = load_mutated(tmp_path, lambda rows: None)
        pop = ds.base_population("AAA")
        assert pop.counts.shape == (21, 2)
        assert pop.counts[:, 0].tolist() == [1000.0] * 21  # Female column
        assert pop.counts[:, 1].tolist() == [1040.0] * 21
        assert ds.base_population("ZZZ") is None


class TestUnknownCountryRows:
    def test_rows_dropped_and_reported(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"].append("XXX,1990,Fertility,20-24,Female,0.3")
            rows["gdp_hist.csv"].append("XXX,1990,700")

        ds = load_mutated(tmp_path, mutate)
        assert len(ds.rejections) == 2
        assert {r.iso3 for r in ds.rejections} == {"XXX"}
        files = {r.file for r in ds.rejections}
        assert files == {"rates.csv", "gdp_hist.csv"}
        # nothing from the rejected country survives downstream
        assert ds.rate_series("XXX", Variable.FERTILITY, "20-24")[0].size == 0
        assert ds.gdp_hist_series("XXX")[0].size == 0

    def test_rejection_carries_line_number(self, tmp_path):
        expected_line = len(minimal_rows()["rates.csv"]) + 1

        def mutate(rows):
            rows["rates.csv"].append("XXX,1990,Fertility,20-24,Female,0.3")

        ds = load_mutated(tmp_path, mutate)
        (rejection,) = ds.rejections
        assert rejection.line == expected_line
        assert "XXX" in str(rejection)

    def test_unknown_rows_do_not_mask_validation(self, tmp_path):
        """Dropping unknown-country rows must not skip checks on valid rows."""

        def mutate(rows):
            rows["rates.csv"].append("XXX,1990,Fertility,20-24,Female,0.3")
            rows["rates.csv"].append("AAA,1990,Fertility,20-24,Male,0.3")

        with pytest.raises(SchemaViolation):
            load_mutated(tmp_path, mutate)


class TestSchemaErrors:
    def test_missing_file(self, tmp_path):
        rows = minimal_rows()
        del rows["rates.csv"]
        with pytest.raises(MissingFile):
            load_dataset(write_rows(tmp_path, rows))

    def test_wrong_header(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"][0] = "iso3,year,variable,age,sex,rate"

        with pytest.raises(SchemaViolation) as err:
            load_mutated(tmp_path, mutate)
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        rows = minimal_rows()
        data_dir = write_rows(tmp_path, rows)
        (data_dir / "gdp_hist.csv").write_text("", encoding="utf-8")
        with pytest.raises(SchemaViolation):
            load_dataset(data_dir)

    def test_header_only_file(self, tmp_path):
        def mutate(rows):
            rows["gdp_baseline.csv"] = rows["gdp_baseline.csv"][:1]

        with pytest.raises(SchemaViolation):
            load_mutated(tmp_path, mutate)

    def test_field_count_mismatch(self, tmp_path):
        def mutate(rows):
            rows["gdp_hist.csv"].append("AAA,2000")

        with pytest.raises(SchemaViolation):
            load_mutated(tmp_path, mutate)

    def test_error_reports_file_and_line(self, tmp_path):
        def mutate(rows):
            rows["gdp_hist.csv"].append("AAA,2000,not-a-number")

        with pytest.raises(SchemaViolation) as err:
            load_mutated(tmp_path, mutate)
        assert err.value.file == "gdp_hist.csv"
        assert err.value.line == 4
        assert "not-a-number" in str(err.value)


class TestValueValidation:
    @pytest.mark.parametrize("bad_row,file", [
        ("AAA,1949,Fertility,20-24,Female,0.2", "rates.csv"),
        ("AAA,2016,Fertility,20-24,Female,0.2", "rates.csv"),
        ("AAA,1990,Fertility,20-24,Female,-0.1", "rates.csv"),
        ("AAA,1990,Fertility,10-14,Female,0.2", "rates.csv"),
        ("AAA,1990,Fertility,45-49,Female,0.2", "rates.csv"),
        ("AAA,1990,Fertility,20-24,Male,0.2", "rates.csv"),
        ("AAA,1990,Fertility,20-24,Both,0.2", "rates.csv"),
        ("AAA,1990,Births,20-24,Female,0.2", "rates.csv"),
        ("AAA,1990,Mortality,0-3,Both,0.05", "rates.csv"),
        ("AAA,1990.5,Mortality,0-4,Both,0.05", "rates.csv"),
        ("AAA,1995,Mortality,0-4,Both,1.7", "rates.csv"),
        ("AAA,2015,0-4,Neither,10", "base_pop.csv"),
        ("AAA,2014,0-4,Female,10", "base_pop.csv"),
        ("AAA,2015,0-4,Both,10", "base_pop.csv"),
        ("AAA,2015,0-4,Female,-1", "base_pop.csv"),
    ])
    def test_invalid_rows_rejected(self, tmp_path, bad_row, file):
        def mutate(rows):
            rows[file].append(bad_row)

        with pytest.raises(SchemaViolation):
            load_mutated(tmp_path, mutate)

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_bad_gdp_rejected(self, tmp_path, value):
        def mutate(rows):
            rows["gdp_hist.csv"].append(f"AAA,2000,{value}")

        with pytest.raises((NonPositiveGdp, SchemaViolation)):
            load_mutated(tmp_path, mutate)

    def test_mortality_rate_of_one_accepted(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"].append("AAA,1995,Mortality,0-4,Both,1.0")
        ds = load_mutated(tmp_path, mutate)
        assert ds.rate_series("AAA", Variable.MORTALITY, "0-4")[1].tolist() == [0.01, 1.0]

    def test_nonpositive_gdp_reports_location(self, tmp_path):
        def mutate(rows):
            rows["gdp_baseline.csv"].append("AAA,2099,0")

        with pytest.raises(NonPositiveGdp) as err:
            load_mutated(tmp_path, mutate)
        assert err.value.file == "gdp_baseline.csv"
        assert err.value.line == 12

    @pytest.mark.parametrize("file,row", [
        ("rates.csv", "AAA,1990,Fertility,20-24,Female,0.2"),
        ("gdp_hist.csv", "AAA,1990,500"),
        ("base_pop.csv", "AAA,2015,0-4,Female,1000"),
    ])
    def test_duplicates_rejected(self, tmp_path, file, row):
        def mutate(rows):
            rows[file].append(row)

        with pytest.raises(SchemaViolation):
            load_mutated(tmp_path, mutate)

    def test_duplicate_country_rejected(self, tmp_path):
        def mutate(rows):
            rows["countries.csv"].append("AAA,Again,High,NorthAmerica")

        with pytest.raises(SchemaViolation):
            load_mutated(tmp_path, mutate)

    def test_incomplete_cohort_grid_rejected(self, tmp_path):
        def mutate(rows):
            rows["base_pop.csv"] = [r for r in rows["base_pop.csv"]
                                    if not r.startswith("AAA,2015,100+,Male")]

        with pytest.raises(SchemaViolation) as err:
            load_mutated(tmp_path, mutate)
        assert "100+" in str(err.value)

    def test_bad_income_group_rejected(self, tmp_path):
        def mutate(rows):
            rows["countries.csv"][1] = "AAA,Aleph,Middle,SubSaharanAfrica"

        with pytest.raises(SchemaViolation):
            load_mutated(tmp_path, mutate)
