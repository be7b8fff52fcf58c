import csv
import hashlib
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demotrend.augmentation import build_augmented_series
from demotrend.core import AGE_BANDS, AGE_INDEX, FERTILE_BANDS, IncomeGroup, Region, Sex, Variable
from demotrend.data_ingest import CHUNK_ROWS, load_dataset
from demotrend.errors import (DemotrendError, MissingFile, NonPositiveGdp, NoTargetData,
                              SchemaViolation)

import seed_oracle
from conftest import TINY, minimal_rows, write_rows


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

    def test_digests_of_the_files_read(self, tiny_dataset):
        assert tiny_dataset.digests == {
            name: hashlib.sha256((TINY / name).read_bytes()).hexdigest()
            for name in ("countries.csv", "rates.csv", "gdp_hist.csv", "gdp_baseline.csv",
                         "base_pop.csv")}

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


def load_error(tmp_path, mutate):
    with pytest.raises((SchemaViolation, NonPositiveGdp)) as err:
        load_mutated(tmp_path, mutate)
    return err.value


RATES_END = len(minimal_rows()["rates.csv"]) + 1  # line of a row appended to rates.csv
BASE_POP_END = len(minimal_rows()["base_pop.csv"]) + 1
GDP_HIST_END = len(minimal_rows()["gdp_hist.csv"]) + 1


class TestErrorLocation:
    """The exception class, file, line and message of each ingest error.

    Within a file, a row with the wrong number of fields is reported first;
    otherwise the earliest bad line in file order is reported, and on that
    line the first failing check (in rates.csv: year, variable, sex,
    age_group, rate, rate range, fertility band and sex, duplicate key).
    """

    @pytest.mark.parametrize("bad_row,file,line,reason", [
        ("AAA,1949,Fertility,20-24,Female,0.2", "rates.csv", RATES_END,
         "year must lie in 1950-2015, got 1949"),
        ("AAA,2016,Fertility,20-24,Female,0.2", "rates.csv", RATES_END,
         "year must lie in 1950-2015, got 2016"),
        ("AAA,1990,Fertility,20-24,Female,-0.1", "rates.csv", RATES_END,
         "rate must be non-negative, got -0.1"),
        ("AAA,1990,Fertility,10-14,Female,0.2", "rates.csv", RATES_END,
         "fertility age_group must lie in 15-44, got '10-14'"),
        ("AAA,1990,Fertility,45-49,Female,0.2", "rates.csv", RATES_END,
         "fertility age_group must lie in 15-44, got '45-49'"),
        ("AAA,1990,Fertility,20-24,Male,0.2", "rates.csv", RATES_END,
         "fertility rows must have sex=Female"),
        ("AAA,1990,Fertility,20-24,Both,0.2", "rates.csv", RATES_END,
         "fertility rows must have sex=Female"),
        ("AAA,1990,Births,20-24,Female,0.2", "rates.csv", RATES_END,
         "variable must be one of Fertility, Mortality, got 'Births'"),
        ("AAA,1990,Mortality,0-3,Both,0.05", "rates.csv", RATES_END,
         "unknown age_group '0-3'"),
        ("AAA,1990.5,Mortality,0-4,Both,0.05", "rates.csv", RATES_END,
         "year must be an integer, got '1990.5'"),
        ("AAA,1995,Mortality,0-4,Both,1.7", "rates.csv", RATES_END,
         "mortality rate is a probability in [0, 1], got 1.7"),
        ("AAA,2015,0-4,Neither,10", "base_pop.csv", BASE_POP_END,
         "sex must be one of Female, Male, Both, got 'Neither'"),
        ("AAA,2014,0-4,Female,10", "base_pop.csv", BASE_POP_END,
         "base year must be 2015, got 2014"),
        ("AAA,2015,0-4,Both,10", "base_pop.csv", BASE_POP_END,
         "base population rows must be sex-specific"),
        ("AAA,2015,0-4,Female,-1", "base_pop.csv", BASE_POP_END,
         "count must be non-negative, got -1.0"),
    ])
    def test_invalid_row_located(self, tmp_path, bad_row, file, line, reason):
        error = load_error(tmp_path, lambda rows: rows[file].append(bad_row))
        assert type(error) is SchemaViolation
        assert (error.file, error.line, error.reason) == (file, line, reason)
        assert str(error) == f"{file}:{line}: {reason}"

    @pytest.mark.parametrize("iso3", ["A,A", 'A"A', "A\rA", "A\nA"])
    def test_iso3_that_would_break_an_output_csv(self, tmp_path, iso3):
        """An iso3 is written unquoted into every output CSV."""
        quoted = '"' + iso3.replace('"', '""') + '"'
        error = load_error(tmp_path, lambda rows: rows["countries.csv"].append(
            f"{quoted},Bet,Low,SouthAsia"))
        assert type(error) is SchemaViolation
        assert (error.file, error.line) == ("countries.csv", 3 + ("\r" in iso3 or "\n" in iso3))
        assert error.reason == ("iso3 must not hold a comma, double quote, CR or LF, "
                                f"got {iso3!r}")

    @pytest.mark.parametrize("value,kind,reason", [
        ("0", NonPositiveGdp, "gdp_pc must be positive, got 0.0"),
        ("-5", NonPositiveGdp, "gdp_pc must be positive, got -5.0"),
        ("nan", SchemaViolation, "gdp_pc must be finite, got 'nan'"),
        ("inf", SchemaViolation, "gdp_pc must be finite, got 'inf'"),
    ])
    def test_bad_gdp_located(self, tmp_path, value, kind, reason):
        error = load_error(tmp_path,
                           lambda rows: rows["gdp_hist.csv"].append(f"AAA,2000,{value}"))
        assert type(error) is kind
        assert (error.file, error.line) == ("gdp_hist.csv", GDP_HIST_END)
        assert str(error) == f"gdp_hist.csv:{GDP_HIST_END}: {reason}"

    @pytest.mark.parametrize("file", ["gdp_hist.csv", "gdp_baseline.csv"])
    @pytest.mark.parametrize("year", [pytest.param("1" + "0" * 400, id="1e400"),
                                      "999", "10000", "-2000"])
    def test_gdp_year_out_of_range_located(self, tmp_path, file, year):
        """Checked right after the year parses: before gdp_pc, so a row with a
        bad gdp_pc too reports its year."""
        error = load_error(tmp_path, lambda rows: rows[file].append(f"AAA,{year},-1"))
        line = len(minimal_rows()[file]) + 1
        assert type(error) is SchemaViolation
        assert (error.file, error.line, error.reason) == (
            file, line, f"year must lie in 1000-9999, got {int(year)}")
        assert str(error) == f"{file}:{line}: year must lie in 1000-9999, got {int(year)}"

    @pytest.mark.parametrize("file", ["gdp_hist.csv", "gdp_baseline.csv"])
    def test_gdp_year_range_is_inclusive(self, tmp_path, file):
        """1000 and 9999 load: the earliest row then flagged is the duplicate."""
        def mutate(rows):
            rows[file] += ["AAA,1000,900", "AAA,9999,900", "AAA,9999,900"]

        error = load_error(tmp_path, mutate)
        assert (error.file, error.line, error.reason) == (
            file, len(minimal_rows()[file]) + 3, "duplicate observation (AAA, 9999)")

    def test_earlier_of_two_bad_rows_reported(self, tmp_path):
        """The earlier row wins even when its check comes later in check order."""
        def mutate(rows):
            rows["rates.csv"].insert(2, "AAA,1990,Fertility,20-24,Male,0.2")
            rows["rates.csv"].append("AAA,19x0,Fertility,20-24,Female,0.2")

        error = load_error(tmp_path, mutate)
        assert (error.line, error.reason) == (3, "fertility rows must have sex=Female")

    def test_first_check_of_a_row_wins(self, tmp_path):
        error = load_error(tmp_path, lambda rows: rows["rates.csv"].append(
            "AAA,1949,Births,20-24,Female,0.2"))
        assert (error.line, error.reason) == (RATES_END, "year must lie in 1950-2015, got 1949")

    def test_non_numeric_rate_located(self, tmp_path):
        error = load_error(tmp_path, lambda rows: rows["rates.csv"].append(
            "AAA,1995,Mortality,0-4,Both,high"))
        assert (error.line, error.reason) == (RATES_END, "rate must be numeric, got 'high'")

    @pytest.mark.parametrize("file,row,reason", [
        ("rates.csv", "AAA,1990,Fertility,20-24,Female,0.3",
         "duplicate observation ('AAA', 1990, <Variable.FERTILITY: 'Fertility'>, '20-24', "
         "<Sex.FEMALE: 'Female'>)"),
        ("rates.csv", "AAA,01990,Fertility,20-24,Female,0.3",
         "duplicate observation ('AAA', 1990, <Variable.FERTILITY: 'Fertility'>, '20-24', "
         "<Sex.FEMALE: 'Female'>)"),
        ("gdp_hist.csv", "AAA,1990,600", "duplicate observation (AAA, 1990)"),
        ("base_pop.csv", "AAA,2015,0-4,Female,5", "duplicate cell AAA/0-4/Female"),
    ])
    def test_duplicate_reported_at_second_occurrence(self, tmp_path, file, row, reason):
        error = load_error(tmp_path, lambda rows: rows[file].append(row))
        assert type(error) is SchemaViolation
        assert (error.file, error.line, error.reason) == (
            file, len(minimal_rows()[file]) + 1, reason)

    def test_duplicate_country_located(self, tmp_path):
        error = load_error(tmp_path, lambda rows: rows["countries.csv"].append(
            "AAA,Again,High,NorthAmerica"))
        assert (error.file, error.line, error.reason) == (
            "countries.csv", 3, "duplicate iso3 'AAA'")

    def test_blank_and_multi_line_records_shift_line_numbers(self, tmp_path):
        """Lines are physical lines: a blank line and a quoted field spanning
        two lines each move the later rows down, as ``reader.line_num`` counts."""
        def mutate(rows):
            rows["countries.csv"] = ["iso3,name,income_group,region",
                                     'AAA,"Ale\nph",Low,SubSaharanAfrica', "",
                                     "BBB,Bet,Middle,EastAsiaPacific"]

        error = load_error(tmp_path, mutate)
        assert (error.file, error.line, error.reason) == (
            "countries.csv", 5,
            "income_group must be one of High, UpperMiddle, LowerMiddle, Low, got 'Middle'")

    def test_multi_line_record_reports_its_last_line(self, tmp_path):
        def mutate(rows):
            rows["countries.csv"] = ["iso3,name,income_group,region", "",
                                     'AAA,"Ale\nph",Low,Atlantis']

        error = load_error(tmp_path, mutate)
        assert (error.line, error.reason) == (4, "region must be one of EastAsiaPacific, "
                                                 "EuropeCentralAsia, LatinAmericaCaribbean, "
                                                 "MiddleEastNorthAfrica, NorthAmerica, "
                                                 "SouthAsia, SubSaharanAfrica, got 'Atlantis'")

    def test_multi_line_name_loads(self, tmp_path):
        def mutate(rows):
            rows["countries.csv"][1] = 'AAA,"Ale\nph",Low,SubSaharanAfrica'

        assert load_mutated(tmp_path, mutate).countries[0].name == "Ale\nph"

    def test_undecodable_byte_counts_physical_lines(self, tmp_path):
        """CRLF and a lone CR each end one line, as csv counts them; a
        character cut short at the end of the file is on the last line."""
        rates = write_rows(tmp_path, minimal_rows()) / "rates.csv"
        header, first, *rest = rates.read_bytes().splitlines()
        rates.write_bytes(b"\r\n".join([header, first]) + b"\r" + b"\n".join(rest)
                          + b"\n\xe2\x82")
        with pytest.raises(SchemaViolation) as err:
            load_dataset(rates.parent)
        assert str(err.value) == (f"rates.csv:{RATES_END}: "
                                  "byte 0xe2 is not UTF-8 (unexpected end of data)")

    def test_field_count_checked_before_values(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"].insert(2, "AAA,1949,Fertility,20-24,Female,0.2")
            rows["rates.csv"].append("AAA,1990,Fertility,20-24,Female")

        error = load_error(tmp_path, mutate)
        assert (error.line, error.reason) == (RATES_END + 1, "expected 6 fields, got 5")

    def test_earlier_file_wins(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"].append("AAA,1949,Fertility,20-24,Female,0.2")
            rows["gdp_hist.csv"].insert(1, "AAA,1980,0")

        error = load_error(tmp_path, mutate)
        assert (error.file, error.line) == ("rates.csv", RATES_END)

    def test_unknown_country_rows_skip_every_value_check(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"].append("XXX,1949,Births,0-3,Neither,-1")
            rows["rates.csv"].append("XXX,1949,Births,0-3,Neither,-1")
            rows["gdp_hist.csv"].append("XXX,1990,0")
            rows["base_pop.csv"].append("XXX,2014,0-3,Both,x")

        ds = load_mutated(tmp_path, mutate)
        assert len(ds.rejections) == 4

    def test_missing_cohort_cell_reported_at_line_zero(self, tmp_path):
        def mutate(rows):
            rows["base_pop.csv"] = [r for r in rows["base_pop.csv"]
                                    if not r.startswith(("AAA,2015,5-9,", "AAA,2015,100+,Male"))]

        error = load_error(tmp_path, mutate)
        assert (error.file, error.line, error.reason) == (
            "base_pop.csv", 0,
            "AAA: missing cohort cells [('5-9', 'Female'), ('5-9', 'Male'), ('100+', 'Male')]")

    def test_rejections_keep_file_order_across_files(self, tmp_path):
        def mutate(rows):
            rows["rates.csv"].insert(3, "YYY,1990,Fertility,20-24,Female,0.3")
            rows["rates.csv"].append("XXX,1990,Fertility,20-24,Female,0.3")
            rows["gdp_hist.csv"].insert(1, "ZZZ,1990,700")
            rows["gdp_hist.csv"].append("XXX,1990,700")
            rows["gdp_baseline.csv"].append("WWW,2015,700")
            rows["base_pop.csv"].insert(1, "VVV,2015,0-4,Female,10")

        ds = load_mutated(tmp_path, mutate)
        assert [(r.file, r.line, r.iso3) for r in ds.rejections] == [
            ("rates.csv", 4, "YYY"), ("rates.csv", RATES_END + 1, "XXX"),
            ("gdp_hist.csv", 2, "ZZZ"), ("gdp_hist.csv", GDP_HIST_END + 1, "XXX"),
            ("gdp_baseline.csv", len(minimal_rows()["gdp_baseline.csv"]) + 1, "WWW"),
            ("base_pop.csv", 2, "VVV")]


KNOWN = ("AAA", "BBB", "CCC")
SERIES = ([(Variable.FERTILITY, band, Sex.FEMALE) for band in FERTILE_BANDS[:2]]
          + [(Variable.MORTALITY, band, sex) for band in ("0-4", "100+") for sex in Sex])
HEADER_LINES = {"countries.csv": "iso3,name,income_group,region",
                "rates.csv": "iso3,year,variable,age_group,sex,rate",
                "gdp_hist.csv": "iso3,year,gdp_pc", "gdp_baseline.csv": "iso3,year,gdp_pc",
                "base_pop.csv": "iso3,year,age_group,sex,count"}

positive = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
hist_years = st.lists(st.integers(1950, 2015), min_size=1, max_size=8, unique=True)


@st.composite
def valid_inputs(draw):
    """Valid rows of every file, as (iso3, line) per file."""
    countries = draw(st.lists(st.sampled_from(KNOWN), min_size=1, max_size=3, unique=True))
    rows = {name: [] for name in HEADER_LINES}
    for iso3 in countries:
        rows["countries.csv"].append((iso3, f"{iso3},Name {iso3},Low,SouthAsia"))
        for name in ("gdp_hist.csv", "gdp_baseline.csv"):
            for year in draw(hist_years if name == "gdp_hist.csv"
                             else st.lists(st.integers(2015, 2100), min_size=1, max_size=4,
                                           unique=True)):
                rows[name].append((iso3, f"{iso3},{year},{draw(positive)!r}"))
        for variable, band, sex in draw(st.lists(st.sampled_from(SERIES), unique=True,
                                                 min_size=1, max_size=len(SERIES))):
            for year in draw(hist_years):
                rows["rates.csv"].append((iso3, f"{iso3},{year},{variable.value},{band},"
                                                f"{sex.value},{draw(probability)!r}"))
        for band in AGE_BANDS:
            for sex in ("Female", "Male"):
                count = draw(st.floats(min_value=0.0, max_value=1e7, allow_nan=False))
                rows["base_pop.csv"].append((iso3, f"{iso3},2015,{band},{sex},{count!r}"))
    return rows


@st.composite
def shuffled_files(draw):
    """Every file's valid rows shuffled, with blank lines and rows of unknown
    countries mixed in; returns the lines of each file."""
    files = {}
    for name, rows in draw(valid_inputs()).items():
        if name != "countries.csv":
            for k in range(draw(st.integers(0, 3))):
                rows.append(("XXX" if k % 2 else "YYY", None))
        rows = draw(st.permutations(rows))
        lines = [HEADER_LINES[name]]
        for iso3, line in rows:
            lines.extend([""] * draw(st.integers(0, 1)))
            lines.append(line if line is not None else
                         ",".join([iso3] + ["?"] * HEADER_LINES[name].count(",")))
        files[name] = lines
    return files


def same_array(got, expected):
    return (got.dtype == expected.dtype == np.float64 and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


def same_series(got, expected):
    return all(map(same_array, got, expected))


class TestColumnarSeries:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(files=shuffled_files())
    def test_series_equal_seed(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp)
            for name, lines in files.items():
                (data / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            ds, seed = load_dataset(data), seed_oracle.load_dataset(data)
        same_dataset(ds, seed)

        assert ds.sexed_mortality == {(iso3, band) for iso3, variable, band, sex in seed._rate_index
                                      if variable.value == "Mortality" and sex.value != "Both"}
        for iso3 in (*KNOWN, "XXX"):
            assert same_series(ds.gdp_hist_series(iso3), seed.gdp_hist_series(iso3))
            assert same_series(ds.gdp_baseline_series(iso3), seed.gdp_baseline_series(iso3))
            population, expected = ds.base_population(iso3), seed.base_population(iso3)
            assert (population is None) == (expected is None) == (iso3 not in ds.country_map)
            for variable, band, _ in SERIES:
                for sex in (None, *Sex):
                    assert same_series(ds.rate_series(iso3, variable, band, sex),
                                       seed_oracle.rate_series(seed, iso3, variable, band, sex))

        for target in ds.country_map:
            donors = [c for c in KNOWN if c != target]
            for variable, band, sex in SERIES:
                try:
                    expected = seed_oracle.augmented_series(seed, target, donors, variable, band,
                                                            sex)
                except NoTargetData:
                    with pytest.raises(NoTargetData):
                        build_augmented_series(target, donors, variable, band, ds, sex=sex)
                    continue
                for _ in range(2):  # the second build is served from the memo
                    series = build_augmented_series(target, donors, variable, band, ds, sex=sex)
                    assert same_series((series.fit_gdp, series.fit_rate, series.weight_gdp,
                                        series.weight_rate), expected)
                    assert series.weight_gdp.flags.writeable
        cached = [array for pairs in ds.memo.values() if pairs is not None for array in pairs]
        assert all(not array.flags.writeable for array in cached)


def plain_key(key):
    """An index key with its enums as their values."""
    return tuple(getattr(part, "value", part) for part in key) if isinstance(key, tuple) else key


def same_dataset(got, seed):
    """Field by field against the seed's reading of the same files
    (``seed_oracle.load_dataset``): the records, every index's key order,
    each array's dtype and bits, and the rejections."""
    assert [(c.iso3, c.name, c.income_group.value, c.region.value) for c in got.countries] == [
        (c.iso3, c.name, c.income_group.value, c.region.value) for c in seed.countries]
    for name in ("rate_index", "gdp_hist_index", "gdp_baseline_index"):
        got_index, seed_index = getattr(got, name), getattr(seed, "_" + name)
        assert list(map(plain_key, got_index)) == list(map(plain_key, seed_index))
        assert all(map(same_series, got_index.values(), seed_index.values()))
    assert list(got.base_pop_index) == list(seed._base_pop_index)
    for state, expected in zip(got.base_pop_index.values(), seed._base_pop_index.values()):
        assert (state.iso3, state.year) == (expected.iso3, expected.year)
        assert same_array(state.counts, expected.counts)
    assert [(type(r).__name__, r.file, r.line, r.iso3, str(r)) for r in got.rejections] == [
        (type(r).__name__, r.file, r.line, r.iso3, str(r)) for r in seed.rejections]


GENERATED = ("GAA", "GAB", "GAC", "GAD", "GAE", "GAF")  # the first three have sexed mortality


def generated_rows() -> dict[str, list[list[str]]]:
    """A valid set whose rates.csv spans many CHUNK_ROWS-row chunks: annual
    rows 1950-2015 for six countries, shuffled, with years and numbers
    written in several forms that ``int`` and ``float`` read."""
    rng = random.Random(0)
    rows = {name: [] for name in HEADER_LINES}
    for k, iso3 in enumerate(GENERATED):
        name = f'"Country\n{iso3}"' if k == 1 else f'"Country, {iso3}"'
        rows["countries.csv"].append([iso3, name, "Low", "SouthAsia"])
        sexes = ("Female", "Male") if k < 3 else ("Both",)
        for year in range(1950, 2016):
            text = rng.choice((str(year), f"+{year}", f" {year}", f"0{year}"))
            rows["gdp_hist.csv"].append([iso3, text, repr(rng.uniform(300.0, 9e4))])
            for band in FERTILE_BANDS:
                rows["rates.csv"].append([iso3, text, "Fertility", band, "Female",
                                          f"{rng.uniform(0.0, 0.3):.6f}"])
            for band in AGE_BANDS:
                for sex in sexes:
                    rate = rng.uniform(0.0, 0.7)
                    rows["rates.csv"].append([iso3, text, "Mortality", band, sex,
                                              rng.choice((repr(rate), f"{rate:.4e}"))])
        for year in range(2015, 2101, 5):
            rows["gdp_baseline.csv"].append([iso3, str(year), f"{rng.uniform(500.0, 1e5):.2f}"])
        for band in AGE_BANDS:
            for sex in ("Female", "Male"):
                rows["base_pop.csv"].append([iso3, "2015", band, sex, str(rng.randrange(10**6))])
    for name in rows:
        if name != "countries.csv":
            rng.shuffle(rows[name])
    return rows


def write_generated(data: Path, rows: dict[str, list[list[str]]]) -> Path:
    """Write ``rows`` with blank lines and rows of unknown countries mixed in,
    one of them with a quoted iso3 that spans two lines."""
    rng = random.Random(1)
    data.mkdir(parents=True, exist_ok=True)
    for name, cells in rows.items():
        lines = [HEADER_LINES[name]]
        width = HEADER_LINES[name].count(",") + 1
        for k, row in enumerate(cells):
            if name != "countries.csv" and k % 97 == 50:
                iso3 = '"X\nX"' if k == 50 else rng.choice(("XXX", "YYY"))
                lines.append(",".join([iso3] + ["?"] * (width - 1)))
            if k % 31 == 7:
                lines.append("")
            lines.append(",".join(row))
        (data / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory):
    return write_generated(tmp_path_factory.mktemp("generated"), generated_rows())


def ingest_error(load, data):
    with pytest.raises(DemotrendError) as err:
        load(data)
    return err.value


def line_of(data: Path, name: str, row: list[str]) -> int:
    """The physical line on which the first data row equal to ``row`` ends."""
    with (data / name).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        return next(reader.line_num for cells in reader if cells == row)


class TestAgainstRowLoader:
    """The columnar loader against the seed program's, which reads one row at
    a time (``seed_oracle.load_dataset``): the same datasets, and the same
    errors wherever the seed has the rule."""

    def test_generated_set_spans_chunks(self):
        assert len(generated_rows()["rates.csv"]) > 3 * CHUNK_ROWS

    @pytest.mark.parametrize("which", ["tiny", "generated"])
    def test_same_dataset(self, which, generated_dir):
        data = TINY if which == "tiny" else generated_dir
        ds = load_dataset(data)
        same_dataset(ds, seed_oracle.load_dataset(data))
        if which == "generated":
            assert len(ds.rejections) > 3
            assert ds.countries[1].name == "Country\n" + GENERATED[1]

    FAULTS = {
        "non-numeric rate": [(5, "high")],
        "nan rate": [(5, "nan")],
        "inf rate": [(5, "-inf")],
        "negative rate": [(5, "-0.5")],
        "rate above one": [(2, "Mortality"), (5, "1.5")],
        "bad year": [(1, "19x0")],
        "year out of range": [(1, "1949")],
        "huge year": [(1, "1" + "0" * 400)],
        "unknown band": [(3, "0-3")],
        "unknown variable": [(2, "Births")],
        "fertility band": [(2, "Fertility"), (3, "50-54")],
        "fertility sex": [(2, "Fertility"), (3, "20-24"), (4, "Male")],
        "two faults": [(1, "1949"), (2, "Births")],
    }
    # Rules the seed lacks: it loads these rows, so the messages are pinned here.
    SEEDLESS = {"rate above one": "mortality rate is a probability in [0, 1], got 1.5"}

    @pytest.mark.parametrize("fault", FAULTS)
    def test_same_error_past_the_first_chunk(self, tmp_path, fault):
        rows = generated_rows()
        for at in (2 * CHUNK_ROWS + 11, CHUNK_ROWS + 3):  # the earlier one is reported
            for column, text in self.FAULTS[fault]:
                rows["rates.csv"][at][column] = text
        data = write_generated(tmp_path, rows)
        error = ingest_error(load_dataset, data)
        if fault in self.SEEDLESS:
            seed_oracle.load_dataset(data)
            line = line_of(data, "rates.csv", rows["rates.csv"][CHUNK_ROWS + 3])
            assert (type(error), str(error)) == (
                SchemaViolation, f"rates.csv:{line}: {self.SEEDLESS[fault]}")
        else:
            expected = ingest_error(seed_oracle.load_dataset, data)
            assert (type(error), str(error)) == (type(expected), str(expected))
        assert error.line > CHUNK_ROWS

    # Byte-level faults, with the exception the seed lets escape for each, so
    # the messages are pinned here: (file, row, column, the cell's bytes,
    # the seed's exception, the reason).
    BYTE_FAULTS = {
        "undecodable byte": ("rates.csv", CHUNK_ROWS + 3, 5, b"0.1\xff2", UnicodeDecodeError,
                             "byte 0xff is not UTF-8 (invalid start byte)"),
        "field over the csv limit": ("countries.csv", 4, 1, b"N" * 200_000, csv.Error,
                                     "field larger than field limit (131072)"),
    }

    @pytest.mark.parametrize("fault", BYTE_FAULTS)
    def test_byte_level_fault_is_a_schema_violation(self, tmp_path, fault):
        """The bad rates.csv byte lies past the first 8 KiB that the text
        layer decodes at once: its line is counted from the file's start."""
        name, at, column, cell, seed_error, reason = self.BYTE_FAULTS[fault]
        rows = generated_rows()
        rows[name][at][column] = "MARKED"
        data = write_generated(tmp_path, rows)
        line = line_of(data, name, rows[name][at])
        path = data / name
        assert path.read_bytes().count(b"MARKED") == 1
        path.write_bytes(path.read_bytes().replace(b"MARKED", cell))
        with pytest.raises(seed_error):
            seed_oracle.load_dataset(data)
        error = ingest_error(load_dataset, data)
        assert (type(error), str(error)) == (SchemaViolation, f"{name}:{line}: {reason}")
        assert name == "countries.csv" or path.read_bytes().index(b"\xff") > 8192

    def test_same_duplicate_error_across_chunks(self, tmp_path):
        """A repeat in the third chunk of a row of the first."""
        rows = generated_rows()
        rows["rates.csv"].insert(2 * CHUNK_ROWS + 5, list(rows["rates.csv"][3]))
        data = write_generated(tmp_path, rows)
        error = ingest_error(load_dataset, data)
        expected = ingest_error(seed_oracle.load_dataset, data)
        assert (type(error), str(error)) == (type(expected), str(expected))
        assert str(error).split(": ")[1].startswith("duplicate observation")
        assert error.line > 2 * CHUNK_ROWS


class TestIngestMemory:
    def test_traced_peak_per_row(self, generated_dir):
        """Parsed cells live one chunk at a time, so the traced peak per
        rates.csv row is at most half the row-list loader's (632 B on a
        world-like 180-country set)."""
        rows = len(generated_rows()["rates.csv"])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            load_dataset(generated_dir)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / rows <= 316

    def test_keys_hold_canonical_strings(self, generated_dir):
        ds = load_dataset(generated_dir)
        iso3_of = {c.iso3: c.iso3 for c in ds.countries}
        for iso3, _, band, _ in ds.rate_index:
            assert iso3 is iso3_of[iso3]
            assert band is AGE_BANDS[AGE_INDEX[band]]
        for index in (ds.gdp_hist_index, ds.gdp_baseline_index, ds.base_pop_index):
            assert all(iso3 is iso3_of[iso3] for iso3 in index)
        assert all(state.iso3 is iso3_of[state.iso3] for state in ds.base_pop_index.values())
