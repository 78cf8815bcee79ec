import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import UTF8_TEXT
from lesionprep.evaluation import (
    LOG_HEADER,
    ConfusionMatrix,
    PredictionRecord,
    f1,
    metrics_report,
    paper_rounding,
    parse_prediction_log,
    render_report_text,
    report_to_dict,
)


def load_log(data_dir, name):
    return parse_prediction_log((data_dir / name).read_bytes())


def record(case_id, predicted, truth, confidence=0.9):
    return PredictionRecord(str(case_id), predicted, confidence, truth)


# a carriage return inside an unquoted field, which the csv module rejects
BARE_CR_LOG = "case_id,predicted,confidence,truth\n1,benign,0.9,ben\rign\n"
LOG_TOKENS = st.sampled_from([
    "benign", "malignant", "0.9", "97.8%", "nan", "1e999", "-1", "x",
    ",", " ", "\n", "\r", "\r\n", '"', "\x00",
])


class TestParse:
    def test_decimal_confidence(self):
        recs = parse_prediction_log("case_id,predicted,confidence,truth\n1,benign,0.984,benign\n")
        assert recs == [PredictionRecord("1", "benign", 0.984, "benign")]

    def test_percent_confidence(self):
        recs = parse_prediction_log(
            "case_id,predicted,confidence,truth\n16,malignant,97.8%,malignant\n"
        )
        assert recs[0].confidence == pytest.approx(0.978)

    def test_duplicate_case_id_names_both_lines(self):
        text = (
            "case_id,predicted,confidence,truth\n"
            "1,benign,0.9,benign\n"
            "2,benign,0.9,benign\n"
            "1,malignant,0.8,malignant\n"
        )
        with pytest.raises(ValueError, match="lines 2 and 4"):
            parse_prediction_log(text)

    @pytest.mark.parametrize("row, label", [
        ("1,maligant,0.9,benign", "maligant"),
        ("1,benign,0.9,Benign", "Benign"),
        ("1,what,0.9,nor", "what"),  # the predicted column is checked first
    ], ids=["predicted", "truth", "both"])
    def test_unknown_label(self, row, label):
        with pytest.raises(ValueError) as exc:
            parse_prediction_log(f"case_id,predicted,confidence,truth\n{row}\n")
        assert str(exc.value) == f"line 2: unknown label {label!r}"

    def test_confidence_out_of_range(self):
        with pytest.raises(ValueError, match="out of"):
            parse_prediction_log("case_id,predicted,confidence,truth\n1,benign,1.2,benign\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_prediction_log("id,pred,conf,gt\n")

    def test_bare_cr_in_a_field_names_the_line(self):
        with pytest.raises(ValueError, match="line 2: new-line character"):
            parse_prediction_log(BARE_CR_LOG)

    def test_error_after_a_multiline_record_names_its_physical_line(self):
        # the quoted case_id of the first record spans lines 2 and 3
        text = 'case_id,predicted,confidence,truth\n"a\nb",benign,0.9,benign\nc,what,0.9,benign\n'
        with pytest.raises(ValueError, match="line 4: unknown label 'what'"):
            parse_prediction_log(text)

    def test_non_utf8_bytes(self):
        with pytest.raises(ValueError, match="not UTF-8"):
            parse_prediction_log(b"case_id,predicted,confidence,truth\n1,benign,0.9,\xffbenign\n")

    def test_leading_bom_is_accepted(self):
        recs = parse_prediction_log(b"\xef\xbb\xbfcase_id,predicted,confidence,truth\n1,benign,0.9,benign\n")
        assert recs == [PredictionRecord("1", "benign", 0.9, "benign")]

    @given(st.one_of(
        st.binary(), UTF8_TEXT, st.lists(LOG_TOKENS).map("".join),
        st.lists(LOG_TOKENS).map(lambda t: ",".join(LOG_HEADER) + "\n" + "".join(t)),
    ))
    @example(BARE_CR_LOG)
    def test_arbitrary_input_raises_only_log_error(self, data):
        try:
            parse_prediction_log(data)
        except ValueError as exc:
            assert type(exc) is ValueError


class TestConfusion:
    def test_processed_column_counts(self, data_dir):
        cm = metrics_report(load_log(data_dir, "table2_processed.csv"))
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (10, 2, 1, 8)

    def test_original_column_counts(self, data_dir):
        cm = metrics_report(load_log(data_dir, "table2_original.csv"))
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (10, 3, 1, 7)

    def test_all_correct(self):
        recs = [record(i, "malignant", "malignant") for i in range(3)] + [
            record(i + 10, "benign", "benign") for i in range(4)
        ]
        cm = metrics_report(recs)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (3, 0, 0, 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            metrics_report([])

    @pytest.mark.parametrize("counts", [("3", 1, 1, 1), (1, -3, 1, 1), (1, 1, 1.0, 1),
                                        (1, 1, 1, True)])
    def test_rejects_non_count_values(self, counts):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            ConfusionMatrix(*counts)

    def test_permutation_invariance(self, data_dir):
        recs = load_log(data_dir, "table2_processed.csv")
        for perm in itertools.islice(itertools.permutations(recs), 0, 50, 7):
            assert metrics_report(list(perm)) == metrics_report(recs)


class TestScalarMetrics:
    """The ConfusionMatrix properties, the one implementation of each metric."""

    def test_accuracy_processed(self):
        assert ConfusionMatrix(10, 2, 1, 8).accuracy == pytest.approx(100 * 18 / 21)

    def test_accuracy_original(self):
        assert ConfusionMatrix(10, 3, 1, 7).accuracy == pytest.approx(100 * 17 / 21)

    def test_accuracy_of_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ConfusionMatrix(0, 0, 0, 0).accuracy

    def test_sensitivity(self):
        assert ConfusionMatrix(10, 2, 1, 8).sensitivity == pytest.approx(100 * 10 / 11)
        assert ConfusionMatrix(5, 1, 0, 3).sensitivity == 100.0
        assert ConfusionMatrix(0, 2, 0, 8).sensitivity is None

    def test_specificity(self):
        assert ConfusionMatrix(10, 2, 1, 8).specificity == pytest.approx(80.0)
        assert ConfusionMatrix(4, 0, 1, 5).specificity == 100.0
        assert ConfusionMatrix(4, 0, 1, 0).specificity is None

    def test_precision(self):
        assert ConfusionMatrix(10, 2, 1, 8).precision == pytest.approx(100 * 10 / 12)
        assert ConfusionMatrix(4, 0, 1, 5).precision == 100.0
        assert ConfusionMatrix(0, 0, 1, 5).precision is None

    def test_metrics_are_exact_fractions(self):
        rep = ConfusionMatrix(10, 2, 1, 8)
        assert rep.accuracy == Fraction(1800, 21)
        assert rep.sensitivity == Fraction(1000, 11)
        assert rep.specificity == 80
        assert rep.precision == Fraction(1000, 12)
        assert f1(rep.precision, rep.sensitivity) == Fraction(2000, 23)

    def test_f1_published_values(self):
        assert int(f1(70.0, 87.5)) == 77
        assert int(f1(80.0, 89.0)) == 84

    def test_f1_of_equals(self):
        assert f1(63.0, 63.0) == pytest.approx(63.0)

    def test_f1_bounds(self, rng):
        for _ in range(100):
            p, r = rng.uniform(1, 100, size=2)
            v = f1(p, r)
            assert min(p, r) <= v <= max(p, r)

    def test_f1_rejects_double_zero(self):
        with pytest.raises(ValueError):
            f1(0.0, 0.0)


class TestMetricsReport:
    def test_processed_column(self, data_dir):
        rep = metrics_report(load_log(data_dir, "table2_processed.csv"))
        assert rep.accuracy == pytest.approx(85.71, abs=0.01)
        assert rep.sensitivity == pytest.approx(90.91, abs=0.01)
        assert rep.specificity == pytest.approx(80.00, abs=0.01)
        assert rep.precision == pytest.approx(83.33, abs=0.01)
        assert rep.f1 == pytest.approx(86.96, abs=0.01)

    def test_original_column(self, data_dir):
        rep = metrics_report(load_log(data_dir, "table2_original.csv"))
        assert rep.accuracy == pytest.approx(80.95, abs=0.01)
        assert rep.sensitivity == pytest.approx(90.91, abs=0.01)
        assert rep.specificity == pytest.approx(70.00, abs=0.01)
        assert rep.precision == pytest.approx(76.92, abs=0.01)
        assert rep.f1 == pytest.approx(83.33, abs=0.01)

    def test_single_correct_benign(self):
        rep = metrics_report([record(1, "benign", "benign")])
        assert rep.accuracy == 100.0
        assert rep.sensitivity is None
        assert rep.specificity == 100.0
        assert rep.f1 is None

    def test_paper_rounding_display(self, data_dir):
        rounded = paper_rounding(metrics_report(load_log(data_dir, "table2_processed.csv")))
        assert rounded["accuracy"] == 86
        rounded = paper_rounding(metrics_report(load_log(data_dir, "table2_original.csv")))
        assert rounded["accuracy"] == 81

    @pytest.mark.parametrize("counts, f1_cell, f1_text", [
        ((1, 1, 22, 0), 8, "8.00%"),  # exactly 2/25; float F1 truncated to 7
        ((1, 80, 119, 5), 0, "1.00%"),  # 200/201 %; re-rounding 1.00 gave 1
    ])
    def test_f1_cell_is_exact(self, counts, f1_cell, f1_text):
        rep = ConfusionMatrix(*counts)
        assert rep.f1 == Fraction(200 * counts[0], 2 * counts[0] + counts[1] + counts[2])
        assert paper_rounding(rep)["f1"] == f1_cell
        assert f"f1           {f1_text}" in render_report_text(rep)
        assert f"f1={f1_cell}%" in render_report_text(rep, paper_round=True)

    def test_two_decimals_round_half_to_even(self):
        # accuracy 2469/200 % = 12.345 exactly: a single rounding gives 12.34
        rep = ConfusionMatrix(2469, 20000 - 2469, 0, 0)
        assert report_to_dict(rep)["metrics"]["accuracy"] == 12.34
        assert "accuracy     12.34%" in render_report_text(rep)

    def test_sentinels_render_na(self):
        rep = metrics_report([record(1, "benign", "benign")])
        text = render_report_text(rep)
        assert "sensitivity  n/a" in text
        d = report_to_dict(rep)
        assert d["metrics"]["sensitivity"] is None


class TestAlgebraicProperties:
    def test_relabel_symmetry(self, rng):
        # swapping the positive-class convention swaps sensitivity/specificity
        swap = {"benign": "malignant", "malignant": "benign"}
        for _ in range(20):
            recs = [
                record(
                    i,
                    rng.choice(["benign", "malignant"]),
                    rng.choice(["benign", "malignant"]),
                )
                for i in range(15)
            ]
            flipped = [
                PredictionRecord(r.case_id, swap[r.predicted], r.confidence, swap[r.truth])
                for r in recs
            ]
            rep, rep_flipped = metrics_report(recs), metrics_report(flipped)
            assert rep.sensitivity == rep_flipped.specificity
            assert rep.specificity == rep_flipped.sensitivity

    def test_accuracy_decomposition(self, rng):
        for _ in range(50):
            tp, fp, fn, tn = rng.integers(1, 20, size=4)
            cm = ConfusionMatrix(int(tp), int(fp), int(fn), int(tn))
            expected = (
                cm.sensitivity * (cm.tp + cm.fn) + cm.specificity * (cm.tn + cm.fp)
            ) / cm.total
            assert cm.accuracy == pytest.approx(expected)
