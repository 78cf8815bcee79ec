"""Self-checks of the benchmark's own logic.

Run from the repository root:

    python3 bench/selftest.py

The name keeps pytest from collecting these with the program's tests.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import Span, self_times  # noqa: E402

SRC = Path.cwd() / "src"
SMALL = corpus.Workload(images=4, strokes=5, jobs=1)


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_differs(self):
        with tempfile.TemporaryDirectory() as tmp:
            digests = []
            for name, seed in (("a", 3), ("b", 3), ("c", 4)):
                corpus.write_inputs(Path(tmp) / name, seed, SMALL)
                digests.append(corpus.tree_digest(Path(tmp) / name))
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])

    def test_clean_is_hairy_without_strokes(self):
        hairy = corpus.render_image(5, 0, strokes=5)
        clean = corpus.render_image(5, 0, strokes=0)
        differs = (hairy != clean).any(axis=2)
        self.assertTrue(0 < differs.sum() < differs.size // 10)


class OutputCheckTest(unittest.TestCase):
    def test_one_byte_flip_is_one_failure(self):
        rel_paths = [corpus.image_path(i, 4) for i in range(4)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for rel in rel_paths:
                stem = out / rel[: -len(".ppm")]
                stem.parent.mkdir(parents=True, exist_ok=True)
                Path(f"{stem}.pre.ppm").write_bytes(b"P6 1 1 255\n" + rel.encode())
                Path(f"{stem}.mask.pgm").write_bytes(b"P5 1 1 255\n\0")
            pinned = checks.output_digests(out, rel_paths)
            victim = out / (rel_paths[2][: -len(".ppm")] + ".mask.pgm")
            data = bytearray(victim.read_bytes())
            data[-1] ^= 1
            victim.write_bytes(bytes(data))
            tally = checks.Tally()
            for stem, ok in checks.compare_outputs(checks.output_digests(out, rel_paths), pinned).items():
                tally.check(ok, stem)
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertEqual(tally.failures, [rel_paths[2][: -len(".ppm")]])

    def test_missing_output_fails(self):
        digests = {"a.pre.ppm": "missing", "a.mask.pgm": "missing"}
        self.assertEqual(checks.compare_outputs(digests, digests), {"a": False})


class EvalTest(unittest.TestCase):
    def test_log_holds_planted_counts(self):
        for seed in (1, 2, 7919):
            p = corpus.planted_counts(seed)
            rows = list(csv.DictReader(io.StringIO(corpus.prediction_log(seed))))
            self.assertEqual(len(rows), corpus.EVAL_RECORDS)
            cells = {(r["predicted"], r["truth"]) for r in rows}
            self.assertEqual(len(cells), 4)
            count = lambda pr, tr: sum(r["predicted"] == pr and r["truth"] == tr for r in rows)  # noqa: E731
            self.assertEqual(
                (count("malignant", "malignant"), count("malignant", "benign"),
                 count("benign", "malignant"), count("benign", "benign")),
                (p.tp, p.fp, p.fn, p.tn),
            )

    def test_library_recovers_planted_counts(self):
        if not (SRC / "lesionprep").is_dir():
            self.skipTest("src/lesionprep not found; run from the repository root")
        sys.path.insert(0, str(SRC))
        from lesionprep import evaluation

        p = corpus.planted_counts(11)
        report = evaluation.metrics_report(evaluation.parse_prediction_log(corpus.prediction_log(11)))
        tally = checks.Tally()
        checks.check_eval_json(tally, json.dumps(evaluation.report_to_dict(report)), p)
        checks.check_report_text(tally, evaluation.render_report_text(report), p)
        self.assertEqual((tally.attempted, tally.failed), (12, 0))

    def test_wrong_count_and_metric_fail(self):
        p = corpus.Planted(tp=200, fp=50, fn=60, tn=350)
        exact = {k: float(v) for k, v in checks.exact_metrics(p).items()}
        good = {"confusion": {"tp": 200, "fp": 50, "fn": 60, "tn": 350}, "metrics": exact}
        tally = checks.Tally()
        checks.check_eval_json(tally, json.dumps(good), p)
        self.assertEqual(tally.failed, 0)
        bad = json.loads(json.dumps(good))
        bad["confusion"]["tp"] = 201
        bad["metrics"]["f1"] += 0.02
        checks.check_eval_json(tally, json.dumps(bad), p)
        self.assertEqual(tally.failures, ["eval counts", "eval f1"])
        checks.check_eval_json(tally, "not json", p)
        self.assertEqual(tally.failed, 2 + 6)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0, None, None),
            Span("a", 1.0, 4.0, 0, "x"),
            Span("b", 3.0, 6.0, 0, "x"),   # overlaps a: the union [1, 6] is covered once
            Span("a.1", 2.0, 3.0, 1, "x"),
            Span("c", 8.0, 12.0, 0, "y"),  # runs past its parent: clipped at 10
            Span("other", 20.0, 21.0, None, None),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 3.0, 1.0, 4.0, 1.0])


if __name__ == "__main__":
    unittest.main()
