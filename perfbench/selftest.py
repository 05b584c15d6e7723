"""Tests of the benchmark's own arithmetic, tracing and names.

    python3 perfbench/selftest.py
"""

import json
import sys
import types
import unittest

import run
import spans
from workloads import ROOT, WORKLOADS

Span = spans.Span


class SelfTimeTest(unittest.TestCase):
    def test_nested_trace(self):
        # root [0, 10] -> a [1, 4] -> c [2, 3];  root -> b [5, 9]
        trace = [
            Span(2, "c", 2.0, 3.0, 1, 0),
            Span(1, "a", 1.0, 4.0, 0, 0),
            Span(3, "b", 5.0, 9.0, 0, 0),
            Span(0, "root", 0.0, 10.0, None, 0),
        ]
        self.assertEqual(spans.self_times(trace), {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})

    def test_overlapping_children_count_once(self):
        trace = [
            Span(0, "p", 0.0, 10.0, None, 0),
            Span(1, "x", 1.0, 5.0, 0, 0),
            Span(2, "x", 3.0, 7.0, 0, 0),
        ]
        self.assertEqual(spans.self_times(trace)[0], 4.0)

    def test_children_clipped_to_parent(self):
        trace = [Span(0, "p", 2.0, 6.0, None, 0), Span(1, "x", 1.0, 8.0, 0, 0)]
        self.assertEqual(spans.self_times(trace)[0], 0.0)

    def test_self_time_summed_by_name(self):
        trace = [
            Span(0, "p", 0.0, 4.0, None, 0),
            Span(1, "x", 0.5, 1.0, 0, 0),
            Span(2, "x", 2.0, 3.0, 0, 0),
        ]
        self.assertEqual(spans.self_time_by_name(trace), {"p": 2.5, "x": 1.5})


class TracerTest(unittest.TestCase):
    def setUp(self):
        ticks = iter(range(100))
        self.tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        self.module = types.ModuleType("ruinfair.selftest_fake")
        self.module.work = lambda n: n * 2
        sys.modules[self.module.__name__] = self.module
        self.layer = spans.Layer(
            "fake.work", self.module.__name__, "work",
            (("units", lambda a, k, r: a[0]),), key=lambda a, k, r: a[0],
        )

    def tearDown(self):
        del sys.modules[self.module.__name__]

    def test_spans_record_parent_and_root(self):
        self.tracer.run("outer", self.tracer.run, "inner", lambda: None)
        inner, outer = self.tracer.spans
        self.assertEqual((outer.parent, outer.root), (None, outer.id))
        self.assertEqual((inner.parent, inner.root), (outer.id, outer.id))
        self.assertTrue(outer.start < inner.start < inner.end < outer.end)

    def test_install_counts_and_uninstall_restores(self):
        original = self.module.work
        self.assertEqual(self.tracer.install((self.layer,)), [])
        self.assertIsNot(self.module.work, original)
        self.assertEqual([self.module.work(n) for n in (3, 3, 4)], [6, 6, 8])
        self.tracer.uninstall()
        self.assertIs(self.module.work, original)
        self.assertEqual(self.tracer.counts["fake.work.units"], 10)
        self.assertEqual(self.tracer.keys["fake.work"], {3, 4})
        names = [s.name for s in self.tracer.spans]
        self.assertEqual(names.count("fake.work"), 3)
        self.assertEqual(names.count(spans.COUNT_SPAN), 3)

    def test_missing_layer_is_reported(self):
        layer = spans.Layer("fake.gone", self.module.__name__, "gone")
        self.assertEqual(self.tracer.install((layer,)), [f"{self.module.__name__}.gone"])


class NamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_names_use_allowed_characters(self):
        self.assertEqual(run._check_names(self.spec), [])
        self.assertFalse(spans.NAME_RE.fullmatch("bad name"))
        self.assertFalse(spans.NAME_RE.fullmatch("_leading"))

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
