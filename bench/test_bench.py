"""Tests of the benchmark itself: the failure gate, tails and tracing.

    python3 -m unittest discover -s bench -p 'test_*.py'

Run from the repository root.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lrpoly import cli, lr3  # noqa: E402


def small_lr_oracle(ops: int):
    """An lr-oracle round of `ops` k=3 triples, so it takes milliseconds.

    With seconds=0 a run stops after one round.
    """
    wl = workloads.LrOracle()
    wl.round_ks = (3,) * ops
    wl.round_len = ops
    return wl


class FailureGate(unittest.TestCase):
    def test_wrong_answer_and_exception_are_counted(self):
        real_run = cli.run
        calls = []

        def faulty(argv):
            calls.append(argv)
            n = len(calls)
            if n == 4 * 2 + 1:  # second timed op (after warm-up), hive: wrong
                code = real_run(argv)
                sys.stdout.seek(0)
                payload = json.loads(sys.stdout.read())
                payload["coefficient"] += 1
                sys.stdout.seek(0)
                sys.stdout.truncate()
                sys.stdout.write(json.dumps(payload))
                return code
            if n == 4 * 4 + 2:  # fourth timed op, system: raises
                raise RuntimeError("injected")
            return real_run(argv)

        with mock.patch.object(cli, "run", faulty):
            result = worker.run_loop(small_lr_oracle(6), seed=3, seconds=0)
        self.assertEqual(result["attempted"], 6)
        self.assertEqual(result["failed"], 2)
        self.assertEqual(len(result["latencies_ms"]), 6)
        self.assertTrue(any("disagree" in e for e in result["errors"]))
        self.assertTrue(any("injected" in e for e in result["errors"]))

    def test_failed_cone_is_counted(self):
        real = lr3.verify_cone

        def failing(cone, **kw):
            v = real(cone, **kw)
            return lr3.ConeVerification(v.cone, v.points_checked, False,
                                        ((None, 0, 1),))

        wl = workloads.VerifyK3()
        wl.samples = 1
        wl.round_len = 2
        with mock.patch.object(lr3, "verify_cone", failing):
            result = worker.run_loop(wl, seed=1, seconds=0)
        self.assertEqual((result["attempted"], result["failed"]), (2, 2))

    def test_clean_run_has_no_failures(self):
        result = worker.run_loop(small_lr_oracle(4), seed=3, seconds=0)
        self.assertEqual((result["attempted"], result["failed"]), (4, 0))
        self.assertEqual(set(result["method_n"].values()), {4})
        self.assertGreater(result["peak_rss_mb"], 0)
        self.assertLess(result["bench_s"], result["loop_s"])


class Inputs(unittest.TestCase):
    def test_seed_fixes_inputs(self):
        wl = workloads.StretchHive()

        def ops(seed):
            rng = random.Random(seed)
            return [wl.make(rng, i) for i in range(5)]

        self.assertEqual(ops(7), ops(7))
        self.assertNotEqual(ops(7), ops(8))

    def test_prv_triples_are_positive(self):
        from lrpoly.tableaux import lr_rule_count

        rng = random.Random(0)
        for _ in range(30):
            self.assertGreater(lr_rule_count(*workloads.prv_triple(rng, 3, 5)),
                               0)

    def test_genericity_oracle_matches_library(self):
        from lrpoly import steinberg

        rng = random.Random(1)
        for _ in range(10):
            triple = workloads.prv_triple(rng, 3, 9)
            self.assertEqual(workloads.is_generic(*triple, 3),
                             steinberg.is_generic(*triple, 3))


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        p, value, beyond = run.tail(list(range(1, 101)))
        self.assertEqual((p, value, beyond), (90, 90, 10))
        p, _, beyond = run.tail(list(range(1, 40)))
        self.assertEqual((p, beyond), (50, 19))


class Tracing(unittest.TestCase):
    def test_every_binding_is_wrapped_and_self_times_add_up(self):
        t = tracer.Tracer()
        tracer.install(t)
        import lrpoly
        from lrpoly import hive, stretch

        self.assertIs(stretch.hive_count, hive.hive_count)
        self.assertIs(lrpoly.hive_count, hive.hive_count)
        self.assertIsNot(hive.hive_count.__wrapped__, hive.hive_count)
        t.active = True
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.run(["lr", "2,1", "2,1", "3,2,1", "--method", "all"])
        t.active = False
        summary = tracer.summarize(t)
        fns = summary["functions"]
        self.assertEqual(fns["cli.lr"]["calls"], 1)
        self.assertEqual(fns["stretch.count_by"]["calls"], 4)
        self.assertEqual(sum(r["self_ns"] for r in fns.values()),
                         summary["root_ns"])
        self.assertEqual(t.results["hive.hive_count"], [2])


if __name__ == "__main__":
    unittest.main()
