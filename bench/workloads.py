"""The four workloads: seeded inputs, the timed operation, and its oracle.

A workload makes each op's inputs from a `random.Random` seeded by the
run's `--seed`, so the program only ever sees generated inputs.  `run`
is the timed part; `check` runs outside the timing and raises
`WrongAnswer` when the output disagrees with an independent oracle.
Ops are grouped in rounds of a fixed composition, and a run stops only
at a round boundary, so every run measures the same mix of op kinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from time import perf_counter

from lrpoly import cli, hive, kostant, lr3, tableaux
from lrpoly.exactla import MatrixQ

METHODS = ("hive", "system", "tableaux", "steinberg")


class WrongAnswer(Exception):
    """An op finished but its output failed the oracle."""


def fmt(parts) -> str:
    return ",".join(str(p) for p in parts)


def run_cli(argv):
    """`lrpoly.cli.run` in this process, as `lrpoly ARGS`: (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def partition(rng, k: int, low: int, high: int) -> tuple:
    return tuple(sorted((rng.randint(low, high) for _ in range(k)),
                        reverse=True))


def random_triple(rng, k: int, high: int, low: int = 0):
    """(lam, mu, nu) with |lam| + |mu| = |nu| and exactly k rows in nu.

    nu starts from max(lam, mu) and receives the remaining boxes in
    random rows, so zero and positive coefficients both occur.
    """
    while True:
        lam = partition(rng, k, low, high)
        mu = partition(rng, k, 0, high)
        nu = [max(a, b) for a, b in zip(lam, mu)]
        for _ in range(sum(lam) + sum(mu) - sum(nu)):
            nu[rng.randrange(k)] += 1
        nu.sort(reverse=True)
        if nu[-1] > 0:
            return lam, mu, tuple(nu)


def prv_triple(rng, k: int, high: int):
    """A triple with positive coefficient, by the PRV theorem.

    nu is the dominant rearrangement of lam + w(mu) for a random w, and
    c(lam, mu, nu) >= 1 for every w (Kumar 1988).
    """
    while True:
        lam = partition(rng, k, 0, high)
        mu = partition(rng, k, 0, high)
        w = list(mu)
        rng.shuffle(w)
        nu = tuple(sorted((a + b for a, b in zip(lam, w)), reverse=True))
        if nu[-1] > 0:
            return lam, mu, nu


def poly_value(coefficients, n) -> Fraction:
    return sum(Fraction(c) * n**p for p, c in enumerate(coefficients))


def check_stretch_payload(payload, lam, mu, nu, k: int) -> None:
    """Interpolation and held-out values agree with the polynomial, and
    the N=1 sample equals the tableaux count of (lam, mu, nu)."""
    coeffs = payload["coefficients"]
    bound = 3 * math.comb(k - 1, 2)
    expect(payload["degree_bound"] == bound, "wrong degree bound")
    samples = [(n, Fraction(c)) for n, c in payload["samples"]]
    expect([n for n, _ in samples] == list(range(1, bound + 2)),
           "wrong sample points")
    for n, c in samples:
        expect(poly_value(coeffs, n) == c, f"polynomial misses sample N={n}")
    held = payload["verification"]
    expect([h[0] for h in held] == list(range(bound + 2, bound + 5)),
           "wrong held-out points")
    for n, e, g in held:
        expect(Fraction(e) == Fraction(g) == poly_value(coeffs, n),
               f"held-out point N={n} disagrees")
    expect(samples[0][1] == tableaux.lr_rule_count(lam, mu, nu),
           "N=1 sample differs from the tableaux count")


def scaled(parts, n: int) -> tuple:
    return tuple(n * p for p in parts)


# ---------------------------------------------------------------------------
# lr-oracle

class LrOracle:
    """Each op counts one triple by all four methods through `cli.run`.

    A round is 1 k=5, 8 k=4 and 16 k=3 triples: steinberg does nearly
    all the work, and the k=5 op keeps its Kostant memo growing.
    """

    name = "lr-oracle"
    round_ks = (5,) + (4,) * 8 + (3,) * 16
    round_len = len(round_ks)
    part_max = {3: 6, 4: 4, 5: 2}

    def kind(self, op, i: int) -> str:
        return f"k{self.round_ks[i % self.round_len]}"

    def make(self, rng, i: int):
        k = self.round_ks[i % self.round_len]
        return random_triple(rng, k, self.part_max[k])

    def run(self, op):
        lam, mu, nu = (fmt(p) for p in op)
        return [(m,) + timed(run_cli, ["lr", lam, mu, nu, "--method", m])
                for m in METHODS]

    @staticmethod
    def methods_of(out):
        return out

    def check(self, op, out) -> None:
        values = {}
        for method, (code, text), _ in out:
            expect(code == 0, f"{method} exited {code}")
            payload = json.loads(text)
            values[method] = payload["coefficient"]
        expect(all(isinstance(v, int) and v >= 0 for v in values.values()),
               f"bad coefficient {values}")
        expect(len(set(values.values())) == 1, f"methods disagree {values}")


# ---------------------------------------------------------------------------
# stretch-hive

class StretchHive:
    """Each op is `lrpoly stretch` (hive method) on a k=4 triple.

    The op kinds in a round are fixed pairs (c at N=1, c at N=2); each
    pair pins the stretching polynomial (1, N+1, a quadratic and two
    cubics), so every run sees the same spread of polynomial sizes.  The
    generator filters on the tableaux count, which the hive method
    never calls.
    """

    name = "stretch-hive"
    classes = ((1, 1), (2, 3), (3, 6), (4, 10), (5, 14))
    round_len = len(classes)

    def __init__(self):
        self._system = None

    def kind(self, op, i: int) -> str:
        return f"c{self.classes[i % self.round_len][0]}"

    def make(self, rng, i: int):
        c1, c2 = self.classes[i % self.round_len]
        while True:
            triple = random_triple(rng, 4, 8, low=1)
            if tableaux.lr_rule_count(*triple) != c1:
                continue
            doubled = (scaled(p, 2) for p in triple)
            if tableaux.lr_rule_count(*doubled) == c2:
                return triple

    def run(self, op):
        return run_cli(["stretch"] + [fmt(p) for p in op])

    def check(self, op, out) -> None:
        code, text = out
        expect(code == 0, f"stretch exited {code}")
        payload = json.loads(text)
        check_stretch_payload(payload, *op, k=4)
        # recount the first held-out point with the E x = B b system
        n, _, got = payload["verification"][0]
        if self._system is None:
            self._system = hive.build_system(4)
        recount = hive.count_via_system(
            self._system, *(scaled(p, n) for p in op))
        expect(recount == Fraction(got), f"system recount differs at N={n}")


# ---------------------------------------------------------------------------
# verify-k3

class VerifyK3:
    """Each op is `lr3.verify_cone` on the next of the 18 cones.

    A round visits every cone once, so every run sees the same cones.
    """

    name = "verify-k3"
    samples = 3

    def __init__(self):
        self.cones = lr3.load_k3()[0]
        self.round_len = len(self.cones)

    def kind(self, op, i: int) -> str:
        return self.cones[op[0]].name

    def make(self, rng, i: int):
        return i % len(self.cones), rng.randrange(2**31)

    def run(self, op):
        index, seed = op
        return lr3.verify_cone(self.cones[index], samples=self.samples,
                               seed=seed, check_steinberg=False)

    def check(self, op, out) -> None:
        expect(out.cone == self.cones[op[0]].name, "wrong cone")
        expect(out.points_checked == self.samples, "wrong point count")
        expect(out.passed, f"cone {out.cone} failed: {out.counterexamples}")


# ---------------------------------------------------------------------------
# cli-cold

def positive_root_weight(rng, k: int) -> tuple:
    """A random N-combination of the positive roots e_i - e_j of A_{k-1}."""
    v = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            m = rng.randint(0, 2)
            v[i] += m
            v[j] -= m
    return tuple(v)


def shifted_points(lam, mu, nu, k: int):
    """2(sigma(lam+delta) + tau(mu+delta) - nu - 2 delta) over S_k x S_k."""
    d2 = [k - 1 - 2 * t for t in range(k)]
    a = [2 * x + d for x, d in zip(lam, d2)]
    b = [2 * x + d for x, d in zip(mu, d2)]
    c = [2 * x + 2 * d for x, d in zip(nu, d2)]
    for pa in permutations(a):
        for pb in permutations(b):
            yield [x + y - z for x, y, z in zip(pa, pb, c)]


def wall_normals(k: int) -> set:
    """k times the S_k orbits of the fundamental weights."""
    out = set()
    for i in range(1, k):
        out.update(permutations([k - i] * i + [-i] * (k - i)))
    return out


def is_generic(lam, mu, nu, k: int) -> bool:
    walls = wall_normals(k)
    return all(sum(x * y for x, y in zip(v, w)) != 0
               for v in shifted_points(lam, mu, nu, k) for w in walls)


def eval_terms(terms: dict, point) -> Fraction:
    """Evaluate {'v1*v2': '3/2', '1': '1'} at point (v1, v2, ...)."""
    total = Fraction(0)
    for mono, coeff in terms.items():
        value = Fraction(coeff)
        if mono != "1":
            for var in mono.split("*"):
                value *= point[int(var[1:]) - 1]
        total += value
    return total


class CliCold:
    """Each op is one `python -m lrpoly.cli` process, one at a time.

    A round runs every kind once, in a fixed order; each kind's output is
    checked against a second method in the benchmark's own process.
    """

    name = "cli-cold"
    kinds = ("lr", "stretch", "kostant", "chambers", "matrix", "generic",
             "ktt")
    round_len = len(kinds)
    rss_of = resource.RUSAGE_CHILDREN  # peak memory of the CLI processes

    def __init__(self):
        # the processes import the same lrpoly as this one
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        # argv prefix that starts the CLI; the traced run swaps it
        self.launcher = [sys.executable, "-m", "lrpoly.cli"]
        self._roots = {}

    @staticmethod
    def kind(op, i: int) -> str:
        return op[0]

    def make(self, rng, i: int):
        kind = self.kinds[i % self.round_len]
        if kind == "lr":
            return kind, random_triple(rng, 3, 4)
        if kind in ("stretch", "ktt"):
            return kind, prv_triple(rng, 3, 4)
        if kind == "kostant":
            k = rng.choice((3, 4))
            return kind, (k, positive_root_weight(rng, k))
        if kind == "chambers":
            return kind, 3
        if kind == "matrix":
            return kind, (rng.choice((3, 4)), random_triple(rng, 3, 3))
        return kind, prv_triple(rng, 3, 9)

    @staticmethod
    def argv(op):
        kind, arg = op
        if kind == "lr":
            return ["lr"] + [fmt(p) for p in arg] + ["--method", "all"]
        if kind in ("stretch", "ktt", "generic"):
            return [kind] + [fmt(p) for p in arg]
        if kind == "kostant":
            return ["kostant", str(arg[0]), fmt(arg[1])]
        if kind == "chambers":
            return ["chambers", str(arg)]
        return ["matrix", str(arg[0])]

    def run(self, op):
        proc = subprocess.run(self.launcher + self.argv(op), env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, op, out) -> None:
        kind, arg = op
        code, text = out
        expect(code == 0, f"{kind} exited {code}")
        payload = json.loads(text)
        getattr(self, f"_check_{kind}")(arg, payload)

    def _check_lr(self, triple, payload):
        values = [payload[m] for m in METHODS]
        expect(payload["agree"] and len(set(values)) == 1,
               f"methods disagree {values}")
        expect(values[0] == tableaux.lr_rule_count(*triple),
               "lr differs from the in-process tableaux count")

    def _check_stretch(self, triple, payload):
        check_stretch_payload(payload, *triple, k=3)

    def _check_ktt(self, triple, payload):
        stretch = payload["stretch"]
        check_stretch_payload(stretch, *triple, k=3)
        p0 = poly_value(stretch["coefficients"], 0)
        expect(payload["p0_is_one"] == (p0 == 1), "p0_is_one is wrong")
        expect(payload["coefficients_nonnegative"]
               == all(Fraction(c) >= 0 for c in stretch["coefficients"]),
               "coefficients_nonnegative is wrong")

    def _root_matrix(self, n: int):
        if n not in self._roots:
            self._roots[n] = kostant.build_root_matrix(n).matrix
        return self._roots[n]

    def _partition_count(self, b) -> int:
        return kostant.vector_partition_count(self._root_matrix(len(b)), b)

    def _check_kostant(self, arg, payload):
        k, v = arg
        b = [sum(v[:i + 1]) for i in range(k - 1)]  # simple-root coords
        expect(int(payload["count"]) == self._partition_count(b),
               "kostant differs from vector_partition_count")

    def _check_chambers(self, n, payload):
        regions = payload["regions"]
        expect(len(regions) > 0, "no regions")
        for region in regions:
            b = [sum(col) for col in zip(*region["generators"])]
            expect(eval_terms(region["polynomial"], b)
                   == self._partition_count(b),
                   "region polynomial differs from vector_partition_count")

    def _check_matrix(self, arg, payload):
        k, triple = arg
        rows = 3 * math.comb(k, 2)
        expect(len(payload["E"]) == rows and len(payload["B"]) == rows,
               "wrong row count")
        system = hive.HiveSystem(k, MatrixQ.from_rows(payload["E"]),
                                 MatrixQ.from_rows(payload["B"]),
                                 tuple(payload["inequality_order"]))
        expect(hive.count_via_system(system, *triple)
               == tableaux.lr_rule_count(*triple),
               "printed system miscounts against tableaux")

    def _check_generic(self, triple, payload):
        k = 3
        generic = is_generic(*triple, k)
        expect(payload["generic"] == generic, "genericity differs")
        if generic:
            expect(payload["signature_entries"]
                   == math.factorial(k) ** 2 * len(wall_normals(k)),
                   "wrong signature length")


WORKLOADS = {w.name: w for w in (LrOracle, StretchHive, VerifyK3, CliCold)}
