"""The four workloads, their inputs and their correctness checks.

A workload yields the ops of one pass.  Each op is `(key, run, check)`:
`run()` is the timed call into the program and `check(result)` (untimed)
returns the list of reasons the op failed, empty when it passed, and the
outcome digest compared with the snapshot.

- `exact`: generated set expressions through every exact mean, the mean
  sets, the topology builders and a parse/render round trip.
- `limits`: schedule-driven limit means (`lavg`, `mean_eds`, `mean_iso`).
- `stream`: rearrangement streams, 10^5 pulls each in chunks of 1000.
- `cli`: README-style commands, each in a fresh interpreter.

Only `exact` draws its inputs from the seed.  The other three run fixed
lists in a fixed order, because the order of in-process items changes
which `terms` caches are warm and so moves their timings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = json.loads((BENCH / "reference.json").read_text())

# The exact corpus: a fixed pool of generated cases, of which each run takes
# a seeded sample, so the outcome snapshot covers every seed.
POOL_SEED = 1704
POOL_SIZE = 1000
SAMPLE_SIZE = 250


def digest(parts) -> str:
    return hashlib.sha1("\n".join(parts).encode()).hexdigest()[:16]


def fraction(text) -> Fraction:
    return Fraction(str(text))


def import_setmeans():
    """Import the program from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "setmeans" / "__init__.py").is_file():
        raise SystemExit(f"setmeans sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import setmeans

    if Path(setmeans.__file__).resolve().parent != SRC / "setmeans":
        raise SystemExit(f"imported setmeans from {setmeans.__file__}, not {SRC}")
    return setmeans


# ---------------------------------------------------------------------------
# outcome rendering shared by the in-process workloads


class DomainError:
    """A `SetMeansError` raised by the program: an outcome, not a failure."""

    def __init__(self, exc):
        self.name = type(exc).__name__


class Crash:
    """Any other exception: a failed op."""

    def __init__(self, exc):
        self.name = type(exc).__name__
        self.text = str(exc)[:200]


def outcome_str(sm, value) -> str:
    """Status, exact value, float bits and mean-set parts of one result."""
    if isinstance(value, DomainError):
        return f"error:{value.name}"
    if isinstance(value, Crash):
        return f"crash:{value.name}"
    if isinstance(value, bool):
        return f"bool:{value}"
    if isinstance(value, Fraction):
        return f"q:{value}"
    if isinstance(value, sm.MeanOutcome):
        band = "" if value.band is None else f"{value.band[0].hex()},{value.band[1].hex()}"
        val = "" if value.value is None else float(value.value).hex()
        return f"mean:{value.status}:{value.exact}:{val}:{band}"
    if isinstance(value, sm.MeanSet):
        return "set:" + ";".join(
            f"{p.lo},{p.hi},{p.lo_open},{p.hi_open}" for p in value.parts
        )
    if isinstance(value, tuple):
        return "(" + "|".join(outcome_str(sm, v) for v in value) + ")"
    if isinstance(value, sm.SetExpr):
        return "expr:" + sm.render(sm.normalize_affine(value))
    raise TypeError(f"no outcome rendering for {value!r}")


def guarded(sm, call, *args):
    try:
        return call(*args)
    except sm.SetMeansError as exc:
        return DomainError(exc)
    except Exception as exc:  # a failed op, reported by the check
        return Crash(exc)


# ---------------------------------------------------------------------------
# exact: symbolic means over generated expressions


def _ideal(kind):
    return lambda sm, s, y: sm.mean_ideal(s, getattr(sm.Ideal, kind))


EXACT_CALLS = (
    ("lis", lambda sm, s, y: sm.mean_lis(s)),
    ("ideal:empty", _ideal("EMPTY_ONLY")),
    ("ideal:finite", _ideal("FINITE_SETS")),
    ("ideal:countable", _ideal("COUNTABLE_SETS")),
    ("ideal:null", _ideal("NULL_SETS")),
    ("chain", lambda sm, s, y: sm.mean_ideal_chain(s)),
    ("acc", lambda sm, s, y: sm.mean_acc(s)),
    ("avg", lambda sm, s, y: sm.avg_set(s)),
    ("hf", lambda sm, s, y: sm.ms_hf(s)),
    ("ms_a", lambda sm, s, y: sm.ms_a(s)),
    ("ms_as", lambda sm, s, y: sm.ms_as(s)),
    ("ms_axs", lambda sm, s, y: sm.ms_axs(s)),
    ("derived", lambda sm, s, y: sm.derived_set(s)),
    ("closure", lambda sm, s, y: sm.closure(s)),
    ("split", lambda sm, s, y: sm.split_at(s, y)),
    ("roundtrip", lambda sm, s, y: sm.parse(sm.render(s)) == s),
)
CALL_INDEX = {name: i for i, (name, _) in enumerate(EXACT_CALLS)}
# scalar means that must commute with x -> alpha*x + beta
EQUIVARIANT = ("lis", "ideal:empty", "ideal:finite", "ideal:countable", "ideal:null", "chain", "acc", "avg")
# means that extend the arithmetic mean of a finite set
FINITE_EXTENSION = ("lis", "chain", "acc", "avg")


def scalar(value):
    """The exact value of a scalar mean result, or the outcome kind."""
    if isinstance(value, Fraction):
        return value
    exact = getattr(value, "exact", None)
    if exact is not None:
        return Fraction(exact)
    return type(value).__name__ + ":" + getattr(value, "name", "")


class Exact:
    name = "exact"

    def setup(self, seed: int, whole_pool: bool = False) -> None:
        """Parse the seed's sample of the pool, or the whole pool when
        recording the snapshot; the other workloads always run everything."""
        self.sm = sm = import_setmeans()
        pool = gen.generate_pool(POOL_SEED, POOL_SIZE)
        self.cases = []  # (index, case, parsed set, parsed image)
        self.setup_outcomes = {}  # snapshot key -> digest, for unparsable texts
        sample = range(POOL_SIZE) if whole_pool else gen.sample_indices(seed, POOL_SIZE, SAMPLE_SIZE)
        for i in sample:
            case = pool[i]
            s = guarded(sm, sm.parse, case.text)
            t = guarded(sm, sm.parse, case.image)
            if isinstance(s, (DomainError, Crash)) or isinstance(t, (DomainError, Crash)):
                self.setup_outcomes[f"{i}:parse"] = digest([outcome_str(sm, s), outcome_str(sm, t)])
                continue
            self.cases.append((i, case, s, t))

    @staticmethod
    def pool_sha256() -> str:
        """Fingerprint of the generated corpus text."""
        pool = gen.generate_pool(POOL_SEED, POOL_SIZE)
        return hashlib.sha256("\n".join(c.text + "\n" + c.image for c in pool).encode()).hexdigest()

    def run_expr(self, s, y):
        sm = self.sm
        return [guarded(sm, call, sm, s, y) for _, call in EXACT_CALLS]

    def pass_ops(self):
        sm = self.sm
        for i, case, s, t in self.cases:
            state = {}

            def check_s(res, case=case, state=state):
                state["s"] = res
                problems = self._common(res)
                if case.finite_points is not None:
                    mean = sum(case.finite_points, Fraction(0)) / len(case.finite_points)
                    for name in FINITE_EXTENSION:
                        got = scalar(res[CALL_INDEX[name]])
                        if isinstance(got, Fraction) and got != mean:
                            problems.append(f"{name} {got} is not the arithmetic mean {mean}")
                        elif name != "avg" and not isinstance(got, Fraction):
                            problems.append(f"{name} gave {got} on a finite set")
                return problems, digest([outcome_str(sm, r) for r in res])

            def check_t(res, case=case, state=state):
                problems = self._common(res)
                for name in EQUIVARIANT:
                    a = scalar(state["s"][CALL_INDEX[name]])
                    b = scalar(res[CALL_INDEX[name]])
                    if isinstance(a, Fraction) and isinstance(b, Fraction):
                        if b != case.alpha * a + case.beta:
                            problems.append(f"{name}: mean of image {b} != {case.alpha}*{a} + {case.beta}")
                    elif a != b:
                        problems.append(f"{name}: {a} on the set but {b} on its image")
                return problems, digest([outcome_str(sm, r) for r in res])

            y = case.split_y
            yield f"{i}:S", (lambda s=s, y=y: self.run_expr(s, y)), check_s
            yield f"{i}:T", (lambda t=t, y=y: self.run_expr(t, y)), check_t

    @staticmethod
    def _common(res) -> list[str]:
        problems = [f"{name} raised {r.name}: {r.text}" for (name, _), r in zip(EXACT_CALLS, res) if isinstance(r, Crash)]
        if res[CALL_INDEX["roundtrip"]] is False:
            problems.append("parse(render(s)) != s")
        return problems


# ---------------------------------------------------------------------------
# limits: schedule-driven means


# the named sets of README and the acceptance tests
H1 = "{1/n} U {1 + 1/n}"
H3 = "{1/n} U {1 + 1/n + 1/k}"
H4 = "{1/n} U {1 - 1/n} U {5 + 1/n}"
L = "{1/n} U {2 + 1/2^n}"
H_EDS = "{1/2^n} U {2 + 1/2^n} U {2 + 1/2^n + 1/2^(2^n)}"

# Items slower than about half a second run once per pass.  A round of the
# cheaper items runs before each of them and at the end, so each cheap item
# has samples spread over the whole pass and its median latency does not
# rest on one moment of a machine whose speed drifts.
HEAVY = {"lavg:L", "lavg:H3", "eds:L", "eds:H3", "iso:H3"}

LIMIT_ITEMS = (
    ("lavg:L", L, lambda sm, s: sm.lavg(s)),
    ("lavg:C", "C", lambda sm, s: sm.lavg(s)),
    ("lavg:[0,1]+Q(1,2)", "[0,1] U Q(1,2)", lambda sm, s: sm.lavg(s)),
    ("lavg:3C+1", "3*C + 1", lambda sm, s: sm.lavg(s)),
    ("lavg:3C+1+{1/n}", "3*C + 1 U {1/n}", lambda sm, s: sm.lavg(s)),
    ("lavg:H3", H3, lambda sm, s: sm.lavg(s, sm.delta_schedule(end_exp=16))),
    ("eds:L", L, lambda sm, s: sm.mean_eds(s)),
    ("eds:C", "C", lambda sm, s: sm.mean_eds(s)),
    ("eds:[0,3]", "[0,3]", lambda sm, s: sm.mean_eds(s, sm.grid_schedule(tol=1e-8))),
    ("eds:[0,1]+Q(1,2)", "[0,1] U Q(1,2)", lambda sm, s: sm.mean_eds(s, sm.grid_schedule(tol=1e-5))),
    (
        "eds:H_EDS",
        H_EDS,
        lambda sm, s: sm.mean_eds(s, sm.grid_schedule(early_stop=False), base=(Fraction(0), Fraction(4))),
    ),
    ("eds:H3", H3, lambda sm, s: sm.mean_eds(s, sm.grid_schedule(end_exp=20))),
    ("eds:{1/2^(2^n)}", "{1/2^(2^n)}", lambda sm, s: sm.mean_eds(s, base=(Fraction(0), Fraction(1)))),
    ("iso:{0,1}+{1/n}+{1+1/2^n}", "{0,1} U {1/n} U {1 + 1/2^n}", lambda sm, s: sm.mean_iso(s)),
    (
        "iso:H_EDS",
        H_EDS,
        lambda sm, s: sm.mean_iso(s, sm.delta_schedule(start_exp=4, end_exp=30, early_stop=False)),
    ),
    (
        "iso:H3",
        H3,
        lambda sm, s: sm.mean_iso(s, sm.delta_schedule(start_exp=4, end_exp=7, early_stop=False)),
    ),
    ("iso:oscillating", None, lambda sm, s: sm.mean_iso_oscillating()),
)


def _trace_value(out, exp: int):
    for param, value in out.trace:
        if round(abs(math.log2(param))) == exp:
            return value
    return None


def check_outcome(ref: dict, out) -> list[str]:
    """Compare a MeanOutcome with one hand-written reference entry."""
    if isinstance(out, Crash):
        return [f"raised {out.name}: {out.text}"]
    if isinstance(out, DomainError):
        return [f"domain error {out.name}"] if "status" in ref or "value" in ref else []
    problems = []
    ok = out.status in ("exact", "converged")
    if "status" in ref and out.status not in ref["status"]:
        problems.append(f"status {out.status}, expected {ref['status']}")
    if "not_status" in ref and out.status in ref["not_status"]:
        problems.append(f"status {out.status}")
    if "value" in ref:
        target, tol = ref["value"]
        if not ok or abs(out.value - target) >= tol:
            problems.append(f"{out.status} {out.value}, expected {target} within {tol}")
    if "if_ok_value" in ref and ok:
        target, tol = ref["if_ok_value"]
        if abs(out.value - target) >= tol:
            problems.append(f"claims {out.status} at {out.value} (exact {out.exact}); the limit is {target}")
    if "exact" in ref and out.exact != fraction(ref["exact"]):
        problems.append(f"exact {out.exact}, expected {ref['exact']}")
    if "trace_at" in ref:
        exp, target, tol = ref["trace_at"]
        v = _trace_value(out, exp)
        if v is None or abs(v - target) >= tol:
            problems.append(f"trace at 2^{exp} is {v}, expected {target} within {tol}")
    if "trace_trend" in ref:
        target, lo, hi, lag = ref["trace_trend"]
        for exp in range(lo, hi + 1):
            a, b = _trace_value(out, exp), _trace_value(out, exp - lag)
            if a is None or b is None or not abs(a - target) < abs(b - target):
                problems.append(f"error at 2^{exp} does not shrink from 2^{exp - lag}")
                break
    if "trace_within" in ref:
        lo, hi = ref["trace_within"]
        bad = [v for _, v in out.trace if not lo <= v <= hi]
        if bad:
            problems.append(f"trace values {bad[:3]} outside [{lo}, {hi}]")
    if "band_min" in ref:
        if out.band is None or out.band[1] - out.band[0] <= ref["band_min"]:
            problems.append(f"band {out.band} narrower than {ref['band_min']}")
    return problems


class Limits:
    name = "limits"

    def setup(self, seed: int, whole_pool: bool = False) -> None:
        self.sm = sm = import_setmeans()
        self.items = [(key, None if text is None else sm.parse(text), fn) for key, text, fn in LIMIT_ITEMS]
        self.setup_outcomes = {}

    def pass_ops(self):
        sm = self.sm
        cheap = [item for item in self.items if item[0] not in HEAVY]
        heavy = [item for item in self.items if item[0] in HEAVY]
        for key, s, fn in [*cheap, *(item for h in heavy for item in (h, *cheap))]:
            ref = REFERENCE["limits"][key]

            def check(out, ref=ref):
                return check_outcome(ref, out), digest([outcome_str(sm, out)])

            yield key, (lambda s=s, fn=fn: guarded(sm, fn, sm, s)), check


# ---------------------------------------------------------------------------
# stream: rearrangement streams pulled in chunks

PULLS = 100_000
CHUNK = 1000

STREAMS = (
    ("H1->7/10", lambda sm, p: sm.enumerate_with_mean(p(H1), Fraction(7, 10))),
    ("L-divergent", lambda sm, p: sm.enumerate_divergent(p(L))),
    ("H3->1", lambda sm, p: sm.enumerate_with_mean(p(H3), Fraction(1))),
    ("H4->2", lambda sm, p: sm.enumerate_with_mean(p(H4), Fraction(2))),
    (
        "merge-3/10",
        lambda sm, p: sm.merge_weighted(
            sm.stream_from_seq(p("{1/n}")), sm.stream_from_seq(p("{1 + 1/n}")), sm.MergeParams(Fraction(3, 10))
        ),
    ),
)

# the first 1000 points of {1/n} U {1 + 1/n} in canonical (round-robin) order
H1_FIRST_1000 = {Fraction(1, n) for n in range(1, 501)} | {1 + Fraction(1, n) for n in range(1, 501)}


class Stream:
    name = "stream"

    def setup(self, seed: int, whole_pool: bool = False) -> None:
        self.sm = sm = import_setmeans()
        parsed = {}

        def p(text):
            if text not in parsed:
                parsed[text] = sm.parse(text)
            return parsed[text]

        # parse every set now; the timed ops only build and pull streams
        for _, make in STREAMS:
            make(sm, p)
        self.parsed = p
        self.setup_outcomes = {}

    def pass_ops(self):
        sm = self.sm
        for key, make in STREAMS:
            ref = REFERENCE["stream"][key]
            state = {"stream": None, "seen": set(), "sum": 0.0, "count": 0, "low": False, "high": False}

            def pull_chunk(make, state):
                if state["stream"] is None:
                    state["stream"] = make(sm, self.parsed)
                pull = state["stream"].pull
                return [pull() for _ in range(CHUNK)]

            def run(make=make, state=state):
                return guarded(sm, pull_chunk, make, state)

            for chunk in range(PULLS // CHUNK):
                last = chunk == PULLS // CHUNK - 1

                def check(rows, ref=ref, state=state, last=last):
                    return self._check(ref, state, rows, last)

                yield f"{key}:{chunk}", run, check

    @staticmethod
    def _check(ref, state, rows, last):
        if isinstance(rows, (Crash, DomainError)):
            return [f"raised {rows.name}"], f"raised {rows.name}"
        problems = []
        seen = state["seen"]
        lo, hi = ref.get("crosses", (None, None))
        for f, e in rows:
            if e is not None:
                if e in seen:
                    problems.append(f"value {e} emitted twice")
                seen.add(e)
            state["sum"] += f
            state["count"] += 1
            if lo is not None:
                m = state["sum"] / state["count"]
                state["low"] |= m < lo
                state["high"] |= m > hi
        if last:
            mean = state["stream"].running_mean()
            if "target" in ref:
                target, tol = ref["target"]
                if abs(mean - target) >= tol:
                    problems.append(f"running mean {mean} after {PULLS} pulls, target {target} within {tol}")
            if ref.get("covers_first_1000") and not H1_FIRST_1000 <= seen:
                problems.append(f"{len(H1_FIRST_1000 - seen)} of the first 1000 points never emitted")
            if lo is not None and not (state["low"] and state["high"]):
                problems.append(f"running mean never crossed both {lo} and {hi}")
        floats = struct.pack(f"{len(rows)}d", *(f for f, _ in rows))
        exacts = ",".join("" if e is None else str(e) for _, e in rows)
        return problems, hashlib.sha1(floats + exacts.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per command

COMMANDS = (
    ("eval-acc-H1", ["eval", "acc", H1]),
    ("eval-acc-H2", ["eval", "acc", "{1/n} U {1 + 1/2^n}"]),
    ("eval-lis-H1", ["eval", "lis", H1]),
    ("eval-ideal-finite-H4", ["eval", "ideal:finite", H4]),
    ("eval-ideal-chain", ["eval", "ideal-chain", "[0,1] U {2 + 1/n}"]),
    ("eval-avg-interval-dense", ["eval", "avg", "[0,1] U Q(1,2)"]),
    ("eval-avg-C", ["eval", "avg", "C"]),
    ("eval-hf-interval", ["eval", "hf", "[0,3]"]),
    ("eval-lavg-C", ["eval", "lavg", "C"]),
    ("eval-lavg-interval-dense", ["eval", "lavg", "[0,1] U Q(1,2)"]),
    ("eval-lavg-3C+1", ["eval", "lavg", "3*C + 1"]),
    ("eval-lavg-3C+1+{1/n}", ["eval", "lavg", "3*C + 1 U {1/n}"]),
    ("eval-eds-interval", ["eval", "eds", "[0,3]", "--tol", "1e-8"]),
    ("eval-eds-{1/2^(2^n)}", ["eval", "eds", "{1/2^(2^n)}", "--base", "0,1"]),
    ("eval-iso-readme", ["eval", "iso", "{0,1} U {1/n} U {1 + 1/2^n}"]),
    ("eval-iso-{1/n^1000}", ["eval", "iso", "{0} U {1/n^1000}"]),
    ("meanset-a-H1", ["meanset", "a", H1]),
    ("meanset-as-H3", ["meanset", "as", H3]),
    ("meanset-axs-H4", ["meanset", "axs", H4]),
    ("topology-derived-H1", ["topology", "derived", H1]),
    ("topology-chain-H1", ["topology", "chain", H1]),
    ("topology-limits-H4", ["topology", "limits:finite", H4]),
    ("topology-hausdorff", ["topology", "hausdorff:{0,1}", "{1/10, 11/10, 21/20}"]),
    ("topology-split-H1", ["topology", "split:1/2", H1]),
    ("rearrange-H1", ["rearrange", H1, "--target", "0.7", "--terms", "10000"]),
    ("rearrange-L-divergent", ["rearrange", L, "--divergent", "--terms", "10000"]),
    ("check-H1", ["check", H1]),
    ("check-cantor-interval", ["check", "3*C + 1 U [5,6]"]),
    ("error-unknown-mean", ["eval", "bogus", "{1/n}"]),
    ("error-unterminated", ["eval", "lis", "{1/n"]),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, int]:
    """Run one interpreter to completion: exit code, stdout, peak RSS (KiB).

    `os.wait4` gives this child's own peak RSS; RUSAGE_CHILDREN would be a
    running maximum over every child so far.
    """
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def _finite_literals(text: str):
    values = set()
    for part in text.split(" U "):
        m = re.fullmatch(r"\{([^{}]*)\}", part.strip())
        if m is None:
            return None
        values |= {fraction(v.strip()) for v in m.group(1).split(",") if v.strip()}
    return values


def check_cli(ref: dict, code: int, out: bytes) -> list[str]:
    problems = []
    if code not in (0, 1, 2, 3):
        problems.append(f"exit code {code}")
    try:
        doc = json.loads(out)
        if not isinstance(doc, dict):
            raise ValueError("not an object")
    except ValueError:
        return problems + [f"exit {code} with non-JSON output {out[:80]!r}"]
    if code not in ref["exit"]:
        problems.append(f"exit code {code}, expected {ref['exit']}")
    for key, want in ref.get("fractions", {}).items():
        if key not in doc or fraction(doc[key]) != fraction(want):
            problems.append(f"{key} {doc.get(key)}, expected {want}")
    for key, want in ref.get("at_most", {}).items():
        if key not in doc or fraction(doc[key]) > fraction(want):
            problems.append(f"{key} {doc.get(key)}, expected at most {want}")
    for key, want in ref.get("equal", {}).items():
        if doc.get(key) != want:
            problems.append(f"{key} {doc.get(key)!r}, expected {want!r}")
    near = dict(ref.get("near", {}))
    if doc.get("status") in ("exact", "converged"):
        near.update(ref.get("if_ok_near", {}))
    for key, (target, tol) in near.items():
        v = doc.get(key)
        if not isinstance(v, (int, float)) or abs(v - target) >= tol:
            problems.append(f"{key} {v}, expected {target} within {tol}")
    if "parts" in ref:
        got = [
            [fraction(p["lo_exact"]), fraction(p["hi_exact"]), p["lo_closed"], p["hi_closed"]]
            for p in doc.get("parts", [])
        ]
        want = [[fraction(lo), fraction(hi), lc, hc] for lo, hi, lc, hc in ref["parts"]]
        if got != want:
            problems.append(f"parts {got}, expected {want}")
    for key, want in ref.get("finite_set", {}).items():
        if _finite_literals(str(doc.get(key))) != {fraction(v) for v in want}:
            problems.append(f"{key} {doc.get(key)!r}, expected the set {want}")
    if "all_true" in ref:
        checks = doc.get(ref["all_true"], {})
        if not checks or not all(v is True for v in checks.values()):
            problems.append(f"{ref['all_true']} {checks}")
    missing = [k for k in ref.get("keys", []) if k not in doc]
    if missing:
        problems.append(f"missing keys {missing}")
    return problems


def cli_digest(code: int, out: bytes) -> str:
    """Exit code plus the JSON document, less the schedule trace."""
    try:
        doc = json.loads(out)
    except ValueError:
        return digest([str(code), "non-json"])
    if isinstance(doc, dict):
        doc.pop("trace", None)
    return digest([str(code), json.dumps(doc, sort_keys=True)])


class Cli:
    name = "cli"

    def setup(self, seed: int, whole_pool: bool = False) -> None:
        if not (SRC / "setmeans" / "cli.py").is_file():
            raise SystemExit(f"setmeans sources not found under {SRC}")
        self.env = child_env()
        self.setup_outcomes = {}
        self.max_rss_kb = 0
        self.trace_dir: Path | None = None  # set for the traced pass
        self.child_traces: list[dict] = []

    def pass_ops(self):
        for n, (key, args) in enumerate(COMMANDS):
            ref = REFERENCE["cli"][key]

            def run(args=args, n=n):
                if self.trace_dir is None:
                    return run_child(["-m", "setmeans.cli", *args], self.env)
                dump = self.trace_dir / f"{n}.json"
                t0 = time.perf_counter()
                res = run_child([str(BENCH / "cli_child.py"), str(dump), *args], self.env)
                wall = time.perf_counter() - t0
                self.child_traces.append({**json.loads(dump.read_text()), "wall_s": wall})
                return res

            def check(res, ref=ref):
                code, out, rss = res
                self.max_rss_kb = max(self.max_rss_kb, rss)
                return check_cli(ref, code, out), cli_digest(code, out)

            yield key, run, check


WORKLOADS = {"exact": Exact, "limits": Limits, "stream": Stream, "cli": Cli}
