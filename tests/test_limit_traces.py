"""The traces of the limit items whose outcome digest cannot see them.

`bench/workloads.outcome_str` renders a limit outcome as its status, exact
value, float value and band.  The five items below end undefined, with no
value and no band, so they all digest alike whatever their traces hold,
and `tests/test_snapshot.py` cannot see a trace move.  Here each item runs
as the `limits` workload runs it (`bench/workloads.LIMIT_ITEMS`), and the
hash of its (param.hex(), value.hex()) trace must equal the recorded one.

A change meant to move these traces re-records them: run
`PYTHONPATH=src python tests/test_limit_traces.py` and paste the printed
hashes into TRACE_HASHES.
"""

import hashlib
from fractions import Fraction

import pytest

from setmeans import delta_schedule, grid_schedule, lavg, mean_eds, mean_iso, parse

H3 = "{1/n} U {1 + 1/n + 1/k}"
H_EDS = "{1/2^n} U {2 + 1/2^n} U {2 + 1/2^n + 1/2^(2^n)}"

ITEMS = {
    "lavg:H3": lambda: lavg(parse(H3), delta_schedule(end_exp=16)),
    "eds:H3": lambda: mean_eds(parse(H3), grid_schedule(end_exp=20)),
    "iso:H3": lambda: mean_iso(parse(H3), delta_schedule(start_exp=4, end_exp=7, early_stop=False)),
    "eds:H_EDS": lambda: mean_eds(
        parse(H_EDS), grid_schedule(early_stop=False), base=(Fraction(0), Fraction(4))
    ),
    "iso:H_EDS": lambda: mean_iso(
        parse(H_EDS), delta_schedule(start_exp=4, end_exp=30, early_stop=False)
    ),
}

# recorded at the commit before the shifted union folded its runs
TRACE_HASHES = {
    "eds:H3": "9c0694f582d1994f",
    "eds:H_EDS": "147df4c381294bfe",
    "iso:H3": "207fcdc06e481139",
    "iso:H_EDS": "5550c92c9eea98a6",
    "lavg:H3": "27a3aed8195fe967",
}


def trace_hash(out) -> str:
    rows = (f"{param.hex()} {value.hex()}" for param, value in out.trace)
    return hashlib.sha1("\n".join(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(ITEMS))
def test_trace_equals_the_recorded_one(key):
    out = ITEMS[key]()
    assert out.trace and out.value is None and out.band is None  # the digest's blind spot
    assert trace_hash(out) == TRACE_HASHES[key]


if __name__ == "__main__":
    for key in sorted(ITEMS):
        print(f'    "{key}": "{trace_hash(ITEMS[key]())}",')
