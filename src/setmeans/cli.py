"""Command-line front end: evaluate means, mean-sets, topology queries and
rearrangement traces over parsed set expressions, emitting JSON (or CSV for
traces).

Exit codes: 0 exact/converged/success, 2 divergent, 3 undefined or domain
error, 1 usage or parse error.

A command reads the functions it runs through the package's lazily loaded
names, so it loads only their modules: a `topology` or `meanset` command
never loads `means` or `cesaro`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import setmeans  # each command's names load their module on first use

from .core import rat
from .errors import SetMeansError
from .parser import ParseError, parse
from .setexpr import bounds, enumerate_points, has_uncountable_leaf, map_affine, render


def _ideal(spec: str) -> setmeans.Ideal:
    """The ideal named after the colon of `ideal:kind` or `limits:kind`."""
    kind = spec.split(":", 1)[1]
    try:
        return setmeans.Ideal(kind)
    except ValueError:
        raise SetMeansError(f"unknown ideal kind {kind!r}") from None


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _outcome_doc(name: str, out: setmeans.MeanOutcome) -> dict:
    doc = {"mean": name, "status": out.status}
    if out.status in ("exact", "converged"):
        doc["value"] = out.value
        if out.exact is not None:
            doc["exact"] = _frac_str(out.exact)
        if out.err_est is not None:
            doc["err_est"] = out.err_est
    if out.band is not None:
        doc["band"] = [out.band[0], out.band[1]]
    if out.reason is not None:
        doc["reason"] = out.reason
    if out.trace:
        doc["trace"] = [[p, v] for p, v in out.trace]
    return doc


def _meanset_doc(ms: setmeans.MeanSet) -> dict:
    return {
        "parts": [
            {
                "lo": float(p.lo),
                "lo_exact": _frac_str(p.lo),
                "lo_closed": not p.lo_open,
                "hi": float(p.hi),
                "hi_exact": _frac_str(p.hi),
                "hi_closed": not p.hi_open,
            }
            for p in ms.parts
        ]
    }


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _status_exit(out: setmeans.MeanOutcome) -> int:
    if out.status in ("exact", "converged"):
        return 0
    if out.status == "divergent":
        return 2
    return 3


def _schedules(args) -> tuple[setmeans.Schedule, setmeans.Schedule]:
    tol = args.tol
    max_exp = args.max_exp
    return (
        setmeans.delta_schedule(end_exp=max_exp, tol=tol),
        setmeans.grid_schedule(end_exp=max_exp, tol=tol),
    )


def _cmd_eval(args) -> int:
    s = parse(args.set)
    dsched, gsched = _schedules(args)
    name = args.mean
    if name == "lis":
        out = setmeans.mean_lis(s)
    elif name.startswith("ideal:"):
        out = setmeans.mean_ideal(s, _ideal(name))
    elif name == "ideal-chain":
        out = setmeans.mean_ideal_chain(s)
    elif name == "acc":
        out = setmeans.mean_acc(s)
    elif name == "iso":
        out = setmeans.mean_iso(s, dsched)
    elif name == "lavg":
        out = setmeans.lavg(s, dsched)
    elif name == "eds":
        base = _parse_base(args.base) if args.base else None
        out = setmeans.mean_eds(s, gsched, base=base)
    elif name == "avg":
        value = setmeans.avg_set(s)
        out = setmeans.MeanOutcome("exact", value=float(value), exact=value)
    elif name == "hf":
        _emit({"mean": "hf", **_meanset_doc(setmeans.ms_hf(s))})
        return 0
    else:
        raise SetMeansError(f"unknown mean {name!r}")
    _emit(_outcome_doc(name, out))
    return _status_exit(out)


def _parse_base(text: str):
    lo, hi = text.split(",")
    return rat(lo.strip()), rat(hi.strip())


def _cmd_meanset(args) -> int:
    s = parse(args.set)
    fn = {
        "a": setmeans.ms_a,
        "ces": setmeans.ms_ces,
        "as": setmeans.ms_as,
        "axs": setmeans.ms_axs,
    }[args.which]
    _emit({"meanset": args.which, **_meanset_doc(fn(s))})
    return 0


def _cmd_topology(args) -> int:
    s = parse(args.set)
    op = args.op
    if op == "derived":
        _emit({"op": op, "result": render(setmeans.derived_set(s))})
    elif op == "closure":
        _emit({"op": op, "result": render(setmeans.closure(s))})
    elif op == "chain":
        chain, terminated = setmeans.acc_chain(s)
        _emit(
            {
                "op": op,
                "terminated": terminated,
                "chain": [render(c) for c in chain],
            }
        )
    elif op.startswith("limits:"):
        lo, hi = setmeans.ideal_limits(s, _ideal(op))
        _emit(
            {
                "op": op,
                "lower": float(lo),
                "lower_exact": _frac_str(lo),
                "upper": float(hi),
                "upper_exact": _frac_str(hi),
            }
        )
    elif op.startswith("split:"):
        y = rat(op.split(":", 1)[1])
        below, above = setmeans.split_at(s, y)
        _emit({"op": "split", "below": render(below), "above": render(above)})
    elif op.startswith("isolated:"):
        delta = rat(op.split(":", 1)[1])
        pts = setmeans.isolated_outside(s, delta)
        _emit(
            {
                "op": "isolated",
                "points": [float(p) for p in pts],
                "points_exact": [_frac_str(p) for p in pts],
            }
        )
    elif op.startswith("hausdorff:"):
        other = parse(op.split(":", 1)[1])
        d = setmeans.hausdorff_distance(s, other)
        _emit({"op": "hausdorff", "distance": float(d), "distance_exact": _frac_str(d)})
    else:
        raise SetMeansError(f"unknown topology op {op!r}")
    return 0


def _cmd_rearrange(args) -> int:
    if args.terms < 1:
        raise ValueError(f"--terms must be positive, got {args.terms}")
    s = parse(args.set)
    if args.divergent:
        p = rat(args.p) if args.p else None
        q = rat(args.q) if args.q else None
        stream = setmeans.enumerate_divergent(s, p, q)
    else:
        if args.target is None:
            raise SetMeansError("rearrange needs --target or --divergent")
        stream = setmeans.enumerate_with_mean(s, rat(args.target))
    rows = stream.take(args.terms)
    if args.csv:
        sink = open(args.out, "w") if args.out else sys.stdout
        try:
            sink.write("index,value,partial_mean\n")
            for idx, val, mean in rows:
                sink.write(f"{idx},{val!r},{mean!r}\n")
        finally:
            if args.out:
                sink.close()
    else:
        doc = {"terms": len(rows), "final_mean": rows[-1][2] if rows else None}
        if args.out:
            with open(args.out, "w") as fh:
                json.dump([[i, v, m] for i, v, m in rows], fh)
            doc["out"] = args.out
        _emit(doc)
    return 0


def _cmd_check(args) -> int:
    s = parse(args.set)
    results = {}
    wanted = args.properties or ["roundtrip", "bounds", "derived-affine", "split"]
    if "roundtrip" in wanted:
        results["roundtrip"] = parse(render(s)) == s
    if "bounds" in wanted:
        lo, hi, _, _ = bounds(s)
        results["bounds"] = lo <= hi
    if "derived-affine" in wanted:
        mapped = map_affine(s, 2, 1)
        rhs = map_affine(setmeans.derived_set(s), 2, 1)
        results["derived-affine"] = setmeans.derived_set(mapped) == rhs
    if "split" in wanted:
        lo, hi, _, _ = bounds(s)
        y = (lo + hi) / 2
        try:
            below, above = setmeans.split_at(s, y)
            if not has_uncountable_leaf(s):
                orig = set(enumerate_points(s, 200))
                got = set(enumerate_points(below, 400)) | set(
                    enumerate_points(above, 400)
                )
                results["split"] = orig <= got
            else:
                results["split"] = True
        except SetMeansError:
            results["split"] = None
    _emit({"checks": results})
    return 0 if all(v is not False for v in results.values()) else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="setmeans",
        description="means of infinite bounded sets of reals, computed exactly",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-4, help="stability tolerance")
    common.add_argument(
        "--max-exp", type=int, default=40, help="deepest dyadic schedule exponent"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a single-valued mean", parents=[common])
    p_eval.add_argument("mean")
    p_eval.add_argument("set")
    p_eval.add_argument("--base", default=None, help="a,b base for eds")
    p_eval.set_defaults(fn=_cmd_eval)

    p_ms = sub.add_parser("meanset", help="evaluate a set-valued mean", parents=[common])
    p_ms.add_argument("which", choices=["a", "ces", "as", "axs"])
    p_ms.add_argument("set")
    p_ms.set_defaults(fn=_cmd_meanset)

    p_top = sub.add_parser("topology", help="derived sets, limits, splits", parents=[common])
    p_top.add_argument("op")
    p_top.add_argument("set")
    p_top.set_defaults(fn=_cmd_topology)

    p_re = sub.add_parser("rearrange", help="emit a rearrangement trace", parents=[common])
    p_re.add_argument("set")
    p_re.add_argument("--target", default=None)
    p_re.add_argument("--divergent", action="store_true")
    p_re.add_argument("--p", default=None)
    p_re.add_argument("--q", default=None)
    p_re.add_argument("--terms", type=int, default=1000)
    p_re.add_argument("--out", default=None)
    p_re.add_argument("--csv", action="store_true")
    p_re.set_defaults(fn=_cmd_rearrange)

    p_chk = sub.add_parser("check", help="run structural invariant checks", parents=[common])
    p_chk.add_argument("set")
    p_chk.add_argument("properties", nargs="*")
    p_chk.set_defaults(fn=_cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        _emit({"status": "error", "position": exc.position, "reason": exc.message})
        return 1
    except ValueError as exc:
        _emit({"status": "error", "reason": str(exc)})
        return 1
    except SetMeansError as exc:
        _emit({"status": "undefined", "reason": str(exc)})
        return 3


if __name__ == "__main__":
    sys.exit(main())
