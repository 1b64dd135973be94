"""Command-line interface: schemas, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from setmeans import cli

BASE = [sys.executable, "-m", "setmeans.cli"]


def run_cli(*args):
    proc = subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout


def test_eval_exact():
    code, out = run_cli("eval", "lis", "{1, 3}")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "exact" and doc["value"] == 2.0
    assert doc["exact"] == "2/1"


def test_eval_iso_converged():
    code, out = run_cli("eval", "iso", "{0,1} U {1/n} U {1 + 1/2^n}")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "converged"
    assert abs(doc["value"]) < 1e-3
    assert doc["trace"]


def test_eval_acc_undefined_exit():
    code, out = run_cli("eval", "acc", "C")
    doc = json.loads(out)
    assert code == 3 and doc["status"] == "undefined"
    assert "chain" in doc["reason"]


def test_eval_empty_set_undefined(capsys):
    assert cli.main(["eval", "iso", "{}"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"status": "undefined", "reason": "empty set"}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "lis", "{1/0^n}"], 1),
        (["eval", "lis", "{1/0^(2^n)}"], 1),
        (["topology", "split:1/0", "{1/n}"], 1),
        (["topology", "isolated:1/0", "{1/n}"], 1),
        (["eval", "eds", "{1/n}", "--base", "0,1/0"], 1),
        (["rearrange", "{1/n}", "--target", "1/0"], 1),
        (["rearrange", "{1/n}", "--divergent", "--p", "1/0"], 1),
        (["rearrange", "{1/n}", "--divergent", "--q", "1/0"], 1),
        (["topology", "hausdorff:{}", "{1}"], 3),
    ],
)
def test_zero_denominator_and_empty_operand(argv, code, capsys):
    # a zero denominator is an input error (exit 1); the hausdorff distance
    # to an empty set is not defined (a domain error, exit 3)
    assert cli.main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["status"] == ("undefined" if code == 3 else "error")
    assert doc["reason"]


def test_undecided_tiny_comparison_exits_3():
    # the split point sits among two symbolic tails that the comparison of
    # tinies cannot order: a domain error in JSON, not a traceback
    code, out = run_cli("topology", f"split:1/{2**6000}", "{1/2^n + 1/3^n}")
    assert code == 3
    assert json.loads(out) == {
        "reason": "ambiguous comparison with multiple tiny tails",
        "status": "undefined",
    }


@pytest.mark.parametrize(
    "argv", [["eval", "ideal:bogus", "{1/n}"], ["topology", "limits:bogus", "{1/n}"]]
)
def test_unknown_ideal_kind(argv, capsys):
    assert cli.main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"reason": "unknown ideal kind 'bogus'", "status": "undefined"}


# a symbolic tail, (9/10)^(64^n) from n = 3 on, beside a family of H'
SYMBOLIC_BESIDE_FAMILY = "{1/n + (9/10)^(64^n)} U {2 + 1/n + 1/k}"


@pytest.mark.parametrize("argv", [["eval", "iso"], ["topology", "isolated:1/8"]])
def test_isolated_symbolic_tail_beside_family(argv):
    code, out = run_cli(*argv, SYMBOLIC_BESIDE_FAMILY)
    doc = json.loads(out)
    assert code in (0, 1, 2, 3)
    assert doc["status"]


def test_meanset_axs_schema():
    code, out = run_cli("meanset", "axs", "{1/n} U {1 - 1/n} U {5 + 1/n}")
    doc = json.loads(out)
    assert code == 0
    parts = doc["parts"]
    assert parts[0] == {
        "lo": 0.5,
        "lo_exact": "1/2",
        "lo_closed": True,
        "hi": 1.0,
        "hi_exact": "1/1",
        "hi_closed": False,
    }
    assert parts[1]["lo"] == 2.5 and parts[1]["hi_closed"] is True


def test_parse_error_exit():
    code, out = run_cli("eval", "lis", "{1, ")
    doc = json.loads(out)
    assert code == 1 and doc["status"] == "error"
    assert isinstance(doc["position"], int)


def test_determinism():
    args = ("eval", "lavg", "{1/n} U {2 + 1/2^n}", "--max-exp", "20", "--tol", "1e-3")
    _, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert out1 == out2


def test_rearrange_csv(tmp_path):
    path = tmp_path / "trace.csv"
    code, out = run_cli(
        "rearrange",
        "{1/n} U {1 + 1/n}",
        "--target",
        "0.7",
        "--terms",
        "50",
        "--csv",
        "--out",
        str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "index,value,partial_mean"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert int(first[0]) == 1


@pytest.mark.parametrize("terms", ["0", "-3"])
def test_rearrange_nonpositive_terms_is_usage_error(terms, capsys):
    argv = ["rearrange", "{1/n} U {1 + 1/n}", "--target", "0.7", "--terms", terms]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["status"] == "error" and "--terms" in doc["reason"]


def test_topology_commands():
    code, out = run_cli("topology", "derived", "{1/n} U {1 + 1/n}")
    assert code == 0 and "result" in json.loads(out)
    code, out = run_cli("topology", "limits:finite", "{1/n}")
    doc = json.loads(out)
    assert doc["lower_exact"] == "0/1" and doc["upper_exact"] == "0/1"
    code, out = run_cli("topology", "hausdorff:{0,1}", "[0,1]")
    assert json.loads(out)["distance_exact"] == "1/2"


def test_eval_avg_and_hf():
    code, out = run_cli("eval", "avg", "[0,1] U Q(1,2)")
    doc = json.loads(out)
    assert code == 0 and doc["exact"] == "1/2"
    code, out = run_cli("eval", "hf", "[0,1] U [3,4]")
    doc = json.loads(out)
    assert doc["parts"][0]["lo"] == 1.0 and doc["parts"][0]["hi"] == 3.0


def test_check_command():
    code, out = run_cli("check", "{1/n} U {1 + 1/n}")
    doc = json.loads(out)
    assert code == 0
    assert doc["checks"]["roundtrip"] is True


def test_rearrange_through_a_double_geometric_tail():
    # 2^n leaves float range at n = 1024, inside the 5000 terms
    code, out = run_cli(
        "rearrange", "{1/2^(2^n)} U {1 + 1/n}", "--target", "0.5", "--terms", "5000"
    )
    doc = json.loads(out)
    assert code == 0 and doc["terms"] == 5000


@pytest.mark.parametrize("text, terms", [("{1/n} U {3/n}", 1000), ("{1/2^(2^n)}", 100)])
def test_rearrange_with_equal_limits(text, terms):
    code, out = run_cli("rearrange", text, "--target", "0", "--terms", str(terms))
    doc = json.loads(out)
    assert code == 0 and doc["terms"] == terms


def test_divergent_exit_code():
    code, out = run_cli(
        "eval", "iso", "{0,1} U {1/n} U {1 + 1/2^n}", "--tol", "1e-3"
    )
    assert code == 0  # this one converges; divergence exercised in-library


def _loaded_after(code: str) -> set[str]:
    """The setmeans submodules, and `dataclasses`, that a fresh interpreter
    has loaded after running `code`."""
    report = (
        "import sys\n"
        "print(' '.join(m for m in sys.modules"
        " if m.startswith('setmeans.') or m == 'dataclasses'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + report], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_submodule():
    assert _loaded_after("import setmeans") == set()


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["topology", "derived", "{1/n}"], {"means", "cesaro", "meansets"}),
        (["meanset", "a", "{1/n}"], {"means", "cesaro"}),
        (["eval", "lis", "{1/n}"], {"cesaro", "meansets"}),
    ],
)
def test_a_command_loads_only_its_modules(argv, unloaded):
    loaded = _loaded_after(f"from setmeans import cli\ncli.main({argv!r})")
    assert "setmeans.parser" in loaded and "dataclasses" not in loaded
    assert not loaded & {f"setmeans.{name}" for name in unloaded}


def test_every_lazy_name_resolves_to_its_module():
    import importlib

    import setmeans

    for name, module in setmeans._LAZY.items():
        mod = importlib.import_module(f"setmeans.{module}")
        assert name in vars(mod) and getattr(setmeans, name) is vars(mod)[name]
        assert getattr(setmeans, module) is mod
    assert set(setmeans.__all__) == set(setmeans._LAZY) <= set(dir(setmeans))
    with pytest.raises(AttributeError):
        getattr(setmeans, "no_such_name")
