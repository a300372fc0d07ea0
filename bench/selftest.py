"""Self-test of the benchmark's own checks, at tiny sizes: each
workload's check must accept the program's real answers and reject a
planted wrong one (a perturbed distance, a kernel value off by 1e-10
relative, a suite rendered FAIL, a wrong exit code).

    python3 bench/selftest.py        # exit 0 when every check holds
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

TESTS = []


def selftest(fn):
    TESTS.append(fn)
    return fn


def _round(wl, prog, tr=None):
    wl.setup(prog)
    assert wl.prepare() == [], "one-off checks fail on the real program"
    out = wl.op(tr or NullTracer())
    attempted, failed, _, problems = wl.check(out)
    assert problems == [], problems
    return out, attempted, failed


@selftest
def verify_rejects_fail_status_and_short_suites(prog):
    wl = workloads.VerifyAll(str(ROOT), 0, suites=("mu", "delta"))
    out, attempted, failed = _round(wl, prog)
    assert (attempted, failed) == (2, 0)
    floors = wl.suite_floors
    text = out["text"]
    check = workloads.check_verify_output
    assert check(0, text, floors, wl.reference)[0] == []
    planted = text.replace("status PASS", "status FAIL", 1)
    assert any("status FAIL" in p for p in check(0, planted, floors)[0])
    planted = text.replace(f"checks {floors['mu']}",
                           f"checks {floors['mu'] - 1}")
    assert any("floor" in p for p in check(0, planted, floors)[0])
    assert check(1, text, floors)[0] == ["verify exit code 1"]
    planted = text.replace("suite delta", "suite delta\nnote extra", 1)
    assert check(0, planted, floors, wl.reference)[0] == [
        "verify output differs from the first pass"]


@selftest
def verify_traced_round_records_suite_spans(prog):
    wl = workloads.VerifyAll(str(ROOT), 0, suites=("mu",))
    tr = Tracer()
    _round(wl, prog, tr)
    assert wl.layer_metrics(tr)["suites.mu_s"] > 0.0
    assert prog.suites.SUITES["mu"].__name__ == "run_mu", "patch not undone"


@selftest
def fn_distance_rejects_perturbed_answers(prog):
    wl = workloads.FnDistance(str(ROOT), 5, table_sizes=((3, 2), (7, 1)),
                              gen_ns=(2, 4))
    out, attempted, failed = _round(wl, prog)
    assert failed == 0 and attempted == 3 * 8 + 2 * 2 * 2 * 2

    def planted(key, **change):
        results = [dict(r) for r in out["results"]]
        results[0][key] = results[0][key]._replace(**change)
        return dict(out, results=results)

    def rejected(bad, message):
        return any(message in p for p in wl.check(bad)[3])

    xy = out["results"][0]["xy"]
    assert rejected(planted("xy", value=xy.value * (1.0 + 1e-9)),
                    "xy: value")
    assert rejected(planted("xy", attained_index=xy.attained_index % 3 + 1),
                    "xy: attained index")
    assert rejected(planted("xy", exactness="window-truncated"),
                    "xy: flagged")
    assert rejected(planted("xx", value=1e-300), "d(x, x)")
    sup = dict(out["results"][0], sup=xy.value * (1.0 + 1e-15))
    assert rejected(dict(out, results=[sup] + out["results"][1:]),
                    "sup-norm")
    gen = list(out["gen_results"])
    fn, raw = gen[0]             # fn1, n = 2, window 1: truncated
    gen[0] = (fn._replace(exactness="exact"), raw)
    assert rejected(dict(out, gen_results=gen), "fn1 n=2 window=1: flagged")


@selftest
def kernels_reject_a_value_off_by_1e_10(prog):
    wl = workloads.ScalarKernels(str(ROOT), 3, scale=1, fixed_pairs=4)
    out, attempted, failed = _round(wl, prog)
    assert attempted == sum(len(b[2]) for b in wl.batches)
    assert 0 <= failed <= 4
    names = [b[0] for b in wl.batches]
    for name in ("hyperbolic.collar_margin", "conformal.grotzsch_modulus",
                 "hyperbolic.hyp_distance"):
        values = [list(v) for v in out["values"]]
        i = names.index(name)
        values[i][0] *= 1.0 + 1e-10
        assert any(name in p for p in wl.check({"values": values})[3])
    values = [list(v) for v in out["values"]]
    i = names.index("hyperbolic.hexagon_sides")
    b = values[i][0]
    values[i][0] = (b[0], b[1] * (1.0 + 1e-10), b[2])
    assert wl.check({"values": values})[3]
    # the fault stratum counts failures instead of reporting problems
    values = [list(v) for v in out["values"]]
    i = names.index("hyperbolic.hyp_distance_crossratio.fixed_stratum")
    values[i] = [-1.0] * len(values[i])
    _, failed, _, problems = wl.check({"values": values})
    assert failed == 4 and problems == []


@selftest
def cli_rejects_wrong_exit_codes_and_values(prog):
    wl = workloads.CliCold(str(ROOT), 2)
    try:
        out, attempted, failed = _round(wl, prog)
    finally:
        wl.close()
    assert attempted == 8 and failed in (0, 1)
    argvs = [c[0] for c in wl.calls]

    def planted(argv, **change):
        runs = list(out["runs"])
        i = argvs.index(argv)
        p = runs[i]
        runs[i] = subprocess.CompletedProcess(
            p.args, change.get("rc", p.returncode),
            change.get("stdout", p.stdout), p.stderr)
        return dict(out, runs=runs)

    assert wl.check(planted(("eval", "B", "-1"), rc=2))[3]
    assert wl.check(planted(("eval", "nosuch", "1"), rc=1))[3]
    assert wl.check(planted(("eval", "B", "2"), rc=1))[3]
    b2 = float(out["runs"][argvs.index(("eval", "B", "2"))].stdout)
    assert wl.check(planted(("eval", "B", "2"),
                            stdout=f"{b2 * (1 + 1e-10):.15g}\n"))[3]
    # the known fault is counted, not reported
    _, failed, _, problems = wl.check(
        planted(workloads.CliCold.KNOWN_FAULT, rc=1))
    assert failed == 1 and problems == []


def main() -> int:
    prog = workloads.load_program()
    bad = 0
    for test in TESTS:
        try:
            test(prog)
        except AssertionError as exc:
            bad += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
