import pytest

from linemod import modules, suites
from linemod.errors import RouteDisagreementError
from linemod.ncalg import NcPoly
from linemod.reports import render
from linemod.suites import run_suite


@pytest.mark.parametrize("name", ["sl2", "sl11", "slc", "sl21"])
def test_suite_passes(name):
    result = run_suite(name, samples=500, seed=3, max_degree=6, oracle_degree=4)
    failing = [c["name"] for c in result["checks"] if not c["pass"]]
    assert result["pass"], failing


def test_suite_deterministic():
    first = render(run_suite("sl21", samples=50, seed=5, max_degree=6, oracle_degree=4))
    second = render(run_suite("sl21", samples=50, seed=5, max_degree=6, oracle_degree=4))
    assert first == second


# sl11 builds its check with the same helper as sl2
@pytest.mark.parametrize("name,check_name,count_key", [
    ("sl2", "functional_admissibility_routes_agree", "disagreements"),
    ("slc", "two_admissible_families_on_grid", "route_disagreements"),
])
def test_route_disagreement_fails_its_check(monkeypatch, name, check_name, count_key):
    calls = []
    real = suites.admissible_functional

    def flaky(S, phi, table):
        calls.append(phi)
        if len(calls) in (3, 7):
            raise RouteDisagreementError(f"injected for phi {phi.values()}")
        return real(S, phi, table)

    monkeypatch.setattr(suites, "admissible_functional", flaky)
    result = run_suite(name, samples=50, seed=3, max_degree=6, oracle_degree=4)
    check = {c["name"]: c for c in result["checks"]}[check_name]
    assert result["pass"] is False
    assert check["pass"] is False
    assert check[count_key] == 2
    assert check["witness"] == f"injected for phi {calls[2].values()}"


_FAILED_CERTIFICATE = modules.CertificationReport([1, 2, 3], [1, 2, 2], False, {})


# each check's pass reads every condition its entries are built from
@pytest.mark.parametrize("name,patched,result,check_name", [
    ("sl21", "replay_trace", NcPoly.gen(0), "zero_divisor_certificate"),
    ("sl2", "pencil_membership", [], "borel_lines_on_determinant_pencil"),
    ("slc", "classify_line_family_color", [], "line_family_membership_instances"),
    # every line-module check reads its certificate
    ("sl2", "certify_line_module", _FAILED_CERTIFICATE, "line_modules_from_borel_pairs"),
    ("sl11", "certify_line_module", _FAILED_CERTIFICATE, "line_modules_from_pairs"),
    ("sl11", "certify_line_module", _FAILED_CERTIFICATE, "quadric_family_lines_are_line_modules"),
])
def test_each_folded_condition_can_fail_its_check(monkeypatch, name, patched, result,
                                                  check_name):
    monkeypatch.setattr(suites, patched, lambda *args: result)
    report = run_suite(name, samples=50, seed=3, max_degree=6, oracle_degree=4)
    check = {c["name"]: c for c in report["checks"]}[check_name]
    assert check["pass"] is False
    assert report["pass"] is False


def test_route_agreement_report_without_disagreement():
    check = {c["name"]: c for c in run_suite("sl2", samples=50, seed=3, max_degree=6,
                                             oracle_degree=4)["checks"]}[
        "functional_admissibility_routes_agree"]
    assert list(check) == ["name", "pass", "trials", "admissible", "disagreements"]
    assert check["pass"] and check["trials"] == 125 and check["disagreements"] == 0


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus", samples=50, seed=3, max_degree=6, oracle_degree=4)


def test_sl21_trace_present():
    result = run_suite("sl21", samples=50, seed=0, max_degree=6, oracle_degree=4)
    checks = {c["name"]: c for c in result["checks"]}
    cert = checks["zero_divisor_certificate"]
    assert cert["derivation_trace"]
    assert cert["derived_rules"]


def test_sl21_zero_divisor_rule_derived():
    result = run_suite("sl21", samples=50, seed=0, max_degree=6, oracle_degree=4)
    checks = {c["name"]: c for c in result["checks"]}
    derived = {d["rule"] for d in checks["zero_divisor_certificate"]["derived_rules"]}
    assert "t*y1*y1" in derived


def test_sl2_suite_builds_each_line_module_once(monkeypatch):
    # the upper fixture at lambda 2 and the Borel fixture s=0 are both
    # (e, h - 2t): one model, two report entries
    builds = []
    real = modules.cyclic_module_model

    def counted(system, generators, max_degree):
        builds.append(tuple(generators))
        return real(system, generators, max_degree)

    monkeypatch.setattr(modules, "cyclic_module_model", counted)
    result = run_suite("sl2", samples=50, seed=3, max_degree=6, oracle_degree=4)
    assert len(builds) == len(set(builds)) == 14
    check = {c["name"]: c for c in result["checks"]}["line_modules_from_borel_pairs"]
    tags = [(f["borel"], f["lambda"]) for f in check["fixtures"]]
    assert ("upper", 2) in tags and ("s=0", 2) in tags
    assert len(tags) == 15
