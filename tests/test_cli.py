import hashlib
import json
from pathlib import Path

import pytest

from linemod import cli
from linemod.cli import main
from linemod.presets import preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_certify_line_pass(capsys):
    code, out = run_cli(
        capsys, "certify-line", "--algebra", "sl11_Hhat",
        "--gen", "h - t", "--gen", "e + f", "--max-degree", "6",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dims"] == [1, 2, 3, 4, 5, 6, 7]
    assert report["pass"] is True


def test_certify_line_failure_exit_code(capsys):
    code, out = run_cli(
        capsys, "certify-line", "--algebra", "sl11_Hhat",
        "--gen", "e", "--gen", "f", "--max-degree", "4",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("gens, message", [
    (("e", "2*e"), "--gen: line module generators are linearly dependent"),
    (("e*f", "h"), "--gen: line module generators must be homogeneous of degree one"),
])
def test_certify_line_rejects_generators(capsys, gens, message):
    code = main(["certify-line", "--algebra", "sl11_Hhat", "--gen", gens[0],
                 "--gen", gens[1], "--max-degree", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_classify_line(capsys):
    code, out = run_cli(
        capsys, "classify-line", "--preset", "slc",
        "--line", "a1 + a2, a3 - 5*a4",
    )
    assert code == 0
    assert json.loads(out)["results"]["families"] == ["1(a)"]


def test_classify_line_none(capsys):
    code, out = run_cli(
        capsys, "classify-line", "--preset", "slc", "--line", "a1, a2",
    )
    assert code == 0
    assert json.loads(out)["results"]["families"] == ["none"]


def test_nf_zero_divisor(capsys):
    code, out = run_cli(
        capsys, "nf", "--algebra", "sl21_Hhat",
        "--expr", "y1*y1*t", "--max-degree", "5",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["is_zero"] is True


def test_trace_reports_steps(capsys):
    code, out = run_cli(
        capsys, "trace", "--algebra", "sl11_Hhat", "--expr", "e*f",
    )
    assert code == 0
    steps = json.loads(out)["results"]["steps"]
    assert len(steps) == 1
    assert steps[0]["rule"] == "e*f"


def test_hilbert_routes(capsys):
    code, out = run_cli(
        capsys, "hilbert", "--algebra", "sl11_Hhat",
        "--max-degree", "6", "--oracle-degree", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["routes_agree"] is True
    assert report["results"]["oracle_route"] == [1, 4, 10, 20]


def test_hilbert_default_oracle_degree_fits_the_cap(capsys):
    # degree 4 of the nine-generator algebra has 6561 monomials, above the
    # default cap of 4096
    code, out = run_cli(capsys, "hilbert", "--algebra", "sl21_Hhat")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["oracle_degree"] == 3
    assert report["results"]["oracle_route"] == [1, 9, 45, 161]
    assert report["results"]["routes_agree"] is True


def test_hilbert_default_oracle_degree_within_max_degree(capsys):
    code, out = run_cli(capsys, "hilbert", "--algebra", "sl2_A", "--max-degree", "2")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["oracle_degree"] == 2
    assert report["results"]["rewrite_route"] == report["results"]["oracle_route"] == [1, 4, 10]
    assert report["results"]["routes_agree"] is True


def test_hilbert_default_oracle_degree_stops_below_the_first_degree_over_the_cap(
        tmp_path, capsys, monkeypatch):
    # with every generator of degree 2 the odd degrees are empty: degree 3
    # fits a cap of 2, but degree 2 below it has 3 monomials
    alg = tmp_path / "even.alg"
    alg.write_text("algebra E { generators x y z; degree 2 2 2; relations { x*y - y*x; } }")
    monkeypatch.setenv("LINEMOD_ORACLE_CAP", "2")
    code, out = run_cli(capsys, "hilbert", "--algebra", str(alg), "--max-degree", "4")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["oracle_degree"] == 1
    assert report["results"]["oracle_route"] == [1, 0]
    assert report["results"]["rewrite_route"] == [1, 0, 3, 0, 8]


def test_hilbert_oracle_degree_above_max_degree_is_usage_error(capsys, monkeypatch):
    # refused before anything is completed
    monkeypatch.setattr(cli, "complete", None)
    code = main(["hilbert", "--algebra", "sl2_A", "--max-degree", "2",
                 "--oracle-degree", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--oracle-degree 3" in captured.err and "--max-degree 2" in captured.err


@pytest.mark.parametrize("algebra", ["sl2_U", "collapse"])
def test_hilbert_of_an_ungraded_algebra_is_usage_error(tmp_path, capsys, monkeypatch, algebra):
    # refused before anything is completed: completing `collapse` (x*y = 1,
    # y*x = 0) would fail first, on the constant it derives
    argv = ["hilbert", "--algebra", algebra]
    if algebra == "collapse":
        argv[2] = str(tmp_path / "collapse.alg")
        Path(argv[2]).write_text("algebra collapse { generators x y; relations { x*y - 1; y*x; } }")
    monkeypatch.setattr(cli, "complete", None)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {algebra!r} is not graded")


@pytest.mark.parametrize("command, message", [
    # refused as ungraded before completing, like `hilbert`
    (["certify-line", "--gen", "x", "--gen", "y"], "error: 'C' is not graded"),
    # these complete it: the overlap x*y*x gives x = (x*y)*x = x*(y*x) = 0,
    # and then x*y - 1 reduces to the constant -1
    (["complete"], "error: a relation of 'C' reduces to a nonzero constant"),
    (["nf", "--expr", "x"], "error: a relation of 'C' reduces to a nonzero constant"),
])
def test_a_collapsing_algebra_is_named_in_the_error(tmp_path, capsys, command, message):
    alg = tmp_path / "C.alg"
    alg.write_text("algebra C { generators x y; relations { x*y - 1; y*x; } }")
    code = main([command[0], "--algebra", str(alg), *command[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(message)


@pytest.mark.parametrize("relations, named", [
    ("x*y - 1; y*x;", "relation 1, x*y - 1,"),
    ("x*y - y*x; x*x - 2*y + 3;", "relation 2, x*x - 2*y + 3,"),
])
def test_an_ungraded_algebra_is_named_with_its_first_inhomogeneous_relation(
        tmp_path, capsys, relations, named):
    alg = tmp_path / "C.alg"
    alg.write_text(f"algebra C {{ generators x y; relations {{ {relations} }} }}")
    code = main(["certify-line", "--algebra", str(alg), "--gen", "x", "--gen", "y"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: 'C' is not graded: {named} "
                            "is not homogeneous in the integer degree\n")


def test_admissible(capsys):
    code, out = run_cli(
        capsys, "admissible", "--preset", "sl11",
        "--sub", "h, e + f", "--phi", "4, 2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["admissible"] is True
    code, out = run_cli(
        capsys, "admissible", "--preset", "sl11",
        "--sub", "h, e + f", "--phi", "1, 0",
    )
    assert code == 0
    assert json.loads(out)["results"]["admissible"] is False


def test_induce(capsys):
    code, out = run_cli(
        capsys, "induce", "--preset", "slc",
        "--sub", "a3, a1 + a2", "--phi", "1/2, 7", "--max-degree", "4",
    )
    assert code == 0
    assert json.loads(out)["results"]["filtration_dims"] == [1, 2, 3, 4, 5]


def test_induce_inadmissible_is_usage_error(capsys):
    code, _ = run_cli(
        capsys, "induce", "--preset", "sl11",
        "--sub", "h, e + f", "--phi", "1, 0",
    )
    assert code == 2


@pytest.mark.parametrize("command", ["admissible", "induce"])
@pytest.mark.parametrize("table, sub", [("sl11", "e, f"), ("slc", "a1, a2"), ("sl2", "e, f")])
def test_plane_not_closed_is_named_for_every_table(capsys, command, table, sub):
    # closure is checked before the plane's canonical form is read
    code = main([command, "--preset", table, "--sub", sub, "--phi", "1, 2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: subspace is not closed under the bracket\n"


@pytest.mark.parametrize("command", ["admissible", "induce"])
def test_negative_max_degree_is_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "sl11", "--sub", "h, e", "--phi", "0,0",
              "--max-degree", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree" in captured.err and "'-1'" in captured.err


@pytest.mark.parametrize("bound", ["0", "1"])
def test_admissible_bound_below_the_relations_is_usage_error(capsys, bound):
    # below degree 2 the filtered route cannot see 1 enter the ideal
    with pytest.raises(SystemExit) as exc:
        main(["admissible", "--preset", "sl2", "--sub", "h, e", "--phi", "1, 3",
              "--max-degree", bound])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree" in captured.err and f"{bound!r}" in captured.err


@pytest.mark.parametrize("command", [
    ["complete"],
    ["nf", "--expr", "e*f"],
    ["trace", "--expr", "e*f"],
    ["hilbert"],
    ["certify-line", "--gen", "e", "--gen", "f"],
])
@pytest.mark.parametrize("bound", ["-1", "1"])
def test_completion_bound_below_the_relations_is_named(capsys, command, bound):
    # the message names the flag and the algebra, not the completion's own bound
    code = main([*command, "--algebra", "sl2_A", "--max-degree", bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: --max-degree {bound} is below the degree 2 "
                            "of the relations of 'sl2_A'\n")


@pytest.mark.parametrize("command", ["admissible", "induce"])
@pytest.mark.parametrize("phi, bad", [("1/0,2", "1/0"), ("abc,2", "abc"), ("3, 2/0", "2/0")])
def test_bad_phi_rational_is_named(capsys, command, phi, bad):
    code = main([command, "--preset", "sl2", "--sub", "h, e", "--phi", phi])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --phi expects two comma-separated rationals, got {bad!r}\n"


@pytest.mark.parametrize("argv, flag", [
    (["hilbert", "--algebra", "sl2_A", "--oracle-degree", "-1"], "--oracle-degree"),
    (["verify-paper", "--suite", "sl2", "--oracle-degree", "-1"], "--oracle-degree"),
])
def test_negative_degree_flags_are_usage_errors(capsys, argv, flag):
    # a negative oracle degree used to pass with an empty oracle route
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a non-negative integer, got '-1'" in captured.err


_SUITE_BOUND = "must be an integer >= 2, the first degree a line-module check can fail"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["verify-paper", "--suite", "sl2", "--max-degree", "-1"],
                 f"argument --max-degree: {_SUITE_BOUND}, got '-1'", id="max-degree-negative"),
    # every cyclic module on two independent linear forms passes degree 1
    pytest.param(["verify-paper", "--suite", "sl2", "--max-degree", "1", "--samples", "5"],
                 f"argument --max-degree: {_SUITE_BOUND}, got '1'", id="max-degree-1"),
    pytest.param(["verify-paper", "--suite", "sl2", "--max-degree", "3", "--oracle-degree", "5"],
                 "error: --oracle-degree 5 is above --max-degree 3\n", id="oracle-above-max"),
])
def test_vacuous_suite_bounds_are_usage_errors(capsys, argv, message):
    # a negative bound once ended in a KeyError; the others exited 0 with
    # "pass": true
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("max_degree, oracle_degree", [("3", 3), ("6", 4)])
def test_verify_paper_oracle_degree_defaults_within_max_degree(capsys, max_degree, oracle_degree):
    # the default was a fixed 4, so --max-degree 3 alone was a usage error;
    # an explicit --oracle-degree above --max-degree still is (above)
    code, out = run_cli(capsys, "verify-paper", "--suite", "sl2", "--max-degree", max_degree,
                        "--samples", "5")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["oracle_degree"] == oracle_degree
    assert report["pass"] is True


def test_admissible_tables_have_quadratic_enveloping_relations():
    # the lower bound of admissible --max-degree is this degree
    for name in ("sl2_table", "sl11_table", "slc_table"):
        env = preset(name).enveloping
        assert max(len(w) for rel in env.relations for w in rel.support()) == 2


@pytest.mark.parametrize("argv, message", [
    (["admissible", "--preset", "sl11", "--sub", "h*e, e", "--phi", "1, 2"],
     "subalgebra basis entries must be degree-one expressions"),
    (["classify-line", "--preset", "slc", "--line", "a1*a2, a3"],
     "line forms must be degree-one expressions"),
])
def test_non_degree_one_forms_are_usage_errors(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra a { generators x; relations { x* ; } }")
    code, _ = run_cli(capsys, "nf", "--algebra", str(bad), "--expr", "x")
    assert code == 2


def test_unknown_preset_exit_code(capsys):
    code, _ = run_cli(capsys, "nf", "--algebra", "nope", "--expr", "x")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["complete", "--algebra", "sl2_table"],
    ["certify-line", "--algebra", "sl2_table", "--gen", "e", "--gen", "h"],
    ["hilbert", "--algebra", "sl11_quadric"],
])
def test_algebra_must_be_a_presentation(capsys, argv):
    # a bracket table or a quadric is a preset but not a presentation
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: --algebra: {argv[2]!r} is neither a .alg file nor a preset presentation; "
        "presentations: sl2_A, sl2_U, sl11_U, sl11_Uhat, sl11_H, sl11_Hhat, slc_U, slc_H, "
        "sl21_Hhat\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify-sub", "--preset", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_oracle_cap_is_named(capsys, monkeypatch, value):
    monkeypatch.setenv("LINEMOD_ORACLE_CAP", value)
    code = main(["hilbert", "--algebra", "sl11_Hhat", "--max-degree", "3",
                 "--oracle-degree", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "LINEMOD_ORACLE_CAP" in err and repr(value) in err


@pytest.mark.parametrize("command", [["classify-sub", "--preset", "sl2"],
                                     ["verify-paper", "--suite", "sl21"]])
@pytest.mark.parametrize("samples", ["-5", "0"])
def test_non_positive_samples_is_usage_error(capsys, command, samples):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--samples", samples])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_byte_identical_reports(capsys):
    argv = ["classify-sub", "--preset", "slc", "--samples", "200", "--seed", "7"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    changed_seed = ["classify-sub", "--preset", "slc", "--samples", "200", "--seed", "8"]
    _, third = run_cli(capsys, *changed_seed)
    assert json.loads(third)["seed"] == 8


# SHA-256 of reports recorded before completion became a single worklist
# and before the greatest-word-first reducer replaced the stack reducer:
# they pin the rule order of `complete`, the derived-rule trace of the sl21
# suite, the step sequence of `trace` and the default `hilbert` report (all
# include the package version string)
GOLDEN_REPORTS = {
    ("complete", "--algebra", "sl21_Hhat", "--max-degree", "8"):
        "005bf8676ed136d558f501453dc418d904bcbed0bc772a309355dd6295377358",
    ("verify-paper", "--suite", "sl21"):
        "93c5ff236f8392078fb63ef2fae1caf863ad678d9f64f6d275f884fa5f5981ac",
    ("complete", "--algebra", "slc_H", "--order", "a2,a4,a3,a1", "--max-degree", "7"):
        "189996ac3ab70f3081a494b178a4bdba285939b48a241462b678d77ee1aa8e3b",
    ("trace", "--algebra", "sl21_Hhat", "--expr", "y1*y1*t", "--max-degree", "5"):
        "e84307e3c1b62cc9d04e0b3c5088266b59a8916f9cdef08e140d57df747f145e",
    ("trace", "--algebra", "sl11_Hhat", "--expr", "e*f*h*t"):
        "a63177924bc15e6d627a4446c203cba64151549258a447cd20c8f39ca09bbb2d",
    ("hilbert", "--algebra", "sl11_Hhat"):
        "64802e4290aaf4861b75911bb4a69a88aa59112030ee80d30e7c7281032d100f",
    ("certify-line", "--algebra", "slc_H", "--gen", "a1 - a4", "--gen", "a2 + a3",
     "--max-degree", "9"):
        "0f6e394de16593436ed95cfda8822c8c25c9647474adcb7b00b295d89e94e80b",
    ("verify-paper", "--suite", "sl2", "--samples", "50", "--seed", "3"):
        "494c3b03f9acb1dd9a89ffd67bcdf47d3642283c86bed9ff0007bb45fe71d4ac",
    # recorded before properness stopped at the first unit pivot and shift
    # rows came in order of degree
    ("admissible", "--preset", "sl11", "--sub", "h, e + f", "--phi", "4, 2"):
        "a1c164566389ea297cb9d0884b8601fcb8df79fb1f1617ab4dd6d2f4ab56f0aa",
    ("admissible", "--preset", "sl2", "--sub", "h, e", "--phi", "1, 3"):
        "36548969843d2a9d7a807b7910ab563d5e9694bbd2415addae1adfe44f5847a5",
    ("induce", "--preset", "slc", "--sub", "a3, a1 + a2", "--phi", "1/2, 7",
     "--max-degree", "4"):
        "48bcc1892739331802917d365449d82437a57cd26f56c35efbde06cef9db2bc2",
    ("verify-paper", "--suite", "sl11", "--samples", "50", "--seed", "3"):
        "f75c7443a8216df5e9a60d08f52e23df5ebf5b552d3abf29cbe083c263e0c395",
    ("verify-paper", "--suite", "slc", "--samples", "50", "--seed", "3"):
        "8fabd01231fb3df26cdef05b12ec44576d6489726def3acf862cfe92e65a18dc",
    # recorded before the oracle built each degree from the echelons below it
    ("hilbert", "--algebra", "sl2_A", "--max-degree", "6", "--oracle-degree", "6"):
        "7e6392a87ee7fa6dc32ab4e5ea49597440e152863144c6d4b361fdb81ec2f4ef",
    ("hilbert", "--algebra", "slc_H", "--max-degree", "6", "--oracle-degree", "5"):
        "0c65c930608b384901a9a71345c0980f075bb3656793b7eb43ed16a75ba70d01",
    ("hilbert", "--algebra", "sl21_Hhat", "--max-degree", "6", "--oracle-degree", "3"):
        "57ca7a31f5edd7db3fde9fd9045723883729dbdd0676fb0696bee5822e102282",
    # recorded before closure was tested on integer Plücker coordinates
    ("classify-sub", "--preset", "sl2", "--samples", "2000", "--seed", "5"):
        "dac4189c118d98c9400b3511c5ffd950cb53c0c0425331d4409752aedebb6a1c",
    ("classify-sub", "--preset", "sl11", "--samples", "2000", "--seed", "5"):
        "c4277a553b6b605a09d70a71f0b842e73b06bcc1a04a45940313a8d5205742c9",
    ("classify-sub", "--preset", "slc", "--samples", "2000", "--seed", "5"):
        "8afd0542f8f2ae509521e79e5e0e1ce1865bcdaca10c5b1efe6e2de6d4eb42a9",
    # recorded before lines were read from integer dual Plücker coordinates:
    # a line in the a4 plane given by a mixed rational basis, a line with
    # several tags, a line with no family, and one more audit
    ("classify-line", "--preset", "slc", "--line",
     "2*a4 + a1 + 2*a2 + 3*a3, 1/3*a1 + 2/3*a2 + a3"):
        "a40760abeb9ae2ec6b4a2cc55c940f8c7bb877bdfd813d53181b912cdfe4ad2d",
    ("classify-line", "--preset", "slc", "--line", "a4 - 2*a1, 3*a1"):
        "03ad25724a55f005e0b78ee8b1cb42ef5d86c9562656579367bec11fd49a0048",
    ("classify-line", "--preset", "slc", "--line", "a1 + 2*a2 - a4, 3*a2 + a3"):
        "beae154f28b7de2d642aee12594961e41dde37af415c931946bf679f643a569b",
    ("classify-sub", "--preset", "sl11", "--samples", "200"):
        "2ba58c1d03b7187a9c1e5f63e69ed9808228aad48d9b9fb75a263ff12f81acc6",
    # recorded before one lhs automaton served matching, listing and
    # counting: a completion under another precedence, counts to degree 9,
    # and a trace through rules with lhs of length 5 and 6
    ("complete", "--algebra", "sl21_Hhat", "--order", "x4,x3,x2,x1,y4,y3,y2,y1,t",
     "--max-degree", "8"):
        "0a668ece81250ee57d04e8d0840057d5a9071f52f2e7fe955cc57d90210f3579",
    ("hilbert", "--algebra", "sl21_Hhat", "--max-degree", "9", "--oracle-degree", "3"):
        "cfeb5cdc725bfcf10913ca07315166e177314f70df9f8ddfb9653a54ed91c11d",
    ("trace", "--algebra", "sl21_Hhat", "--expr", "x1*t*y4*y3*y2*y1*y1 + y2*t*y3*y1*y1",
     "--max-degree", "7"):
        "13f128d56f05535ccfc122d23b7af7e6fd390d42c4776dcce989cfc821b3d488",
    # recorded before every command's report went through one path in
    # `main`: `nf` with a degree bound and with a generator precedence
    ("nf", "--algebra", "sl21_Hhat", "--expr", "y1*y1*t", "--max-degree", "5"):
        "9ad4e4a41d5eb03e885af30ce9511dfa43b7f2ccbcf8d61143f257103a84ed6c",
    ("nf", "--algebra", "sl11_Hhat", "--expr", "e*f", "--order", "t,h,f,e"):
        "eaeaa7fcf2df8ec0bd6f59c92376d60637b112a0206cc1f5d87c4a5e45c9438b",
    # recorded before one runner wrapped every suite's checks: the `all`
    # report and its four suite reports
    ("verify-paper", "--suite", "all", "--samples", "50", "--seed", "3"):
        "7c370f3e062dbb200b3f3afce44e9ce9f9c8e1a98fb0bb57c700452ef2878669",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_REPORTS))
def test_golden_rule_order_reports(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[argv]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "nf", "--algebra", "sl11_Hhat", "--expr", "t",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["normal_form"] == "t"


def test_out_into_a_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["nf", "--algebra", "sl11_Hhat", "--expr", "t", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err


def test_admissible_route_disagreement_exits_1(capsys, monkeypatch):
    import linemod.liealg as liealg

    monkeypatch.setattr(liealg, "properness_admissible", lambda *args: False)
    code = main(["admissible", "--preset", "sl11", "--sub", "h, e + f", "--phi", "4, 2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("internal inconsistency: ")


@pytest.mark.parametrize("flags", [["--max-degree", "3"], ["--oracle-degree", "2"],
                                   ["--max-degree", "6", "--oracle-degree", "4"]])
def test_sl21_suite_rejects_degree_flags(capsys, flags):
    # the sl21 suite always runs at degrees 5 and 3; its report once claimed
    # the bounds given on the command line
    code = main(["verify-paper", "--suite", "sl21", "--samples", "5", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    for text in ("--max-degree", "--oracle-degree", "degree 5", "degree 3"):
        assert text in captured.err


def test_emit_presets_round_trip(tmp_path, capsys):
    code, out = run_cli(capsys, "emit-presets", "--dir", str(tmp_path))
    assert code == 0
    written = json.loads(out)["results"]["written"]
    assert len(written) == 9
    from linemod.dsl import parse_algebra
    from linemod.presets import preset

    for path in written:
        text = Path(path).read_text()
        parsed = parse_algebra(text)
        assert parsed == preset(parsed.name)


def test_verify_paper_sl21(capsys):
    code, out = run_cli(capsys, "verify-paper", "--suite", "sl21", "--samples", "50")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    checks = {c["name"]: c for c in report["results"]["checks"]}
    trace = checks["zero_divisor_certificate"]["derivation_trace"]
    assert len(trace) >= 1
    assert checks["zero_divisor_certificate"]["normal_form_of_y1_y1_t_is_zero"] is True


def test_sl21_suite_obeys_the_oracle_cap(capsys, monkeypatch):
    # the suite's degree-3 oracle slice has 729 monomials
    monkeypatch.setenv("LINEMOD_ORACLE_CAP", "700")
    code = main(["verify-paper", "--suite", "sl21", "--samples", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "LINEMOD_ORACLE_CAP" in err and "729" in err


def test_golden_classify_line(capsys):
    _, out = run_cli(
        capsys, "classify-line", "--preset", "slc",
        "--line", "a1 + a2, a3 - 5*a4",
    )
    golden = Path(__file__).parent / "data" / "golden_classify_line.json"
    assert out == golden.read_text()


def test_order_override(capsys):
    code, out = run_cli(
        capsys, "nf", "--algebra", "sl11_Hhat", "--expr", "e*f",
        "--order", "t,h,f,e",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["normal_form"] == "e*f"
    code, _ = run_cli(
        capsys, "nf", "--algebra", "sl11_Hhat", "--expr", "e*f",
        "--order", "t,h,e",
    )
    assert code == 2
