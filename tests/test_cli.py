"""Command-line surface: outputs, schemas, exit codes, determinism."""

import json

import pytest

from heckeperiods import cli, numeric
from heckeperiods.cli import factored_surd_str, main, parse_character
from heckeperiods.characters import CharacterError
from heckeperiods.cyclotomic import ExactNumber, ExactPolynomial, QuadSurd
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_text_flagship(capsys):
    code, out, _ = run(
        capsys, "trace", "--level", "1", "--weight", "12",
        "--character", "kronecker:-3", "--m", "1", "--n", "1",
    )
    assert code == 0
    assert out.strip() == "-(2^18*3^2/5)*sqrt(3)"


def test_trace_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "trace", "--level", "1", "--weight", "12",
        "--character", "kronecker:-3", "--m", "3", "--n", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    value = ExactNumber.from_json(data["exact"])
    from heckeperiods.cyclotomic import sqrt_integer

    assert value == sqrt_integer(3) * Fraction(-147456, 5)
    assert data["surd"] == "-147456/5*sqrt(3)"
    assert data["float"] == pytest.approx(-51080.2567761)


def test_theorem1_text_and_json(capsys):
    args = ("theorem1", "--level", "1", "--weight", "12", "--n", "1",
            "--character", "kronecker:-3")
    code, text_out, _ = run(capsys, *args)
    assert code == 0
    assert "((2^20)*sqrt(3))*X^9" in text_out
    code, json_out, _ = run(capsys, *args, "--format", "json")
    data = json.loads(json_out)
    assert data["polynomial"]["degree"] == 9
    coeffs = [ExactNumber.from_json(c) for c in data["polynomial"]["coefficients"]]
    from heckeperiods.cyclotomic import sqrt_integer

    assert coeffs[0] == sqrt_integer(3) * 2**20
    code, latex_out, _ = run(capsys, *args, "--format", "latex")
    assert code == 0 and "\\sqrt{3}" in latex_out


def test_theorem1_latex_output(capsys):
    code, out, _ = run(
        capsys, "theorem1", "--level", "1", "--weight", "12", "--n", "2",
        "--character", "kronecker:-3", "--format", "latex",
    )
    assert code == 0
    assert out == (
        "\\left(\\frac{9175040}{9}\\sqrt{3}\\right)X^{10} + "
        "\\left(-\\frac{2293760}{9}\\sqrt{3}\\right)X^{8} + "
        "\\left(\\frac{2293760}{243}\\sqrt{3}\\right)X^{6} + "
        "\\left(\\frac{2293760}{2187}\\sqrt{3}\\right)X^{4} + "
        "\\left(-\\frac{2293760}{6561}\\sqrt{3}\\right)X^{2} + "
        "\\left(\\frac{9175040}{531441}\\sqrt{3}\\right)\n"
    )


def test_theorem1_prints_imaginary_surds_factored(capsys):
    # at n = 1 an even character makes every coefficient i*b*sqrt(D)
    args = ("theorem1", "--level", "1", "--weight", "12", "--n", "1")
    code, out, _ = run(capsys, *args, "--character", "kronecker:5")
    assert code == 0 and "coords" not in out
    assert out.startswith("(i*(-(2^23*3^4*7/5^2)*sqrt(5)))*X^10 + ")
    code, out, _ = run(capsys, *args, "--character", "kronecker:8")
    assert code == 0 and "coords" not in out
    code, out, _ = run(capsys, *args, "--character", "kronecker:5", "--format", "latex")
    assert code == 0
    assert out.startswith("\\left(i\\left(-\\frac{4756340736}{25}\\sqrt{5}\\right)\\right)X^{10} + ")


def test_json_request_skips_the_text_rendering(capsys, monkeypatch):
    args = ("theorem1", "--level", "1", "--weight", "12", "--n", "1",
            "--character", "kronecker:-3", "--format", "json")
    _, expected, _ = run(capsys, *args)

    def refuse(*_args):
        raise RuntimeError("text rendering built for a JSON request")

    monkeypatch.setattr(cli, "polynomial_to_text", refuse)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == expected


def test_crosscheck_small(capsys):
    code, out, _ = run(capsys, "crosscheck", "--grid", "small")
    assert code == 0
    assert out.startswith("ALL EQUAL")


def test_crosscheck_names_the_first_difference(capsys, monkeypatch):
    oracle = cli.case_sum_polynomial
    trace = cli.trace_from_periods
    bump = ExactPolynomial.from_rational_coeffs([0, 0, 0, 1])
    monkeypatch.setattr(cli, "case_sum_polynomial", lambda ctx: oracle(ctx) + bump)
    monkeypatch.setattr(cli, "trace_from_periods", lambda query: trace(query) + 1)
    code, out, _ = run(capsys, "crosscheck", "--grid", "small", "--format", "json")
    assert code == 1
    failures = json.loads(out)["failures"]
    assert failures[0].startswith("polynomial N=1 D=3 w=10 n=1")
    assert "X^3" in failures[0]
    mismatch = next(f for f in failures if f.startswith("trace"))
    assert '"coords"' in mismatch.split("!=")[0] and '"coords"' in mismatch.split("!=")[1]


def test_eigen_fixture(capsys):
    code, out, _ = run(capsys, "eigen", "--fixture", "t2-weight24-level1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    vectors = {tuple(p["eigenvector"]) for p in data["pairs"]}
    assert ("118041", "1135193 + 19*sqrt(144169)") in vectors
    assert ("118041", "1135193 - 19*sqrt(144169)") in vectors


# stdout of the eigen command on both matrix fixtures, pinned byte for byte
EIGEN_OUTPUT = {
    ("t2-weight24-level1", "text"): '''\
char poly coefficients (degree-descending): ['1', '-1080', '-20468736']
lambda = 540 + 12*sqrt(144169):  (118041, 1135193 + 19*sqrt(144169))
lambda = 540 - 12*sqrt(144169):  (118041, 1135193 - 19*sqrt(144169))
''',
    ("t2-weight24-level1", "json"): '''\
{
 "fixture": "t2-weight24-level1",
 "char_poly": [
  "1",
  "-1080",
  "-20468736"
 ],
 "pairs": [
  {
   "eigenvalue": "540 + 12*sqrt(144169)",
   "eigenvector": [
    "118041",
    "1135193 + 19*sqrt(144169)"
   ]
  },
  {
   "eigenvalue": "540 - 12*sqrt(144169)",
   "eigenvector": [
    "118041",
    "1135193 - 19*sqrt(144169)"
   ]
  }
 ]
}
''',
    ("t3-weight16-level2", "text"): '''\
char poly coefficients (degree-descending): ['1', '444', '-30654288', '-70079318208']
lambda = -3348:  (13, 176, 0)
lambda = -3348:  (13, 0, -1408)
lambda = 6252:  (7, 110, 168)
''',
    ("t3-weight16-level2", "json"): '''\
{
 "fixture": "t3-weight16-level2",
 "char_poly": [
  "1",
  "444",
  "-30654288",
  "-70079318208"
 ],
 "pairs": [
  {
   "eigenvalue": "-3348",
   "eigenvector": [
    "13",
    "176",
    "0"
   ]
  },
  {
   "eigenvalue": "-3348",
   "eigenvector": [
    "13",
    "0",
    "-1408"
   ]
  },
  {
   "eigenvalue": "6252",
   "eigenvector": [
    "7",
    "110",
    "168"
   ]
  }
 ]
}
''',
}


@pytest.mark.parametrize("fixture, fmt", sorted(EIGEN_OUTPUT))
def test_eigen_matrix_output_pinned(capsys, fixture, fmt):
    code, out, _ = run(capsys, "eigen", "--fixture", fixture, "--format", fmt)
    assert code == 0
    assert out == EIGEN_OUTPUT[fixture, fmt]


def test_eigen_form_fixture(capsys):
    code, out, _ = run(capsys, "eigen", "--fixture", "gamma02-w16-even")
    assert code == 0
    assert out.strip() == "(7)*R_2 + (110)*R_4 + (168)*R_6"


def test_ratio_matches_library(capsys, registry, chi5):
    code, out, _ = run(
        capsys, "ratio", "--fixture", "sl2z-w24-even-plus", "--character",
        "kronecker:5", "--m1", "9", "--m2", "11", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    from heckeperiods.eigenforms import twisted_lambda_ratio

    expected = twisted_lambda_ratio(registry.eigenform("sl2z-w24-even-plus"), chi5, 9, 11)
    assert ExactNumber.from_json(data["base"]) == expected.base
    assert ExactNumber.from_json(data["radical"]) == expected.radical
    assert data["radicand"] == 144169


def test_ratio_zero_prints_zero(capsys):
    code, out, _ = run(
        capsys, "ratio", "--fixture", "sl2z-w24-odd-plus", "--character",
        "kronecker:-3", "--m1", "11", "--m2", "1",
    )
    assert code == 0
    assert out.strip() == "0"


def test_verify_numeric_lambda(capsys):
    code, out, _ = run(capsys, "verify-numeric", "--check", "lambda", "--m", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["abs_err"] < 1e-12


def plant_a_wrong_tau(monkeypatch):
    tau = list(numeric.tau_coefficients(numeric.TRUNCATION).coefficients)
    tau[1] += 1
    monkeypatch.setattr(numeric, "tau_coefficients", lambda m: numeric.QExpansion(tuple(tau[:m]), 12, 1))


def test_verify_numeric_lambda_catches_a_wrong_tau(capsys, monkeypatch):
    plant_a_wrong_tau(monkeypatch)
    code, out, _ = run(capsys, "verify-numeric", "--check", "lambda", "--m", "4",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_numeric_petersson_catches_a_wrong_tau(capsys, monkeypatch):
    plant_a_wrong_tau(monkeypatch)
    code, out, _ = run(capsys, "verify-numeric", "--check", "petersson", "--format", "json")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_numeric_twisted(capsys):
    code, out, _ = run(capsys, "verify-numeric", "--check", "twisted", "--m", "3",
                       "--character", "kronecker:-3", "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_fixtures_listing_and_dump(capsys, tmp_path):
    code, out, _ = run(capsys, "fixtures", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "sl2z-w24-even-plus" in data["eigenforms"]
    target = tmp_path / "dumped"
    code, out, _ = run(capsys, "fixtures", "--dump", str(target))
    assert code == 0
    assert (target / "central_values.json").exists()
    dumped = json.loads((target / "central_values.json").read_text())
    assert dumped["rows"][0]["D"] == 8


def test_fixtures_dump_onto_a_file_is_a_bad_request(capsys, tmp_path):
    target = tmp_path / "taken"
    target.write_text("not a directory")
    code, out, err = run(capsys, "fixtures", "--dump", str(target))
    assert code == 2 and out == ""
    assert err.startswith("invalid request:") and str(target) in err
    assert target.read_text() == "not a directory"


def test_parity_error_exit_code(capsys):
    code, _, err = run(
        capsys, "trace", "--level", "1", "--weight", "12",
        "--character", "kronecker:-3", "--m", "2", "--n", "1",
    )
    assert code == 1
    assert "parity" in err


def test_validation_error_exit_code(capsys):
    code, _, err = run(
        capsys, "trace", "--level", "1", "--weight", "12",
        "--character", "kronecker:9", "--m", "1", "--n", "1",
    )
    assert code == 2
    assert "induced" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--level", "1", "--weight", "12", "--character", "kronecker:x",
         "--m", "1", "--n", "1"),
        ("theorem1", "--level", "1", "--weight", "12", "--n", "1",
         "--character", "table:x:0,zeta[2]^0,zeta[2]^1"),
        ("theorem1", "--level", "1", "--weight", "12", "--n", "1",
         "--character", "table:3:0,zeta[0]^0,zeta[2]^1"),
        ("verify-numeric", "--check", "trace", "--weight", "14"),
        ("verify-numeric", "--check", "lambda", "--m", "11"),
        ("verify-numeric", "--check", "petersson", "--truncation", "50"),
        ("verify-numeric", "--check", "lambda", "--m", "3", "--truncation", "0"),
        ("verify-numeric", "--check", "trace", "--m", "5", "--truncation", "0"),
        ("verify-numeric", "--check", "twisted", "--m", "3", "--truncation", "50"),
        ("verify-numeric", "--check", "twisted", "--m", "3",
         "--character", "table:3:0,zeta[1]^0,zeta[1]^0"),
        ("trace", "--level", "1", "--weight", "12", "--character", "kronecker:3",
         "--m", "1", "--n", "1"),
    ],
)
def test_bad_requests_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("invalid request:")


@pytest.mark.parametrize("fault", [ValueError("not a rational number"), ArithmeticError("inexact")])
def test_internal_faults_exit_one(capsys, monkeypatch, fault):
    def handler(args):
        raise fault

    monkeypatch.setitem(cli._HANDLERS, "fixtures", handler)
    code, _, err = run(capsys, "fixtures")
    assert code == 1
    assert err.startswith("internal error:")
    assert str(fault) in err


def test_deterministic_output(capsys):
    args = ("theorem1", "--level", "2", "--weight", "14", "--n", "2",
            "--character", "kronecker:5", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_parse_character_table_spec():
    chi = parse_character("table:5:0,zeta[4]^0,zeta[4]^1,zeta[4]^3,zeta[4]^2")
    assert chi.order == 4 and chi.is_primitive
    assert chi.value(2) == ExactNumber.zeta(4, 1)
    with pytest.raises(CharacterError):
        parse_character("table:5:0,zeta[4]^0")
    with pytest.raises(CharacterError):
        parse_character("mystery:3")
    with pytest.raises(CharacterError):
        parse_character("table:3:0,one,zeta[2]^1")


def test_factored_surd_rendering():
    assert factored_surd_str(QuadSurd(0, Fraction(-2359296, 5), 3)) == "-(2^18*3^2/5)*sqrt(3)"
    assert factored_surd_str(QuadSurd(Fraction(7, 2), 0, 1)) == "7/2"
    assert factored_surd_str(QuadSurd(0, 1, 2)) == "sqrt(2)"
    assert factored_surd_str(QuadSurd(-3, 0, 1)) == "-(3)"
    assert factored_surd_str(QuadSurd(0, 0, 1)) == "0"


def test_zero_trace_exits_zero(capsys):
    args = ("trace", "--level", "1", "--weight", "14", "--character", "kronecker:-3",
            "--m", "1", "--n", "1")
    code, text_out, _ = run(capsys, *args)
    assert code == 0 and text_out.strip() == "0"
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    assert ExactNumber.from_json(json.loads(json_out)["exact"]).is_zero()


def test_factoring_in_text_output_is_bounded():
    # both factors are primes above the 2^16 trial-division bound; complete
    # trial division of this product would not return
    n = (2**31 - 1) * (2**61 - 1)
    assert cli._factored_int(n) == str(n)
    assert cli._factored_int(2**20 * 3 * 65537 * 65539) == f"2^20*3*{65537 * 65539}"
    assert cli._factored_int(2**5 * 3**4 * 65521 * 65537) == "2^5*3^4*65521*65537"
    assert factored_surd_str(QuadSurd(0, Fraction(7, n), 3)) == f"(7/{n})*sqrt(3)"


# ratio --format json stdout, captured before SurdPair became a QuadSurd:
# a zero ratio, whose radical vanishes, still reports the form's radicand
RATIO_OUTPUT = {
    ("sl2z-w24-odd-plus", "kronecker:-3", "11", "1"): '''{
 "fixture": "sl2z-w24-odd-plus",
 "character": "table:3:0,zeta[2]^0,zeta[2]^1",
 "m1": 11,
 "m2": 1,
 "base": {
  "level": 12,
  "coords": [
   "0",
   "0",
   "0",
   "0"
  ]
 },
 "radical": {
  "level": 12,
  "coords": [
   "0",
   "0",
   "0",
   "0"
  ]
 },
 "radicand": 144169,
 "text": "0"
}
''',
    ("sl2z-w24-even-plus", "kronecker:5", "9", "11"): '''{
 "fixture": "sl2z-w24-even-plus",
 "character": "table:5:0,zeta[2]^0,zeta[2]^1,zeta[2]^1,zeta[2]^0",
 "m1": 9,
 "m2": 11,
 "base": {
  "level": 20,
  "coords": [
   "4301981/57760",
   "0",
   "0",
   "0",
   "0",
   "0",
   "0",
   "0"
  ]
 },
 "radical": {
  "level": 20,
  "coords": [
   "12443/635360",
   "0",
   "0",
   "0",
   "0",
   "0",
   "0",
   "0"
  ]
 },
 "radicand": 144169,
 "text": "(4301981/57760) + (12443/635360)*sqrt(144169)"
}
''',
}


@pytest.mark.parametrize("request_key", sorted(RATIO_OUTPUT))
def test_ratio_json_output_pinned(capsys, request_key):
    fixture, character, m1, m2 = request_key
    code, out, err = run(capsys, "ratio", "--fixture", fixture, "--character", character,
                         "--m1", m1, "--m2", m2, "--format", "json")
    assert (code, err) == (0, "")
    assert out == RATIO_OUTPUT[request_key]
