"""Command-line front end.

Subcommands map one-to-one onto library operations:

  theorem1        closed-form symmetrized twisted period polynomial
  trace           exact trace of twisted x untwisted completed L-values
  crosscheck      closed form vs case-sum oracle (and both trace routes)
  eigen           characteristic polynomial / eigenvectors of a bundled matrix
  ratio           exact ratio of twisted completed L-values of a fixture form
  verify-numeric  floating checks against the reference constants
  fixtures        list or dump the bundled fixture files

Exit codes: 0 success, 1 computation error (e.g. parity) or internal fault,
2 invalid request.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .characters import (
    CharacterError,
    DirichletCharacter,
    enumerate_primitive_characters,
    kronecker_character,
)
from .cyclotomic import (
    ExactNumber,
    ExactPolynomial,
    QuadSurd,
    _monomial_product,
    _monomials,
    _surd_text,
    factorize,
    recognize_surd,
)
from .eigenforms import (
    FixtureError,
    char_poly,
    eigen_decompose,
    load_fixtures,
    twisted_lambda_ratio,
)
from .numeric import (
    _float_json,
    _split_lambda,
    assembled_twisted_lambda,
    lambda_delta,
    petersson_delta_inverse,
    verify_trace_numeric,
)
from .periods import (
    ContextError,
    ParityError,
    PeriodContext,
    case_sum_polynomial,
    closed_form_polynomial,
)
from .traces import TraceQuery, trace_closed_form, trace_from_periods

_ZETA_VALUE = re.compile(r"^zeta\[([1-9]\d*)\]\^(-?\d+)$")

# reference constants for the verify-numeric twisted check (modulus 3 twist)
_TWISTED_REFERENCE = {1: -228.22304046813742, 3: -14.263940029258589, 5: 0.0}
_LAMBDA_REFERENCE = {2: 0.003707710464948, 10: 0.003707710464948}
_PETERSSON_REFERENCE = 965845.709168185


def parse_character(spec: str) -> DirichletCharacter:
    """Parse "kronecker:D" or "table:D:v0,v1,..." (one value per residue,
    each "zeta[M]^k" or "0")."""
    parts = spec.split(":")
    if parts[0] == "kronecker" and len(parts) == 2:
        return kronecker_character(_spec_int(parts[1]))
    if parts[0] == "table" and len(parts) == 3:
        modulus = _spec_int(parts[1])
        entries = parts[2].split(",")
        if len(entries) != modulus:
            raise CharacterError(
                f"need {modulus} values for modulus {modulus}, got {len(entries)}"
            )
        levels = []
        raws = []
        for entry in entries:
            entry = entry.strip()
            if entry == "0":
                raws.append(None)
                levels.append(1)
                continue
            m = _ZETA_VALUE.match(entry)
            if not m:
                raise CharacterError(f"cannot parse character value {entry!r}")
            level, k = int(m.group(1)), int(m.group(2))
            raws.append((level, k))
            levels.append(level)
        order = math.lcm(*levels)
        exps = [
            None if raw is None else (raw[1] * (order // raw[0])) % order
            for raw in raws
        ]
        return DirichletCharacter(modulus, order, exps)
    raise CharacterError(f"unknown character spec {spec!r} (use kronecker:D or table:D:...)")


def _spec_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CharacterError(f"not an integer in character spec: {text!r}") from None


def character_spec_string(chi: DirichletCharacter) -> str:
    values = ",".join(
        "0" if e is None else f"zeta[{chi.order}]^{e}" for e in chi.exponents
    )
    return f"table:{chi.modulus}:{values}"


# ---------------------------------------------------------------------------
# output helpers


# text output trial-divides by candidates below this and prints what is left
# unfactored: a cofactor below its square is 1 or prime, so a number whose
# second-largest prime factor is below it prints fully factored
_FACTOR_BOUND = 2**16


def _factored_int(n: int) -> str:
    if n <= 1:
        return str(n)
    parts = []
    for p, e in sorted(factorize(n, _FACTOR_BOUND).items()):
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return "*".join(parts)


def factored_surd_str(surd: QuadSurd) -> str:
    """Render like -(2^18*3^2/5)*sqrt(3), factoring the rational parts."""

    def rational(q: Fraction) -> str:
        num = _factored_int(q.numerator)
        return num if q.denominator == 1 else f"{num}/{_factored_int(q.denominator)}"

    return _surd_text(
        surd,
        lambda q: rational(q) if q >= 0 else f"-({rational(-q)})",
        lambda q: f"({rational(q)})",
    )


def _surd_or_json(x: ExactNumber, render: Callable[[QuadSurd], str], times_i: str) -> str:
    """x rendered as a surd, or as i times one (QuadSurd keeps d >= 1, so
    i*sqrt(5) is recognized in -i*x); its JSON if neither."""
    surd = recognize_surd(x)
    if surd is not None:
        return render(surd)
    # -i*x = x * zeta_level^(3*level/4): a rotation of x's monomials, one fold
    level = math.lcm(4, x.level)
    den, terms = _monomials(x)
    surd = recognize_surd(_monomial_product(terms, x.level, 1, den, ((3 * level // 4, 1),), level))
    if surd is not None:
        return times_i.format(render(surd))
    return json.dumps(x.to_json())


def exact_number_text(x: ExactNumber) -> str:
    return _surd_or_json(x, factored_surd_str, "i*({})")


def _latex_rational(q: Fraction) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    if q.denominator == 1:
        return f"{sign}{q.numerator}"
    return f"{sign}\\frac{{{q.numerator}}}{{{q.denominator}}}"


def _latex_surd(surd: QuadSurd) -> str:
    if surd.b == 0:
        return _latex_rational(surd.a)
    bpart = f"{_latex_rational(surd.b)}\\sqrt{{{surd.d}}}"
    if surd.a == 0:
        return bpart
    joiner = "+" if surd.b > 0 else ""
    return f"{_latex_rational(surd.a)}{joiner}{bpart}"


def exact_number_latex(x: ExactNumber) -> str:
    return _surd_or_json(x, _latex_surd, "i\\left({}\\right)")


def _text_term(body: str, k: int) -> str:
    return body if k == 0 else f"({body})*X" if k == 1 else f"({body})*X^{k}"


def _latex_term(body: str, k: int) -> str:
    return f"\\left({body}\\right)X^{{{k}}}" if k else f"\\left({body}\\right)"


def polynomial_to_text(poly: ExactPolynomial, render, term=_text_term) -> str:
    """The nonzero terms, highest power first: term(render(c), k) for c*X^k."""
    degree = poly.degree()
    terms = [term(render(c), degree - i) for i, c in enumerate(poly.coefficients) if not c.is_zero()]
    return " + ".join(terms) or "0"


def _emit(args, payload: dict, render: Callable[[], str]) -> None:
    """Print the payload as JSON, or the text that render builds: only a
    text request pays for the text rendering."""
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        print(render())


# ---------------------------------------------------------------------------
# subcommands


def _context_from_args(args) -> PeriodContext:
    if args.weight % 2 or args.weight < 4:
        raise ContextError("weight must be an even integer >= 4")
    chi = parse_character(args.character)
    return PeriodContext(args.level, args.weight - 2, args.n, chi)


def cmd_theorem1(args) -> int:
    ctx = _context_from_args(args)
    poly = closed_form_polynomial(ctx)
    # each output reads the coefficients once: reading one multiplies the
    # polynomial's constant factor in
    if args.format != "json":
        render, term = (exact_number_latex, _latex_term) if args.format == "latex" else (exact_number_text, _text_term)
        print(polynomial_to_text(poly, render, term))
        return 0
    payload = {
        "level": ctx.level,
        "weight": ctx.weight,
        "n": ctx.n,
        "character": character_spec_string(ctx.chi),
        "polynomial": poly.to_json(),
    }
    print(json.dumps(payload, indent=1))
    return 0


def cmd_trace(args) -> int:
    ctx = _context_from_args(args)
    value = trace_closed_form(TraceQuery(ctx, args.m))
    if args.format != "json":
        print(exact_number_text(value))
        return 0
    surd = recognize_surd(value)
    payload = {
        "exact": value.to_json(),
        "surd": str(surd) if surd is not None else None,
        "float": _float_json(value.numeric()),
    }
    print(json.dumps(payload, indent=1))
    return 0


_GRIDS = {
    "default": {"levels": (1, 2, 3, 4), "moduli": (3, 4, 5, 7, 8, 12), "ws": (10, 12, 14)},
    "small": {"levels": (1, 2), "moduli": (3, 4, 5), "ws": (10,)},
}


def cmd_crosscheck(args) -> int:
    grid = _GRIDS.get(args.grid)
    if grid is None:
        raise ContextError(f"unknown grid {args.grid!r} (choose from {sorted(_GRIDS)})")
    contexts = 0
    traces = 0
    failures = []
    for d in grid["moduli"]:
        for chi in enumerate_primitive_characters(d):
            for level in grid["levels"]:
                for w in grid["ws"]:
                    for n in range(1, w):
                        ctx = PeriodContext(level, w, n, chi)
                        closed = closed_form_polynomial(ctx)
                        oracle = case_sum_polynomial(ctx)
                        if closed != oracle:
                            k = next(
                                k
                                for k in range(max(closed.degree(), oracle.degree()) + 1)
                                if closed.coefficient(k) != oracle.coefficient(k)
                            )
                            failures.append(
                                f"polynomial N={level} D={d} w={w} n={n}: first difference at X^{k}"
                            )
                        contexts += 1
                        for m in range(0, w + 1):
                            if not ctx.parity_holds(m):
                                continue
                            query = TraceQuery(ctx, m)
                            exact = trace_closed_form(query)
                            via_periods = trace_from_periods(query)
                            if exact != via_periods:
                                failures.append(
                                    f"trace N={level} D={d} w={w} n={n} m={m}: closed form "
                                    f"{json.dumps(exact.to_json())} != from periods "
                                    f"{json.dumps(via_periods.to_json())}"
                                )
                            traces += 1
    payload = {
        "grid": args.grid,
        "contexts": contexts,
        "trace_queries": traces,
        "all_equal": not failures,
        "failures": failures,
    }
    _emit(
        args,
        payload,
        lambda: (
            f"ALL EQUAL ({contexts} contexts, {traces} trace queries)"
            if not failures
            else "MISMATCH:\n" + "\n".join(failures)
        ),
    )
    return 0 if not failures else 1


def cmd_eigen(args) -> int:
    registry = load_fixtures()
    if args.fixture in registry.matrices:
        fixture = registry.matrix(args.fixture)
        matrix = fixture.coefficient_matrix
        cp = char_poly(matrix)
        pairs = eigen_decompose(matrix)
        payload = {
            "fixture": args.fixture,
            "char_poly": [str(c.rational_value()) for c in cp.coefficients],
            "pairs": [
                {"eigenvalue": str(lam), "eigenvector": [str(v) for v in vec]}
                for lam, vec in pairs
            ],
        }
        lines = [f"char poly coefficients (degree-descending): {payload['char_poly']}"]
        for lam, vec in pairs:
            lines.append(f"lambda = {lam}:  ({', '.join(str(v) for v in vec)})")
        _emit(args, payload, lambda: "\n".join(lines))
        return 0
    form = registry.eigenform(args.fixture)
    payload = {
        "fixture": args.fixture,
        "level": form.level,
        "weight": form.weight,
        "terms": [{"n": n, "coeff": str(c)} for n, c in form.terms],
    }
    _emit(args, payload, lambda: " + ".join(f"({c})*R_{n}" for n, c in form.terms))
    return 0


def cmd_ratio(args) -> int:
    registry = load_fixtures()
    form = registry.eigenform(args.fixture)
    chi = parse_character(args.character)
    value = twisted_lambda_ratio(form, chi, args.m1, args.m2)
    text = _surd_or_json(value.base, str, "i*({})")
    if not value.radical.is_zero():
        radical = _surd_or_json(value.radical, str, "i*({})")
        text = f"({text}) + ({radical})*sqrt({value.d})"
    payload = {
        "fixture": args.fixture,
        "character": character_spec_string(chi),
        "m1": args.m1,
        "m2": args.m2,
        "base": value.base.to_json(),
        "radical": value.radical.to_json(),
        "radicand": form.radicand,
        "text": text,
    }
    _emit(args, payload, lambda: text)
    return 0


# the flags each numeric check reads, with their defaults
_NUMERIC_FLAGS = {
    "lambda": ("m",),
    "petersson": (),
    "twisted": ("character", "m"),
    "trace": ("character", "n", "m"),
}
_NUMERIC_DEFAULTS = {"character": "kronecker:-3", "n": 1, "m": 1}


def cmd_verify_numeric(args) -> int:
    if args.check != "trace" and (args.level, args.weight) != (1, 12):
        # the trace check refuses other spaces in verify_trace_numeric
        raise ContextError(f"the {args.check} check covers level 1, weight 12 (Delta) only")
    for flag, default in _NUMERIC_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif flag not in _NUMERIC_FLAGS[args.check]:
            raise ContextError(f"the {args.check} check does not read --{flag}")
    if args.check == "lambda":
        s = args.m + 1
        computed = lambda_delta(s)
        expected = _LAMBDA_REFERENCE.get(s, None)
        if expected is None:
            # the same value from a second split of the Mellin integral
            expected = _split_lambda(s, 0.5)
        tol = 1e-12
    elif args.check == "petersson":
        computed = petersson_delta_inverse()
        expected = _PETERSSON_REFERENCE
        tol = 1e-6 * abs(expected)
    elif args.check == "twisted":
        chi = parse_character(args.character)
        if chi.modulus != 3 or args.m not in _TWISTED_REFERENCE:
            raise ContextError(
                "twisted reference values exist for kronecker:-3 at m in {1,3,5}"
            )
        computed = assembled_twisted_lambda(args.m, chi).real
        expected = _TWISTED_REFERENCE[args.m]
        tol = 1e-8
    elif args.check == "trace":
        chi = parse_character(args.character)
        ctx = PeriodContext(args.level, args.weight - 2, args.n, chi)
        report = verify_trace_numeric(TraceQuery(ctx, args.m))
        _emit(args, report.to_json(), lambda: json.dumps(report.to_json(), indent=1))
        return 0 if report.passed else 1
    else:
        raise ContextError(f"unknown check {args.check!r}")
    abs_err = abs(computed - expected)
    payload = {
        "check": args.check,
        "expected": expected,
        "computed": computed,
        "abs_err": abs_err,
        "rel_err": abs_err / max(abs(expected), 1.0),
        "pass": abs_err <= tol,
    }
    _emit(args, payload, lambda: json.dumps(payload, indent=1))
    return 0 if payload["pass"] else 1


def cmd_fixtures(args) -> int:
    registry = load_fixtures()
    if args.dump == "":
        raise FixtureError("the --dump path is empty")
    if args.dump is not None:
        from importlib import resources

        source = resources.files(__package__) / "fixtures"
        target = Path(args.dump)
        names = ("sl2z_eigenforms.json", "gamma0_2_newforms.json", "hecke_matrices.json",
                 "central_values.json")
        try:
            target.mkdir(parents=True, exist_ok=True)
            for name in names:
                (target / name).write_text((source / name).read_text())
        except OSError as exc:
            raise FixtureError(f"cannot dump the fixtures to {args.dump!r}: {exc.strerror or exc}") from exc
        written = [str(target / name) for name in names]
        _emit(args, {"written": written}, lambda: "\n".join(written))
        return 0
    payload = {
        "eigenforms": sorted(registry.eigenforms),
        "matrices": sorted(registry.matrices),
        "central_value_discriminants": registry.central_values.discriminants,
    }
    lines = ["eigenforms:"]
    lines += [f"  {name}" for name in sorted(registry.eigenforms)]
    lines.append("matrices:")
    lines += [f"  {name}" for name in sorted(registry.matrices)]
    lines.append(f"central-value table: D in {registry.central_values.discriminants}")
    _emit(args, payload, lambda: "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeperiods",
        description="Exact twisted period polynomials and L-value traces on Gamma_0(N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, formats=("text", "json")):
        p.add_argument("--level", type=int, required=True, help="level N of Gamma_0(N)")
        p.add_argument("--weight", type=int, required=True, help="modular weight w+2")
        p.add_argument("--character", required=True, help="kronecker:D or table:D:v0,...")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("theorem1", help="closed-form symmetrized period polynomial")
    add_common(p, formats=("text", "json", "latex"))
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("trace", help="exact trace of twisted x untwisted L-values")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("crosscheck", help="closed form vs case-sum oracle over a grid")
    p.add_argument("--grid", default="default")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eigen", help="decompose a bundled Hecke matrix")
    p.add_argument("--fixture", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("ratio", help="exact ratio of twisted completed L-values")
    p.add_argument("--fixture", required=True)
    p.add_argument("--character", required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-numeric", help="floating checks against reference values")
    p.add_argument("--check", required=True, choices=("lambda", "petersson", "twisted", "trace"))
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--weight", type=int, default=12)
    # no defaults here: a check refuses a flag it does not read
    p.add_argument("--character")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("fixtures", help="list or dump the bundled fixtures")
    p.add_argument("--dump", nargs="?", const="fixtures-dump", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


_HANDLERS = {
    "theorem1": cmd_theorem1,
    "trace": cmd_trace,
    "crosscheck": cmd_crosscheck,
    "eigen": cmd_eigen,
    "ratio": cmd_ratio,
    "verify-numeric": cmd_verify_numeric,
    "fixtures": cmd_fixtures,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of standard output has gone: send the rest to devnull,
        # so the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CharacterError, ContextError, FixtureError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
