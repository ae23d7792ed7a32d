import math

import numpy as np
import pytest

from magschro.errors import ExprEvalError, ExprSyntaxError
from magschro.exprlang import compile_text, eval_expr, parse_expr


def ev(text, n):
    return eval_expr(parse_expr(text), n)


def test_reference_potential():
    assert ev("-(n^2)", 3) == -9.0


def test_literals_and_basics():
    assert ev("1", 17) == 1.0
    assert ev("n^2", 4) == 16.0
    assert ev("min(n, 5)", 9) == 5.0
    assert ev("max(n, 5)", 9) == 9.0
    assert ev("0.5", 1) == 0.5
    assert ev("sqrt(n)", 9) == 3.0
    assert ev("abs(1 - n)", 4) == 3.0


def test_precedence():
    assert ev("-n^2", 3) == -9.0  # power binds tighter than unary minus
    assert ev("2^3^2", 1) == 512.0  # right associative
    assert ev("2+3*4", 1) == 14.0
    assert ev("2*3+4", 1) == 10.0
    assert ev("6/3/2", 1) == 1.0  # left associative
    assert ev("2^-1", 1) == 0.5  # signed exponent
    assert ev("-(n + 1) * 2", 2) == -6.0


def test_min_max_variadic():
    assert ev("min(3, n, 7)", 5) == 3.0
    assert ev("max(3, n, 7)", 5) == 7.0


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("2 +")
    assert exc.value.position == 3
    with pytest.raises(ExprSyntaxError):
        parse_expr("foo(3)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("min(1)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(1")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 2")
    with pytest.raises(ExprSyntaxError):
        parse_expr("n $ 2")


def test_division_by_zero_reports_n():
    ast = parse_expr("1/(n-3)")
    assert eval_expr(ast, 4) == 1.0
    with pytest.raises(ExprEvalError) as exc:
        eval_expr(ast, 3)
    assert exc.value.n == 3


def test_sqrt_domain_error():
    ast = parse_expr("sqrt(n-5)")
    with pytest.raises(ExprEvalError):
        eval_expr(ast, 2)


def test_compile_matches_eval():
    for text in ("-(n^2)", "n^2 + 3*n - 1", "min(n, 5) / max(n, 2)", "sqrt(abs(3 - n) + 1)"):
        ast = parse_expr(text)
        fn = compile_text(text)
        for n in (1, 2, 7, 100):
            assert fn(n) == eval_expr(ast, n)


def _random_source(rng, depth):
    """A random well-formed expression in both package and python syntax."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            lit = str(int(rng.integers(1, 10)))
            return lit, lit
        return "n", "n"
    kind = rng.integers(0, 6)
    if kind == 0:
        ours, py = _random_source(rng, depth - 1)
        return f"(-({ours}))", f"(-({py}))"
    if kind == 1:
        a_ours, a_py = _random_source(rng, depth - 1)
        op = "+-*/"[int(rng.integers(0, 4))]
        b_ours, b_py = _random_source(rng, depth - 1)
        return f"({a_ours} {op} {b_ours})", f"({a_py} {op} {b_py})"
    if kind == 2:
        a_ours, a_py = _random_source(rng, depth - 1)
        exp = str(int(rng.integers(0, 4)))
        return f"({a_ours} ^ {exp})", f"(({a_py}) ** {exp})"
    if kind == 3:
        a_ours, a_py = _random_source(rng, depth - 1)
        return f"sqrt(abs({a_ours}))", f"math.sqrt(abs({a_py}))"
    fn = "min" if kind == 4 else "max"
    a_ours, a_py = _random_source(rng, depth - 1)
    b_ours, b_py = _random_source(rng, depth - 1)
    return f"{fn}({a_ours}, {b_ours})", f"{fn}({a_py}, {b_py})"


def test_fuzz_against_python_eval():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        ours, py = _random_source(rng, depth=int(rng.integers(1, 4)))
        n = int(rng.integers(1, 21))
        try:
            expected = eval(py, {"math": math, "n": n})  # independent evaluator
        except (ZeroDivisionError, OverflowError):
            continue
        if not math.isfinite(expected) or abs(expected) > 1e12:
            continue
        got = ev(ours, n)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert compile_text(ours)(n) == got
        checked += 1


def test_evaluators_agree_on_non_finite_values():
    cases = [
        ("n^150*n^150", None),  # `*` overflows to inf without raising
        ("n^150*n^150 - n^150*n^150", None),  # inf - inf is NaN
        ("0 * (n^150*n^150)", None),
        ("1" + "0" * 400, None),  # a literal beyond the float range
        ("min(n^150*n^150, 1)", 1.0),  # only the result has to be finite
        ("1 / (n^150*n^150)", 0.0),
    ]
    for text, expected in cases:
        for evaluate in (lambda n: eval_expr(parse_expr(text), n), compile_text(text)):
            if expected is None:
                with pytest.raises(ExprEvalError, match="non-finite result") as exc:
                    evaluate(30)
                assert exc.value.n == 30
            else:
                assert evaluate(30) == expected
