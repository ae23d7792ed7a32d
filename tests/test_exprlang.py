import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exprlang_oracle
from magschro import exprlang
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


def test_exponent_literals():
    assert ev("1e9*n", 2) == 2e9
    assert ev("2.5E-3", 1) == 2.5e-3
    assert ev(".5e+1", 1) == 5.0
    assert ev("1e2^2", 1) == 1e4
    for text in ("1e", "1e+", "1e-", "2 * 3.5e", "1ex"):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.position == text.index(text.split("e")[0].split()[-1])
    with pytest.raises(ExprEvalError, match="non-finite result inf"):
        compile_text("1e400")(1)


def test_array_evaluation_is_bit_exact_with_scalars():
    ns = np.arange(1, 200_001)
    for text in ("-(n^2)", "n^2", "n^-0.5", "(n*n)^0.5", "sqrt(n)/3", "min(n, 7e4) / max(n, 2)",
                 "abs(1 - n) + 1e-3", "2^(n/50000)", "(1 + 1/n)^n", "4"):
        values = compile_text(text)(ns)
        assert values.dtype == np.float64 and values.shape == ns.shape
        picks = np.r_[0:1000, 1000:200_000:997]
        expected = [eval_expr(parse_expr(text), int(n)) for n in ns[picks]]
        assert values[picks].tolist() == expected, text


def _largest_root(k):
    """The largest integer whose k-th power is below 2**53."""
    r = int(2 ** (53 / k))
    while r ** k >= 2 ** 53:
        r -= 1
    while (r + 1) ** k < 2 ** 53:
        r += 1
    return r


def _overflows(b, k):
    try:
        math.pow(b, k)
    except OverflowError:
        return True
    return False


def _multiplied(b, k):
    """Whether ``power`` keeps the product for the base b: b == trunc(b),
    which holds for inf, and |b**k| < 2**53."""
    if math.isnan(b) or math.isfinite(b) and b != int(b):
        return False
    return k == 0 or math.isfinite(b) and abs(int(b)) ** k < 2 ** 53


def test_exact_powers_are_bit_identical_to_math_pow(monkeypatch):
    """Integral bases whose power is below 2**53 are multiplied out, and
    every other element goes through ``math.pow``; both give its bits."""
    slow = []
    monkeypatch.setattr(exprlang, "math", SimpleNamespace(
        pow=lambda b, k: slow.append(b) or math.pow(b, k)))
    rng = np.random.default_rng(7)
    odd = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, 94906265.5, math.nan, math.inf, -math.inf]
    ranges = [(0, 2 ** 26), (2 ** 26, 2 ** 27), (2 ** 27, 2 ** 40)]
    drawn = np.concatenate([rng.integers(lo, hi, 20_000) for lo, hi in ranges])
    drawn = (drawn * rng.choice([-1, 1], len(drawn))).astype(float)
    for k in (0, 1, 2, 3, exprlang._EXACT_MAX, exprlang._EXACT_MAX + 1):
        edge = _largest_root(k) if k > 1 else 2 ** 52
        near = np.arange(edge - 300, edge + 300, dtype=float)
        base = np.concatenate([near, -near, odd, [2.0, -2.0, 3.0], drawn])
        over = np.array([_overflows(b, k) for b in base.tolist()])
        if over.any():  # as math.pow does on its own
            with pytest.raises(OverflowError, match="math range error"):
                exprlang.power(base, float(k), len(base))
            base = base[~over]
        slow.clear()
        got = exprlang.power(base, float(k), len(base))
        expected = np.array([math.pow(b, k) for b in base.tolist()])
        assert got.tobytes() == expected.tobytes(), k
        if k <= exprlang._EXACT_MAX:  # the multiplied-out elements are exactly these
            exact = np.array([_multiplied(b, k) for b in base.tolist()])
            assert np.array(slow).tobytes() == base[~exact].tobytes(), k
            assert k < 2 or (-edge in base[exact] and -edge - 1 in base[~exact])
        else:
            assert len(slow) == len(base)


@pytest.mark.parametrize("text, n, message", [
    ("1/(n-3000)", 3000, "division by zero in '1/(n-3000)'"),
    ("sqrt(n-70001) + 1/(n-90000)", 1, "math domain error in 'sqrt(n-70001) + 1/(n-90000)'"),
    ("n^150", 114, "math range error in 'n^150'"),
    ("(n*1e150)^2", 13408, "math range error in '(n*1e150)^2'"),
    ("(n*10)^52", 84718, "math range error in '(n*10)^52'"),
    ("(n-5)^-1", 5, "math domain error in '(n-5)^-1'"),
    ("n^150*n^150", 11, "non-finite result inf in 'n^150*n^150'"),
])
def test_array_evaluation_raises_at_the_smallest_failing_n(text, n, message):
    evaluate = compile_text(text)
    with pytest.raises(ExprEvalError) as scalar:
        evaluate(n)
    with pytest.raises(ExprEvalError) as array:
        evaluate(np.arange(1, 200_001))
    assert (array.value.n, str(array.value)) == (scalar.value.n, str(scalar.value)) == (
        n, f"{message} (at n={n})")


_LEAVES = st.sampled_from(["n", "1", "2", "0", "0.5", "1e-3", "(n - 3)", "(n - 30)", "(2 - n)",
                           "n^150", "(n*94906265)"])


def _expressions():
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from(["2", "3", "-1", "0.5", "150", "-0.5", "n", "(n - 20)"]))
            .map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda e: f"-({e})"),
            st.tuples(st.sampled_from(["sqrt", "abs"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["min", "max"]), st.lists(inner, min_size=2, max_size=3))
            .map(lambda t: f"{t[0]}({', '.join(t[1])})"),
        )
    return st.recursive(_LEAVES, extend, max_leaves=8)


@settings(max_examples=300)
@given(text=_expressions(), start=st.integers(1, 60), size=st.integers(1, 200))
def test_array_evaluator_agrees_with_eval_expr(text, start, size):
    """Zero divisors, negative sqrt arguments and n^150 overflow included."""
    ast = parse_expr(text)
    ns = np.arange(start, start + size)
    expected, error = [], None
    for n in ns.tolist():
        try:
            expected.append(eval_expr(ast, n))
        except ExprEvalError as exc:
            error = exc
            break
    if error is None:
        assert compile_text(text)(ns).tobytes() == np.array(expected).tobytes()
    else:
        with pytest.raises(ExprEvalError) as exc:
            compile_text(text)(ns)
        assert exc.value.n == error.n
        assert str(exc.value) == str(error).replace(" (at n=", f" in {text!r} (at n=")


@pytest.mark.parametrize("text", ["n / 0", "1/(0*n)", "1/(n/0)", "min(1/(0*n), 2)", "n / -0.0"])
def test_constant_zero_divisor_raises_over_an_array(text):
    # numpy gives inf or NaN for x / 0.0, and 1/(n/0) or min(..., 2) would then be finite
    for n in (7, np.arange(1, 50)):
        with pytest.raises(ExprEvalError, match=r"division by zero .* \(at n=(7|1)\)"):
            compile_text(text)(n)


@pytest.mark.parametrize("text", ["min(0, -0.0*n)", "max(-0.0, 0*n)", "min(0, -0.0*n, 1)",
                                  "max(2, n, 2*n - 2)", "min(1, n^150*n^150 - n^150*n^150)",
                                  "min(0*n, -0.0)", "max(1e308*10 - 1e308*10, 0*n, 1) + 1"])
def test_min_max_first_wins_with_a_float_argument(text):
    """Ties between 0.0 and -0.0, and NaN operands, are decided by position."""
    ns = np.arange(1, 40)
    ast = parse_expr(text)
    expected = []
    for n in ns.tolist():
        try:
            expected.append(eval_expr(ast, n))
        except ExprEvalError:
            with pytest.raises(ExprEvalError):
                compile_text(text)(ns)
            return
    assert compile_text(text)(ns).tobytes() == np.array(expected).tobytes()


def test_min_max_ties_keep_the_first_zero():
    for evaluate in (lambda text: ev(text, 3), lambda text: compile_text(text)(np.array([3]))[0]):
        assert math.copysign(1.0, evaluate("min(0, -0.0*n)")) == 1.0
        assert math.copysign(1.0, evaluate("max(-0.0, 0*n)")) == -1.0


def test_n_is_converted_where_it_is_read():
    assert eval_expr(parse_expr("1"), 10**400) == 1.0
    assert compile_text("2 + 3")(10**400) == 5.0
    with pytest.raises(ExprEvalError, match="int too large to convert to float"):
        eval_expr(parse_expr("n"), 10**400)


def test_scalar_results_are_python_floats():
    for text in ("sqrt(n)", "n^2", "min(n, 2)", "1/n", "abs(-n)", "sqrt(4)"):
        assert type(ev(text, 9)) is float, text


def _parsed(parse, text):
    """The tree, or the syntax error's message and position; the oracle may also crash."""
    try:
        return "tree", parse(text)
    except ExprSyntaxError as exc:
        return "error", str(exc), exc.position
    except (ValueError, RecursionError) as exc:
        if parse is parse_expr:
            raise
        return "crash", type(exc).__name__


def _assert_matches_the_oracle(text):
    """The oracle's tree or error, except where it crashes (then any syntax
    error) or where ``text`` holds a digit that ``float`` refuses."""
    got = _parsed(parse_expr, text)
    expected = _parsed(exprlang_oracle.parse_expr, text)
    if expected[0] == "crash":
        assert got[0] == "error"
    elif not any(c.isdigit() and not c.isdecimal() for c in text):
        assert got == expected


# the grammar's characters and names, Unicode letters, digits and blanks; "No"
# holds "\u00b2", which isdigit accepts and float refuses, and "\u00bd", which both refuse
_TEXTS = st.lists(st.sampled_from([*"0123456789.eE+-*/^(), n_", "min(", "max(", "sqrt(", "abs("])
                  | st.characters(categories=["L", "Nd", "No", "Nl", "Zs"]),
                  max_size=16).map("".join)


@settings(max_examples=1000)
@given(text=_TEXTS)
@example(text="\u00b2")
@example(text="2\u00b2")
@example(text="(" * 300 + "n" + ")" * 300)
@example(text="-" * 2000 + "n")
@example(text="\u0663.\u0665e\u0661 * n")
@example(text="1.2.3 + .5.5")
def test_front_end_matches_the_oracle(text):
    _assert_matches_the_oracle(text)


def test_front_end_matches_the_oracle_on_every_short_string():
    # all strings of up to four characters over grammar pieces, a letter, a
    # digit of another script, a no-break space, a superscript two and a half
    alphabet = "1.e+-^(),n_\u00e9\u0663\u00a0\u00b2\u00bd"
    for size in range(5):
        for chars in itertools.product(alphabet, repeat=size):
            _assert_matches_the_oracle("".join(chars))


@pytest.mark.parametrize("builder", [
    lambda k: "(" * k + "n" + ")" * k, lambda k: "-" * k + "n", lambda k: "2^" * k + "n",
    lambda k: "max(1, " * k + "n" + ")" * k, lambda k: "(" * k + "n"],
    ids=["parentheses", "unary-minus", "power", "call", "unclosed"])
def test_nesting_fails_where_the_oracle_runs_out_of_stack(builder):
    deepest = 1
    while _parsed(exprlang_oracle.parse_expr, builder(deepest))[0] != "crash":
        deepest += 25
    outcomes = set()
    for k in range(deepest - 25, deepest + 1):  # up to the oracle's first crash
        expected = _parsed(exprlang_oracle.parse_expr, builder(k))
        if expected[0] == "crash":
            assert _parsed(parse_expr, builder(k)) == (
                "error", "expression nested too deeply (at position 0)", 0)
        else:
            assert _parsed(parse_expr, builder(k)) == expected
        outcomes.add(expected[0])
    assert "crash" in outcomes and len(outcomes) == 2


@pytest.mark.parametrize("length", [10, 300, 900, 5000])
@pytest.mark.parametrize("chain", ["unary", "binary"])
def test_long_minus_chains_evaluate_or_raise_a_typed_error(chain, length):
    # a flat binary chain evaluates at every length; a unary one may be too deep
    text = "-" * length + "n" if chain == "unary" else " - ".join(["n"] * length)
    value = (-1) ** length * 3.0 if chain == "unary" else (2 - length) * 3.0
    for evaluate in (lambda: eval_expr(parse_expr(text), 3), lambda: compile_text(text)(3),
                     lambda: compile_text(text)(np.array([3]))[0]):
        try:
            assert evaluate() == value
        except (ExprSyntaxError, ExprEvalError) as exc:
            assert chain == "unary" and length > 10
            assert "expression nested too deeply" in str(exc)
