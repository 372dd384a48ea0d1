import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.axioms import CandidateDistribution, evaluate
from bornlab.dsl import (
    CONSTANTS,
    FUNCTIONS,
    MAX_NESTING,
    MAX_TOKENS,
    VARIABLES,
    Bin,
    Call,
    Const,
    Lit,
    Neg,
    Var,
    compile_expr,
    eval_expr,
    parse_candidate,
    pretty,
)
from bornlab.errors import EvalError, ParseError, UnknownNameError

import reference


class TestParsing:
    def test_power(self):
        assert parse_candidate("r^2") == Bin("^", Var("r"), Lit(2.0))

    def test_mixed_expression(self):
        tree = parse_candidate("r^2 + 0.1*sin(phi)")
        assert tree == Bin(
            "+",
            Bin("^", Var("r"), Lit(2.0)),
            Bin("*", Lit(0.1), Call("sin", Var("phi"))),
        )

    def test_double_caret_position(self):
        with pytest.raises(ParseError) as err:
            parse_candidate("r^^2")
        assert err.value.position == 2

    def test_power_right_associative(self):
        assert parse_candidate("r^2^3") == Bin(
            "^", Var("r"), Bin("^", Lit(2.0), Lit(3.0))
        )

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_candidate("-r^2") == Neg(Bin("^", Var("r"), Lit(2.0)))

    def test_precedence_mul_over_add(self):
        assert parse_candidate("1 + 2*3") == Bin(
            "+", Lit(1.0), Bin("*", Lit(2.0), Lit(3.0))
        )

    def test_parentheses(self):
        assert parse_candidate("(1 + 2)*3") == Bin(
            "*", Bin("+", Lit(1.0), Lit(2.0)), Lit(3.0)
        )

    def test_unknown_identifier(self):
        with pytest.raises(UnknownNameError) as err:
            parse_candidate("r^2 + bogus")
        assert err.value.name == "bogus"
        assert err.value.position == 6

    def test_unknown_function(self):
        with pytest.raises(UnknownNameError):
            parse_candidate("tan(phi)")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_candidate("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_candidate("r^2 )")

    def test_scientific_literals(self):
        assert parse_candidate("1.5e-3") == Lit(1.5e-3)


class TestEvaluation:
    def test_born_at_unit_modulus(self):
        tree = parse_candidate("r^2")
        assert eval_expr(tree, 0.6 + 0.8j) == pytest.approx(1.0)

    def test_born_at_half(self):
        assert eval_expr(parse_candidate("r^2"), 0.5) == pytest.approx(0.25)

    def test_real_part_of_imaginary(self):
        z = 0.3 * complex(math.cos(math.pi / 2), math.sin(math.pi / 2))
        assert abs(eval_expr(parse_candidate("re"), z)) <= 1e-15

    def test_phi_at_zero_is_zero(self):
        assert eval_expr(parse_candidate("phi"), 0.0) == 0.0

    def test_constants(self):
        assert eval_expr(parse_candidate("pi"), 0.1) == math.pi
        assert eval_expr(parse_candidate("ln(e)"), 0.1) == pytest.approx(1.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="^division by zero$"):
            eval_expr(parse_candidate("1/r"), 0.0)

    def test_ln_of_nonpositive(self):
        with pytest.raises(EvalError, match=r"^ln of non-positive value 0\.0$"):
            eval_expr(parse_candidate("ln(r)"), 0.0)

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvalError,
                           match=r"^negative base -2\.0 with non-integer exponent 0\.5$"):
            eval_expr(parse_candidate("(0 - 2)^0.5"), 0.1)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError, match="^zero raised to a negative power$"):
            eval_expr(parse_candidate("r^(0-1)"), 0.0)

    PERIODIC_OF_INFINITY = {"sin(1e999)": "sin of inf", "cos(0-1e999)": "cos of -inf",
                            "sin(1e999*r)": "sin of inf"}

    @pytest.mark.parametrize("source", sorted(PERIODIC_OF_INFINITY))
    def test_periodic_of_infinity(self, source):
        with pytest.raises(EvalError, match=f"^{self.PERIODIC_OF_INFINITY[source]}$"):
            eval_expr(parse_candidate(source), 0.5)

    def test_negative_base_nan_exponent(self):
        with pytest.raises(EvalError,
                           match=r"^negative base -1\.0 with non-integer exponent nan$"):
            eval_expr(parse_candidate("(0-1)^(1e999-1e999)"), 0.1)

    def test_exp_overflow(self):
        with pytest.raises(EvalError, match=r"^exp overflow at 1000\.0$"):
            eval_expr(parse_candidate("exp(1000*r)"), 1.0)

    def test_pow_overflow(self):
        with pytest.raises(EvalError, match="^math range error$"):
            eval_expr(parse_candidate("10^(400*r)"), 1.0)

    def test_bits_of_the_compiled_tree(self):
        # numpy's power of two 0-d operands gave 0.12233720517668391 here, the
        # compiled tree over an array of overlaps 0.1223372051766839
        tree = parse_candidate("8.174128210267376^(0 - r)")
        assert eval_expr(tree, 1.0) == compile_expr(tree)([1.0, 0.5])[0]

    def test_non_finite_value_is_returned(self):
        assert eval_expr(parse_candidate("1e999*r"), 0.5) == math.inf
        assert math.isnan(eval_expr(parse_candidate("1e999 - 1e999"), 0.5))

    def test_purity_bit_identical(self):
        tree = parse_candidate("r^2 + 0.1*sin(phi) - exp(im)/3")
        z = 0.21 + 0.43j
        a = eval_expr(tree, z)
        b = eval_expr(tree, z)
        assert struct.pack("d", a) == struct.pack("d", b)


FIXTURE_EXPRESSIONS = [
    "r^2",
    "r",
    "r^4",
    "r^2 + 0.05",
    "r^2*(1 + 0.1*sin(phi))",
    "-r^2 + 1",
    "abs(im) + sqrt(r)",
    "r^2^3",
    "(r^2)^3",
    "r^-1 + 2",
    "cos(phi)*exp(0 - r)",
    "1.5e-3 + pi/4",
    "1e310 - r",
]


@pytest.mark.parametrize("source", FIXTURE_EXPRESSIONS)
def test_pretty_round_trip(source):
    tree = parse_candidate(source)
    assert parse_candidate(pretty(tree)) == tree


NESTED = {  # each shape, nested the given number of levels deep
    "parentheses": lambda levels: "(" * levels + "r" + ")" * levels,
    "calls": lambda levels: "sqrt(" * levels + "r" + ")" * levels,
    "unary-minus": lambda levels: "-" * levels + "r",
    "powers": lambda levels: "^".join(["r"] * (levels + 1)),
}


class TestBounds:
    """MAX_NESTING bounds the parser's recursion, and with MAX_TOKENS the
    depth of the tree that compile_expr, eval_expr and pretty recurse on,
    so what parses does not depend on the caller's stack."""

    @staticmethod
    def evaluates(source):
        tree = parse_candidate(source)
        z = 0.6 + 0.3j
        compiled = compile_expr(tree)(np.array([z]))[0]
        assert eval_expr(tree, z) == compiled
        assert compiled == pytest.approx(reference.eval_expr(tree, z), rel=1e-12)
        assert pretty(parse_candidate(pretty(tree))) == pretty(tree)

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_nesting_at_the_bound_evaluates(self, shape):
        self.evaluates(NESTED[shape](MAX_NESTING))

    def test_deepest_tree_at_the_bounds_evaluates(self):
        # MAX_TOKENS tokens: the minus signs, then a chain of 451 terms, for a
        # tree of 550 levels, a chain's left operand one level below the chain
        chain = (MAX_TOKENS - MAX_NESTING) // 2
        self.evaluates("-" * (MAX_NESTING - 1) + "r" + "+r" * chain)

    def test_deepest_tree_compares_hashes_and_prints(self):
        # the 1,000-token candidate of 550 levels: the dataclass-generated
        # __eq__, __hash__ and __repr__ each raised RecursionError on it
        source = "-" * 99 + "r" + "+r" * 450
        a, b = parse_candidate(source), parse_candidate(source)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert repr(a).startswith("Bin(op='+', left=Bin(op='+', left=")
        assert repr(a).endswith("Var(name='r')" + ")" * 99 + ", right=Var(name='r'))" * 450)
        deepest_leaf_differs = parse_candidate("-" * 99 + "im" + "+r" * 450)
        assert a != deepest_leaf_differs and deepest_leaf_differs != a
        assert len({a, b, deepest_leaf_differs}) == 2

    def test_nodes_compare_by_structure(self):
        tree = parse_candidate("-r^2 + 0.5*sin(phi)")
        assert repr(tree) == (
            "Bin(op='+', left=Neg(arg=Bin(op='^', left=Var(name='r'), right=Lit(value=2.0))), "
            "right=Bin(op='*', left=Lit(value=0.5), right=Call(func='sin', arg=Var(name='phi'))))"
        )
        assert Lit(1.0) != Var("r") and Var("r") != Const("r") and Lit(2.0) != 2.0
        assert Bin("+", Var("r"), Lit(1.0)) != Bin("+", Lit(1.0), Var("r"))
        assert hash(Call("sin", Var("r"))) == hash(Call("sin", Var("r")))

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_nesting_past_the_bound_refused(self, shape):
        with pytest.raises(ParseError, match=f"expected at most {MAX_NESTING} levels of nesting"):
            parse_candidate(NESTED[shape](MAX_NESTING + 1))

    def test_tokens_past_the_bound_refused(self):
        parse_candidate("-" + "+".join(["r"] * (MAX_TOKENS // 2)))
        refused = f"offset {MAX_TOKENS}: expected at most {MAX_TOKENS} tokens"
        with pytest.raises(ParseError, match=refused):
            parse_candidate("+".join(["r"] * (MAX_TOKENS // 2 + 1)))


def test_fuzz_never_crashes():
    # parser totality: random byte strings must either parse or raise a
    # ParseError family exception, never anything else
    rng = random.Random(12345)
    for _ in range(100_000):
        length = rng.randrange(0, 12)
        source = bytes(rng.randrange(256) for _ in range(length)).decode("latin-1")
        try:
            parse_candidate(source)
        except (ParseError, UnknownNameError):
            pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="r phi+-*/^().0123456789esincoabqtl", max_size=30))
def test_fuzz_structured(source):
    try:
        tree = parse_candidate(source)
    except (ParseError, UnknownNameError):
        return
    # anything that parses must round-trip and evaluate or raise EvalError
    assert parse_candidate(pretty(tree)) == tree
    try:
        eval_expr(tree, 0.3 + 0.2j)
    except EvalError:
        pass


class TestCompiled:
    @pytest.mark.parametrize(
        "source, z",
        [
            ("1/r", 0.0),
            ("ln(r)", 0.0),
            ("sqrt(re)", -0.5),
            ("r^(0-1)", 0.0),
            ("(0-2)^0.5", 0.1),
            ("(0-1)^1e999", 0.1),
            ("exp(1000*r)", 1.0),
            ("10^(400*r)", 1.0),
            ("sin(1e999*r)", 0.5),
            ("sin(1e999)", 0.5),
            ("cos(0-1e999)", 0.5),
            ("(0-1)^(1e999-1e999)", 0.1),
            ("1e999*r", 0.5),
        ],
    )
    def test_undefined_is_inf(self, source, z):
        tree = parse_candidate(source)
        assert compile_expr(tree)([z, 0.5 + 0.5j])[0] == math.inf
        for scalar_path in (eval_expr, reference.eval_expr):
            scalar = CandidateDistribution(source, lambda z: scalar_path(tree, z))
            assert evaluate(scalar, [z])[0] == math.inf

    @pytest.mark.parametrize(
        "source", ["sin(1e999)", "cos(0-1e999)", "sin(1e999*r)", "(0-1)^(1e999-1e999)",
                   "(0-1)^(1e999*r - 1e999*r)", "(re - 1)^(ln(r) - ln(r))"],
    )
    def test_same_overlaps_undefined_as_eval_error(self, source):
        # eval_expr and the reference interpreter raise EvalError (no other
        # error) or give a non-finite value exactly where compile_expr gives inf
        zs = [0j, 0.5 + 0j, 0.3 + 0.4j, -1j, -0.6 + 0j]
        tree = parse_candidate(source)
        for scalar_path in (eval_expr, reference.eval_expr):
            undefined = []
            for z in zs:
                try:
                    undefined.append(not math.isfinite(scalar_path(tree, z)))
                except EvalError:
                    undefined.append(True)
            assert np.isinf(compile_expr(tree)(zs)).tolist() == undefined

    def test_constant_expression_fills_the_shape(self):
        values = compile_expr(parse_candidate("pi/4"))(np.zeros((2, 3)))
        assert values.shape == (2, 3)
        assert (values == math.pi / 4).all()

    def test_phi_at_zero_and_negative_zero(self):
        values = compile_expr(parse_candidate("phi"))([0j, complex(-0.0, -0.0), -1 + 0j])
        assert values.tolist() == [0.0, 0.0, math.pi]

    def test_r_is_bit_identical_to_abs(self):
        rng = np.random.default_rng(4)
        zs = rng.uniform(-0.7, 0.7, 1000) + 1j * rng.uniform(-0.7, 0.7, 1000)
        r = compile_expr(parse_candidate("r"))(zs)
        assert r.tolist() == [abs(complex(z)) for z in zs]

    def test_input_array_not_written(self):
        zs = np.array([0.0, 0.5 + 0j])
        compile_expr(parse_candidate("1/re"))(zs)
        assert zs.tolist() == [0.0, 0.5]


_LEAVES = st.one_of(
    st.sampled_from([Var(v) for v in VARIABLES] + [Const(c) for c in CONSTANTS]),
    st.builds(Lit, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3, 1e300])),
    st.builds(Lit, st.floats(-10.0, 10.0)),
)
_EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
        st.builds(Bin, st.sampled_from("+-*/^"), sub, sub),
    ),
    max_leaves=6,
)
_OVERLAPS = st.lists(
    st.one_of(
        st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, -0.5j]),
        st.builds(
            lambda r, a: r * complex(math.cos(a), math.sin(a)),
            st.floats(0.0, 1.0),
            st.floats(0.0, 2 * math.pi),
        ),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_EXPRESSIONS, _OVERLAPS)
def test_compiled_agrees_with_scalar_path(tree, zs):
    # against the reference interpreter: the same undefined overlaps, and
    # values equal up to the last bits of numpy's vs math's functions
    scalar = evaluate(CandidateDistribution("t", lambda z: reference.eval_expr(tree, z)), zs)
    compiled = evaluate(CandidateDistribution("t", None, compile_expr(tree)), zs)
    assert np.isinf(compiled).tolist() == np.isinf(scalar).tolist()
    defined = np.isfinite(scalar)
    assert np.allclose(compiled[defined], scalar[defined], rtol=1e-9, atol=1e-9)


_NUMBER = re.compile(r"-?(?:\binf\b|\bnan\b|\d+(?:\.\d*)?(?:e[+-]?\d+)?)")


def _outcome(scalar_path, tree, z):
    """(value, None), or (None, (reason with each number as "#", its numbers))."""
    try:
        return scalar_path(tree, z), None
    except EvalError as exc:
        reason = str(exc)
        return None, (_NUMBER.sub("#", reason), [float(x) for x in _NUMBER.findall(reason)])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_EXPRESSIONS, _OVERLAPS)
def test_eval_expr_is_the_compiled_tree_at_one_overlap(tree, zs):
    # eval_expr gives compile_expr's bits where it returns a finite value,
    # and raises where the reference interpreter raises, with its reason
    compiled = compile_expr(tree)(zs)
    for z, bits in zip(zs, compiled.tolist()):
        value, reason = _outcome(eval_expr, tree, z)
        if value is not None and math.isfinite(value):
            assert struct.pack("d", value) == struct.pack("d", bits)
        else:
            assert bits == math.inf
        _, expected = _outcome(reference.eval_expr, tree, z)
        assert (reason is None) == (expected is None)
        if expected is not None:
            assert reason[0] == expected[0]
            assert np.allclose(reason[1], expected[1], rtol=1e-9, atol=0, equal_nan=True)
