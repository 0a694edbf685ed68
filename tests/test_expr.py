import random
from fractions import Fraction

import pytest

from capelli.algebra import DELTA, F, THETA, AElement, a_sub, from_word
from capelli.bfunction import presentation_for
from capelli.catalog import instantiate
from capelli.expr import (MAX_NESTING, BinOp, ExprError, Pow, RatLit, Sym,
                          element_to_expr, eval_expr, fmt_expr, parse_expr)
from capelli.poly import UniPoly


@pytest.fixture(scope="module")
def pres():
    return presentation_for(instantiate(4, 2))


class TestParse:
    def test_commutator_expression(self):
        tree = parse_expr("theta*f - f*theta")
        assert tree == BinOp("-", BinOp("*", Sym("theta"), Sym("f")),
                             BinOp("*", Sym("f"), Sym("theta")))

    def test_power(self):
        assert parse_expr("delta*f^2") == BinOp("*", Sym("delta"), Pow(Sym("f"), 2))

    def test_parenthesized_power_and_scalar(self):
        tree = parse_expr("(f*delta)^2 + 3/2")
        assert tree == BinOp("+", Pow(BinOp("*", Sym("f"), Sym("delta")), 2),
                             RatLit(Fraction(3, 2)))

    def test_whitespace_insensitive(self):
        assert parse_expr(" theta * f\t-\nf*theta ") == parse_expr("theta*f-f*theta")

    def test_left_associativity(self):
        assert parse_expr("f - theta - delta") == \
            BinOp("-", BinOp("-", Sym("f"), Sym("theta")), Sym("delta"))

    def test_rational_atom(self):
        assert parse_expr("7/3") == RatLit(Fraction(7, 3))
        assert parse_expr("12") == RatLit(Fraction(12))


class TestParseErrors:
    @pytest.mark.parametrize("text,pos", [
        ("f + + 2", 4),
        ("f *", 3),
        ("(f + theta", 10),
        ("f)", 1),
        pytest.param("(" * (MAX_NESTING + 1) + "f" + ")" * (MAX_NESTING + 1), MAX_NESTING,
                     id="nested-too-deep"),
    ])
    def test_syntax_error_position(self, text, pos):
        with pytest.raises(ExprError) as err:
            parse_expr(text)
        assert err.value.pos == pos

    def test_nesting_up_to_the_limit(self):
        assert parse_expr("(" * MAX_NESTING + "f" + ")" * MAX_NESTING) == Sym("f")

    def test_unknown_name(self):
        with pytest.raises(ExprError):
            parse_expr("f * g")

    def test_superscript_digit_is_not_a_numeral(self):
        # '²' passes str.isdigit but int() rejects it
        with pytest.raises(ExprError) as err:
            parse_expr("2²")
        assert err.value.pos == 1
        assert "unexpected character '²'" in str(err.value)

    def test_non_ascii_decimal_digit_is_a_numeral(self):
        assert parse_expr("٣*f") == BinOp("*", RatLit(Fraction(3)), Sym("f"))

    def test_zero_denominator(self):
        with pytest.raises(ExprError):
            parse_expr("3/0")

    def test_fractional_exponent(self):
        with pytest.raises(ExprError):
            parse_expr("f^1/2" + "")
        with pytest.raises(ExprError):
            parse_expr("f^(2)")

    @pytest.mark.parametrize("text,pos", [
        ("9" * 5000, 0),
        ("f^" + "1" * 5000, 2),
        ("theta + 1/" + "3" * 5000, 8),
    ], ids=["integer", "exponent", "denominator"])
    def test_numeral_past_the_digit_limit(self, text, pos):
        with pytest.raises(ExprError) as err:
            parse_expr(text)
        assert err.value.pos == pos
        assert "too long" in str(err.value)

    def test_exponent_overflow(self):
        with pytest.raises(ExprError) as err:
            parse_expr("f^10000000")
        assert "overflow" in str(err.value)


def random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return Sym(rng.choice(["f", "theta", "delta"]))
        return RatLit(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
    roll = rng.random()
    if roll < 0.45:
        return BinOp(rng.choice(["+", "-"]), random_ast(rng, depth - 1),
                     random_ast(rng, depth - 1))
    if roll < 0.85:
        return BinOp("*", random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    return Pow(random_ast(rng, depth - 1), rng.randint(0, 5))


class TestRoundTrip:
    def test_spec_examples(self):
        for text in ["theta*f - f*theta", "delta*f^2", "(f*delta)^2 + 3/2"]:
            tree = parse_expr(text)
            assert parse_expr(fmt_expr(tree)) == tree

    def test_random_asts(self):
        rng = random.Random(20240809)
        for _ in range(500):
            tree = random_ast(rng, 4)
            assert parse_expr(fmt_expr(tree)) == tree


def same_tree(a, b):
    """a == b on syntax trees by an explicit stack (dataclass == recurses once per level)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, BinOp):
            if x.op != y.op:
                return False
            stack += [(x.left, y.left), (x.right, y.right)]
        elif isinstance(x, Pow):
            if x.exponent != y.exponent:
                return False
            stack.append((x.base, y.base))
        elif x != y:
            return False
    return True


def nesting(text):
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def _wrap_once(kind, inner, x, y, k):
    """inner one parenthesis level deeper, as fmt_expr prints it.

    inner is the left operand of a '+' or '-', where no node is wrapped;
    that sum is then a power's base or the operand of a tighter binding.
    """
    op = "+-"[k % 2]
    if kind == "pow":
        return Pow(BinOp(op, inner, x), k % 6)
    if kind == "mul-right":
        return BinOp("*", y, BinOp(op, inner, x))
    if kind == "sub-right":
        return BinOp("-", y, BinOp(op, inner, x))
    return BinOp("*", BinOp(op, inner, x), y)


class TestRoundTripProperty:
    """parse_expr(fmt_expr(t)) == t on trees the grammar can produce.

    Sym, nonnegative RatLit and Pow with exponent 0-5 make small trees of
    any shape (as random_ast does); these are the operands of left-deep
    '+'/'-'/'*' chains of 1,000 or more operators.  Atoms are wrapped in
    parenthesis nesting up to MAX_NESTING.
    """

    @staticmethod
    def strategies():
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        atoms = st.one_of(
            st.sampled_from(["f", "theta", "delta"]).map(Sym),
            st.builds(Fraction, st.integers(0, 10 ** 6), st.integers(1, 10 ** 6)).map(RatLit))
        small = st.recursive(atoms, lambda t: st.one_of(
            st.builds(BinOp, st.sampled_from("+-*"), t, t),
            st.builds(Pow, t, st.integers(0, 5))), max_leaves=12)
        return hypothesis, st, atoms, small

    def test_long_left_deep_chains(self):
        hypothesis, st, _, small = self.strategies()

        @st.composite
        def chains(draw):
            # runs of one operator each, so that only a switch from a sum to
            # a product adds a parenthesis
            runs = draw(st.lists(st.tuples(st.sampled_from("+-*"), st.integers(1, 300)),
                                 min_size=1, max_size=12))
            operands = draw(st.lists(small, min_size=1, max_size=8))
            short = 1000 - sum(n for _, n in runs)
            if short > 0:
                runs[-1] = (runs[-1][0], runs[-1][1] + short)
            node, i = operands[0], 1
            for op, n in runs:
                for _ in range(n):
                    node = BinOp(op, node, operands[i % len(operands)])
                    i += 1
            return node

        @hypothesis.settings(max_examples=40)
        @hypothesis.given(chains())
        def round_trip(tree):
            text = fmt_expr(tree)
            assert nesting(text) <= MAX_NESTING
            assert same_tree(parse_expr(text), tree)

        round_trip()

    def test_nesting_up_to_the_limit(self):
        hypothesis, st, atoms, _ = self.strategies()
        kinds = st.sampled_from(["pow", "mul-right", "sub-right", "mul-left"])

        @st.composite
        def nested(draw):
            depth = draw(st.one_of(st.just(MAX_NESTING), st.integers(0, MAX_NESTING)))
            layers = draw(st.lists(st.tuples(kinds, atoms, atoms, st.integers(0, 11)),
                                   min_size=1, max_size=8))
            node = draw(atoms)
            for i in range(depth):
                kind, x, y, k = layers[i % len(layers)]
                node = _wrap_once(kind, node, x, y, k)
            return depth, node

        @hypothesis.settings(max_examples=60)
        @hypothesis.given(nested())
        def round_trip(case):
            depth, tree = case
            text = fmt_expr(tree)
            assert nesting(text) == depth
            assert same_tree(parse_expr(text), tree)

        round_trip()

    @pytest.mark.parametrize("tree", [
        RatLit(Fraction(-1, 2)),
        RatLit(Fraction(-3)),
        BinOp("+", Sym("f"), RatLit(Fraction(-3))),
        Pow(BinOp("*", RatLit(Fraction(-1, 5)), Sym("theta")), 2),
    ], ids=["half", "integer", "operand", "inside-power"])
    def test_negative_literal_has_no_source_form(self, tree):
        # the grammar has no unary minus: printed, "-1/2" would not parse
        with pytest.raises(ValueError, match="negative literal"):
            fmt_expr(tree)


class TestEval:
    def test_commutator(self, pres):
        tree = parse_expr("theta*f - f*theta")
        got = eval_expr(tree, pres)
        expected = a_sub(from_word(pres, [THETA, F]), from_word(pres, [F, THETA]))
        assert got == expected

    def test_word_with_power(self, pres):
        assert eval_expr(parse_expr("delta*f^2"), pres) == from_word(pres, [DELTA, F, F])

    def test_scalar(self, pres):
        assert eval_expr(parse_expr("3/2"), pres) == AElement.scalar(pres, Fraction(3, 2))

    def test_zero_power(self, pres):
        assert eval_expr(parse_expr("delta^0"), pres) == AElement.scalar(pres, 1)


class TestElementPrinter:
    def test_contraction(self, pres):
        elt = from_word(pres, [DELTA, F])
        text = fmt_expr(element_to_expr(elt))
        assert text == "1/4*theta^2 + 3/2*theta + 2"
        # printing stays inside the shared grammar
        assert eval_expr(parse_expr(text), pres) == elt

    def test_printer_round_trips_through_eval(self, pres):
        rng = random.Random(5)
        for _ in range(25):
            word = [rng.choice([F, THETA, DELTA]) for _ in range(rng.randint(1, 5))]
            elt = from_word(pres, word)
            again = eval_expr(parse_expr(fmt_expr(element_to_expr(elt))), pres)
            assert again == elt

    def test_zero(self, pres):
        assert fmt_expr(element_to_expr(AElement.zero(pres))) == "0"

    def test_leading_negative_uses_explicit_zero(self, pres):
        elt = AElement.scalar(pres, Fraction(-3, 2))
        text = fmt_expr(element_to_expr(elt))
        assert text == "0 - 3/2"
        assert eval_expr(parse_expr(text), pres) == elt

    def test_long_element_prints_without_deep_recursion(self, pres):
        # 1,200 terms make a left-deep '+' chain; texts are compared, since
        # dataclass == on so deep a tree would recurse as well
        elt = AElement(pres, {0: UniPoly(THETA, [1] * 1200)})
        want = " + ".join([f"theta^{k}" for k in range(1199, 1, -1)] + ["theta", "1"])
        assert fmt_expr(element_to_expr(elt)) == want
