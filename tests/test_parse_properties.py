"""Property tests of the value grammar: format_quadrat and parse_quadrat
round-trip, and no generated gamma text makes the CLI report an internal
fault.  Derandomized, so every run draws the same examples."""

import io
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tilecohom.cli import main
from tilecohom.exactfield import QuadRat, format_quadrat, parse_quadrat

PINNED = settings(derandomize=True, database=None, deadline=None, max_examples=300)

rationals = st.one_of(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)

#: Pieces of the grammar and of near misses: every sign, root spelling,
#: separator and character that parse_quadrat reads or refuses.
_TOKENS = ("0", "1", "2", "3", "7", "12", "10", "/", "*", "+", "-", " ", ".",
           "√3", "sqrt3", "s", "√", "sqrt", "x", "٣", "(", ")")


def _term(sign, coef, root, den):
    body = coef + (root + den if root else "")
    return sign + body


terms = st.builds(
    _term,
    st.sampled_from(("", "+", "-", "--", "+-")),
    st.sampled_from(("", "0", "1", "3", "12", "1/2", "5/12", "7/0", "1*", "2*")),
    st.sampled_from(("", "√3", "sqrt3", "s")),
    st.sampled_from(("", "/3", "/12", "/0")),
)

components = st.one_of(
    st.lists(terms, min_size=1, max_size=3).map("".join),
    st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join),
    st.builds(lambda a, b: format_quadrat(QuadRat(a, b)), rationals, rationals),
)

gamma_texts = st.one_of(
    st.builds(lambda a, b: f"{a},{b}", components, components),
    st.lists(components, max_size=3).map(",".join),
)


@PINNED
@given(rationals, rationals)
def test_format_then_parse_is_the_identity(p, q):
    value = QuadRat(p, q)
    assert parse_quadrat(format_quadrat(value)) == value


@PINNED
@given(gamma_texts)
def test_l1_exits_0_or_2_and_never_3(text):
    out, err = io.StringIO(), io.StringIO()
    code = main(["l1", f"--gamma={text}"], out, err)
    assert code in (0, 2), (text, code, err.getvalue())
    assert (code == 0) == (err.getvalue() == "")
