import textwrap
from fractions import Fraction

import pytest
from hypothesis import given

import ncg.profiles
from conftest import alphas, strategy_profiles
from ncg.errors import (BadHeader, BadRational, BadVertexIndex, DuplicateBuy,
                        SizeGuard)
from ncg.game import MAX_AGENTS, GameConfig, StrategyProfile
from ncg.profiles import parse_profile, serialize_profile


def test_basic_parse():
    cfg, profile = parse_profile("ncg v1\nn 3\nalpha 5\nbuy 0 1\nbuy 2 1\n")
    assert cfg == GameConfig(3, Fraction(5))
    assert profile == StrategyProfile.from_sets([{1}, set(), {1}])


def test_rational_alpha():
    cfg, _ = parse_profile("ncg v1\nn 2\nalpha 19/2\nbuy 0 1\n")
    assert cfg.alpha == Fraction(19, 2)


def test_double_purchase_encoding():
    _, profile = parse_profile("ncg v1\nn 2\nalpha 1\nbuy 0 1\nbuy 1 0\n")
    assert profile.buys == ((1,), (0,))


def test_blank_lines_ignored():
    cfg, profile = parse_profile("ncg v1\n\nn 2\nalpha 1\n\nbuy 0 1\n\n")
    assert cfg.n == 2 and profile.buys == ((1,), ())


@pytest.mark.parametrize("text,exc,line", [
    ("nope v1\nn 2\nalpha 1\n", BadHeader, 1),
    ("ncg v1\nm 2\nalpha 1\n", BadHeader, 2),
    ("ncg v1\nn two\nalpha 1\n", BadHeader, 2),
    ("ncg v1\nn 0\nalpha 1\n", BadHeader, 2),
    ("ncg v1\nn 2\nalpha zero\n", BadRational, 3),
    ("ncg v1\nn 2\nalpha 1/0\n", BadRational, 3),
    ("ncg v1\nn 2\nalpha -3\n", BadRational, 3),
    ("ncg v1\nn 2\nalpha 1e400\n", BadRational, 3),
    ("ncg v1\nn 2\nalpha 1e-400\n", BadRational, 3),
    ("ncg v1\nn 2\nalpha 1\nbuy 0 0\n", BadVertexIndex, 4),
    ("ncg v1\nn 2\nalpha 1\nbuy 0 5\n", BadVertexIndex, 4),
    ("ncg v1\nn 2\nalpha 1\nbuy 0 x\n", BadVertexIndex, 4),
    ("ncg v1\nn 2\nalpha 1\nbuy 0 1\nbuy 0 1\n", DuplicateBuy, 5),
    ("ncg v1\nn 2\nalpha 1\nsell 0 1\n", BadHeader, 4),
])
def test_errors_with_line_numbers(text, exc, line):
    with pytest.raises(exc) as info:
        parse_profile(text)
    assert info.value.line == line


@given(strategy_profiles(), alphas)
def test_round_trip(profile, alpha):
    cfg = GameConfig(profile.n, alpha)
    text = serialize_profile(cfg, profile)
    cfg2, profile2 = parse_profile(text)
    assert cfg2 == cfg and profile2 == profile
    assert serialize_profile(cfg2, profile2) == text


def test_agent_count_bound_before_buy_lines():
    # The buy line is out of range for any n, so only a bound checked before
    # the purchase sets are read can raise SizeGuard here.
    with pytest.raises(SizeGuard):
        parse_profile(f"ncg v1\nn {MAX_AGENTS + 1}\nalpha 1\nbuy 0 {MAX_AGENTS + 5}\n")


def test_module_docstring_example_parses():
    # The example block that follows "::" in the module docstring.
    block = ncg.profiles.__doc__.split("::", 1)[1].split("\n\n")[1]
    cfg, profile = parse_profile(textwrap.dedent(block))
    assert cfg == GameConfig(3, Fraction(19, 2))
    assert profile == StrategyProfile.from_sets([{1}, set(), {1}])
