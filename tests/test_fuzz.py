"""Seeded fuzz test of the exit-code contract of `qdc normalize`.

Every input either exits 0 with a normal form that parses back to itself, or
exits 2 with exactly one `error: ` line; no input may escape as a traceback
(exit 1).  Integer tokens stay small: a non-scalar power is expanded as an
unreduced product, so a sum raised to a large power is slow by design.
"""

import random
import time

import pytest

from qdc.cli import main

_INTS = ("0", "1", "2", "3")
_OPS = ("^", "-", "/", "*", "+", "(", ")")
_SPACE = (" ", "  ", "\t")
_JUNK = (".", "**", "$")


def _normalize(capsys, presentation, text):
    # `--` ends the options, as on a command line, so text may start with '-'
    code = main(["normalize", "--presentation", presentation, "--", text])
    out, err = capsys.readouterr()
    return code, out, err


def _check_contract(capsys, presentation, text):
    code, out, err = _normalize(capsys, presentation, text)
    assert code in (0, 2), (text, code, err)
    if code == 2:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), (text, err)
    else:
        assert err == "", (text, err)
        printed = out.strip()
        assert _normalize(capsys, presentation, printed) == (0, out, ""), (text, printed)
    return code, out, err


def _random_input(rng, names):
    """Up to 12 tokens that mostly alternate operand and operator, with a
    random token (junk and whitespace included) in about one place in six."""
    tokens = []
    for _ in range(rng.randint(1, 12)):
        prev = tokens[-1] if tokens else "("
        if rng.random() < 0.17:
            pool = (*names, *_INTS, *_OPS, *_SPACE, *_JUNK)
        elif prev == "^":
            pool = (*_INTS, "-")
        elif prev in _OPS and prev != ")":
            pool = (*names, *_INTS, "(", "-")
        else:
            pool = ("*", "*", "+", "-", "^", "/", ")", " ")
        tokens.append(rng.choice(pool))
    return "".join(tokens)


def test_fuzz_normalize_exit_codes(cat, capsys, monkeypatch):
    monkeypatch.setenv("QDC_STEP_BUDGET", "200")
    rng = random.Random(20011990)
    codes = {0: 0, 2: 0}
    for presentation in ("Omega", "Omega_loc"):
        p = cat.presentation(presentation)
        names = [g.name for g in p.generators] + sorted(p.defined) + ["q"]
        for _ in range(200):
            code, _, _ = _check_contract(capsys, presentation, _random_input(rng, names))
            codes[code] += 1
    # the stream reaches both outcomes often enough to mean something
    assert min(codes.values()) >= 40, codes


@pytest.mark.parametrize("text, code, message", [
    ("2^20000*a", 2, "get_int_max_str_digits"),
    ("7^9999999*a", 2, "get_int_max_str_digits"),
    ("(7)^9999999*a", 2, "get_int_max_str_digits"),
    ("q^99999999", 0, None),
    ("0^-1", 2, "zero has no inverse"),
    ("d^1200*a", 2, "recursion limit"),
    pytest.param("(" * 1000 + "a" + ")" * 1000, 2, "recursion limit",
                 id="1000_nested_parentheses"),
])
def test_fuzz_fixed_cases(cat, capsys, monkeypatch, text, code, message):
    monkeypatch.delenv("QDC_STEP_BUDGET", raising=False)
    start = time.perf_counter()
    got, out, err = _check_contract(capsys, "Omega", text)
    assert got == code
    if message is not None:
        assert message in err
    assert time.perf_counter() - start < 1.0
    if code == 0:
        assert out.strip() == text
