"""Property test: `parse_sequence`'s np.loadtxt fast path against the line walk.

Sequence text is built from tokens in `repr`, `.9g` and exponent forms, the
tokens only some readers take (`nan`, `inf`, `1e400`, `1_0`, non-ASCII digits,
`0x10`), every character `str.split` treats as whitespace, blank lines and all
three line endings. For every text, `parse_sequence` and the line walk alone
must return byte-identical frames or raise a ParseError with the same message.
"""

import sys
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from han.data import _parse_lines, parse_sequence, read_lines
from han.errors import ParseError

# line breaks are drawn separately: inside a line they would end it
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\n\r"]
SPECIAL = ["nan", "-nan", "inf", "-inf", "+Infinity", "infinity", "1e400", "-1e39", "1e38", "1_0", "-1_000.5",
           "١٢", "３.5", "0x10", "1d5", "1e", ".", "+-1", "0", "-0", ".5", "5."]

finite = st.floats(min_value=-3.4e38, max_value=3.4e38, allow_nan=False)


@st.composite
def token(draw) -> str:
    kind = draw(st.sampled_from(["repr", "g9", "exp", "special"]))
    if kind == "special":
        return draw(st.sampled_from(SPECIAL))
    value = draw(finite)
    text = {"repr": repr, "g9": lambda v: format(v, ".9g"), "exp": lambda v: format(v, ".6e")}[kind](value)
    return draw(st.sampled_from(["", "+"])) + text if not text.startswith("-") else text


@st.composite
def sequence_text(draw, want: int) -> str:
    space = st.sampled_from(WHITESPACE)
    sep = st.text(space, min_size=1, max_size=3)
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()) and draw(st.booleans()):  # a blank line
            lines.append(draw(st.text(space, max_size=3)))
            continue
        count = want if draw(st.integers(0, 9)) else draw(st.integers(1, want + 1))
        # special tokens are rarer than plain ones, so most texts take the fast path
        tokens = [draw(token()) if draw(st.integers(0, 19)) == 0 else format(draw(finite), ".9g")
                  for _ in range(count)]
        lead, trail = draw(st.text(space, max_size=2)), draw(st.text(space, max_size=2))
        lines.append(lead + "".join(t + draw(sep) for t in tokens[:-1]) + tokens[-1] + trail)
    ending = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ending) for line in lines)


def outcome(parse):
    try:
        seq = parse()
    except ParseError as exc:
        return "error", str(exc)
    return "frames", seq.frames.shape, seq.frames.tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(joints=st.integers(1, 3), data=st.data())
def test_fast_path_matches_line_walk(tmp_path, joints, data):
    path = tmp_path / "seq.txt"
    path.write_bytes(data.draw(sequence_text(3 * joints)).encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = outcome(lambda: parse_sequence(str(path), joints))
    walked = outcome(lambda: _parse_lines(str(path), read_lines(str(path), "sequence file"), joints, 0))
    assert fast == walked
