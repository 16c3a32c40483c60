"""The line layout and integer tokens shared by the complex and Gram file
formats.  A leaf module: it imports only re and sys, so either parser
loads it without the other's code."""

from __future__ import annotations

import re
import sys

INT = re.compile(r"-?[0-9]+")
# a line of ASCII integers parted by spaces or tabs: a simplex, or a Gram
# row with no p/q entry
INT_ROW = re.compile(r"-?[0-9]+(?:[ \t]+-?[0-9]+)*")


def content_lines(text: str, error: type[ValueError], head: str,
                  body: str) -> list[str]:
    """The nonblank lines of an input file, '#' comments and the spaces
    and tabs around them stripped.  Lines end only at \n, \r, \v and \f
    (an empty line between \r and \n is dropped), and tokens are parted
    only by spaces and tabs, so any other separator stays inside a token
    and fails the file's ASCII token grammar.  A run of more digits than
    int() reads (its limit bounds the cost of decimal conversion) raises
    error, named head on the first line and body after, never echoed."""
    text = text.replace("\r", "\n").replace("\v", "\n").replace("\f", "\n")
    lines = [line for raw in text.split("\n")
             if (line := raw.split("#", 1)[0].strip(" \t"))]
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    run = limit and max(map(len, lines), default=0) > limit and re.search(
        rf"(?<![0-9])[0-9]{{{limit + 1}}}", "\n".join(lines))
    if run:
        what = head if run.start() < len(lines[0]) else body
        raise error(f"{what} has more than {limit} digits")
    return lines
