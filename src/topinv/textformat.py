"""The line layout and integer tokens shared by the complex and Gram file
formats.  A leaf module: it imports only re, so either parser loads it
without the other's code."""

from __future__ import annotations

import re

INT = re.compile(r"-?[0-9]+")
# a line of ASCII integers parted by spaces or tabs: a simplex, or a Gram
# row with no p/q entry
INT_ROW = re.compile(r"-?[0-9]+(?:[ \t]+-?[0-9]+)*")


def content_lines(text: str) -> list[str]:
    """The nonblank lines of an input file, '#' comments and the spaces
    and tabs around them stripped.  Lines end only at \n, \r, \v and \f
    (an empty line between \r and \n is dropped), and tokens are parted
    only by spaces and tabs, so any other separator stays inside a token
    and fails the file's ASCII token grammar."""
    lines = []
    for raw in text.replace("\r", "\n").replace("\v", "\n").replace(
            "\f", "\n").split("\n"):
        line = raw.split("#", 1)[0].strip(" \t")
        if line:
            lines.append(line)
    return lines
