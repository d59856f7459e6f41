"""Deterministic token counting (BPE approximation).

Commercial tokenisers are unavailable offline; this approximation follows
the usual rule of thumb (one token per short word or punctuation mark,
long words split).  A text is cut into pieces, and each piece costs

* a maximal run of ASCII letters and digits (``[A-Za-z0-9]+``):
  ``ceil(len / 6)`` tokens;
* any other non-whitespace character (punctuation, symbols, and every
  non-ASCII letter or digit, which also ends an ASCII run): 1 token;
* whitespace, exactly the characters :meth:`str.isspace` accepts: nothing.

The count is exact under this rule for every string, not merely
consistent between calls: every usage, cost and cache-savings figure is a
sum of these counts.  Only the rule's distance from a real tokeniser is
approximate, and relative comparisons are unaffected by it.
"""

from __future__ import annotations

__all__ = ["count_tokens"]

#: Characters of a word covered by one BPE token, on average.
_CHARS_PER_TOKEN = 6

# Character classes written by the translation below: one letter per class
# keeps ``str.translate`` on its ASCII fast path.
_RUN, _SPACE, _OTHER = "a", " ", "x"


def _char_class(code: int) -> str:
    char = chr(code)
    if char.isascii() and char.isalnum():
        return _RUN
    return _SPACE if char.isspace() else _OTHER


class _CharClasses(dict):
    """Code point -> class letter: stored for ASCII, computed on lookup beyond."""

    def __missing__(self, code: int) -> str:
        return _char_class(code)


_CLASS_OF = _CharClasses({code: _char_class(code) for code in range(128)})

# Cutting each full 6-character chunk of a run to five run letters and a space
# keeps the length and makes every chunk, full or the shorter rest of its run,
# start right after a non-run class: a run of length n then has ceil(n / 6)
# chunk starts.
_FULL_CHUNK = _RUN * _CHARS_PER_TOKEN
_CUT_CHUNK = _RUN * (_CHARS_PER_TOKEN - 1) + _SPACE


def count_tokens(text: str) -> int:
    """Approximate LLM token count of a text snippet.

    Exactly the module's piece rule: each maximal run of ASCII letters and
    digits costs ``ceil(len / 6)``, each other non-whitespace character
    costs 1 and whitespace (:meth:`str.isspace`) costs nothing.  The text
    is mapped to one class letter per character, and a few C-level string
    passes over that class string count the pieces, with no Python loop.

    >>> count_tokens("Do the two entities match?")
    7
    >>> count_tokens("internationalisation, 2024")
    6
    """
    classes = text.translate(_CLASS_OF)
    chunks = classes.replace(_FULL_CHUNK, _CUT_CHUNK)
    starts = (
        chunks.count(_SPACE + _RUN) + chunks.count(_OTHER + _RUN) + chunks.startswith(_RUN)
    )
    return classes.count(_OTHER) + starts
