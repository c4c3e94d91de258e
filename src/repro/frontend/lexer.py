"""Lexer for the CUDA-C subset accepted by the frontend.

The token stream intentionally models only what the Rodinia-style kernels and
their host drivers need: identifiers, integer/float literals, the usual C
operators, CUDA qualifiers (``__global__``, ``__device__``, ``__shared__``),
the triple-chevron launch syntax and ``#pragma omp`` lines (which are turned
into dedicated PRAGMA tokens rather than being skipped, so the OpenMP
reference codes can be compiled through the same frontend).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List


KEYWORDS = {
    "void", "int", "unsigned", "long", "float", "double", "bool", "char", "size_t",
    "const", "if", "else", "for", "while", "do", "return", "struct", "extern",
    "__global__", "__device__", "__host__", "__shared__", "__restrict__", "static",
    "true", "false", "dim3",
}

MULTI_CHAR_OPERATORS = [
    "<<<", ">>>", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "++", "--", "<<", ">>", "->",
]

SINGLE_CHAR_OPERATORS = "+-*/%<>=!&|^~?:;,.(){}[]"

_HEX_DIGITS = "0123456789abcdefABCDEF"

#: the suffixes C gives an integer literal (``u`` and one of ``l`` / ``ll``,
#: either order, any case) and a floating one.
_INT_SUFFIX = re.compile(r"(?:[uU](?:ll|LL|[lL])?|(?:ll|LL|[lL])[uU]?)?")
_FLOAT_SUFFIXES = ("", "f", "F", "l", "L")


def int_value(text: str) -> int:
    """The value of an ``int`` token's text: hexadecimal after ``0x``,
    octal after a leading ``0`` (C's ``010`` is 8), else decimal."""
    if len(text) > 1 and text[0] == "0" and text[1].isdigit():
        return int(text, 8)
    return int(text, 0)


@dataclass
class Token:
    kind: str        # 'ident', 'int', 'float', 'string', 'op', 'keyword', 'pragma', 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class LexerError(SyntaxError):
    pass


class Lexer:
    """Converts source text into a list of tokens."""

    def __init__(self, source: str, filename: str = "<cuda>") -> None:
        self.source = source
        self.filename = filename
        self.position = 0
        self.line = 1
        self.column = 1

    # -- helpers --------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.source[index] if index < len(self.source) else ""

    def _next_in(self, chars: str, offset: int = 0) -> bool:
        """Whether the character ``offset`` ahead is one of ``chars`` (never
        past the end of the source, where :meth:`_peek` is ``""``)."""
        char = self._peek(offset)
        return char != "" and char in chars

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.position:self.position + count]
        for char in text:
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.position += count
        return text

    def _error(self, message: str, line: int = 0, column: int = 0) -> LexerError:
        """An error at ``line:column``, the current position by default."""
        return LexerError(f"{self.filename}:{line or self.line}:"
                          f"{column or self.column}: {message}")

    # -- main loop ---------------------------------------------------------------
    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while self.position < len(self.source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
                continue
            if char == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
                continue
            if char == "/" and self._peek(1) == "*":
                line, column = self.line, self.column
                self._advance(2)
                while self._peek() and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if not self._peek():
                    raise self._error("unterminated comment", line, column)
                self._advance(2)
                continue
            if char == "#":
                tokens.extend(self._lex_directive())
                continue
            if char.isalpha() or char == "_":
                tokens.append(self._lex_identifier())
                continue
            if char.isdigit() or (char == "." and self._peek(1).isdigit()):
                tokens.append(self._lex_number())
                continue
            if char == '"':
                tokens.append(self._lex_string())
                continue
            tokens.append(self._lex_operator())
        tokens.append(Token("eof", "", self.line, self.column))
        return tokens

    # -- token kinds ---------------------------------------------------------------
    def _lex_directive(self) -> List[Token]:
        line, column = self.line, self.column
        start = self.position
        while self._peek() and self._peek() != "\n":
            self._advance()
        text = self.source[start:self.position].strip()
        if text.startswith("#pragma"):
            return [Token("pragma", text, line, column)]
        # #include / #define and friends are ignored (no preprocessor).
        return []

    def _lex_identifier(self) -> Token:
        line, column = self.line, self.column
        start = self.position
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start:self.position]
        kind = "keyword" if text in KEYWORDS else "ident"
        return Token(kind, text, line, column)

    def _lex_number(self) -> Token:
        """An ``int`` or ``float`` token; its text is the literal without its
        suffix.  A malformed literal (an octal digit past 7, an exponent
        without digits, a suffix that starts like C's but is not one) is a
        :class:`LexerError` at the literal."""
        line, column = self.line, self.column
        start = self.position
        hexadecimal = (self._peek() == "0" and self._next_in("xX", 1)
                       and self._next_in(_HEX_DIGITS, 2))
        is_float = False
        if hexadecimal:
            self._advance(2)
            while self._next_in(_HEX_DIGITS):
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._next_in("eE"):
                is_float = True
                self._advance()
                if self._next_in("+-"):
                    self._advance()
                if not self._peek().isdigit():
                    raise self._malformed(start, line, column, "exponent has no digits")
                while self._peek().isdigit():
                    self._advance()
        text = self.source[start:self.position]
        suffix_start = self.position
        if self._next_in("uUlLfF"):
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
        suffix = self.source[suffix_start:self.position]
        if not hexadecimal and suffix in ("f", "F"):
            is_float = True  # ``1f``: a float, as the frontend always read it
        valid = suffix in _FLOAT_SUFFIXES if is_float else _INT_SUFFIX.fullmatch(suffix)
        if not valid:
            raise self._malformed(start, line, column, f"invalid suffix {suffix!r}")
        if (not is_float and not hexadecimal and text[0] == "0"
                and any(digit in "89" for digit in text)):
            raise self._malformed(start, line, column, "invalid digit in octal literal")
        return Token("float" if is_float else "int", text, line, column)

    def _malformed(self, start: int, line: int, column: int, why: str) -> LexerError:
        """The error of the number literal lexed from ``start`` so far."""
        return self._error(f"malformed number {self.source[start:self.position]!r}: {why}",
                           line, column)

    def _lex_string(self) -> Token:
        line, column = self.line, self.column
        self._advance()  # opening quote
        start = self.position
        while self._peek() and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            self._advance()
        if not self._peek():
            raise self._error("unterminated string literal", line, column)
        text = self.source[start:self.position]
        self._advance()  # closing quote
        return Token("string", text, line, column)

    def _lex_operator(self) -> Token:
        line, column = self.line, self.column
        for operator in MULTI_CHAR_OPERATORS:
            if self.source.startswith(operator, self.position):
                self._advance(len(operator))
                return Token("op", operator, line, column)
        char = self._peek()
        if char in SINGLE_CHAR_OPERATORS:
            self._advance()
            return Token("op", char, line, column)
        raise self._error(f"unexpected character {char!r}")


def tokenize(source: str, filename: str = "<cuda>") -> List[Token]:
    return Lexer(source, filename).tokenize()
