"""JavaScript tokenizer."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional

KEYWORDS = frozenset({
    "var", "let", "const", "function", "return", "if", "else", "while",
    "for", "do", "break", "continue", "new", "delete", "typeof",
    "instanceof", "in", "of", "try", "catch", "finally", "throw",
    "true", "false", "null", "undefined", "this",
    "switch", "case", "default", "void",
})

# Longest-first so e.g. '===' wins over '=='.
PUNCTUATORS = [
    "===", "!==", ">>>", "**=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=",
    "/=", "%=", "&=", "|=", "^=", "=>", "<<", ">>", "**",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "<", ">", "+", "-",
    "*", "/", "%", "!", "?", ":", "=", "&", "|", "^", "~",
]


class LexError(SyntaxError):
    """Raised on malformed input."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, col {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    """A lexical token.

    ``newline_before`` supports the parser's pragmatic ASI rule; ``start``
    and ``end`` are source offsets used to recover function source text
    (which feeds ``Function.prototype.toString``).
    """

    kind: str  # 'number' | 'string' | 'ident' | 'keyword' | 'punct' | 'eof'
    value: str
    line: int
    column: int
    start: int
    end: int
    newline_before: bool = False
    number: Optional[float] = None

    def matches(self, kind: str, value: Optional[str] = None) -> bool:
        return self.kind == kind and (value is None or self.value == value)


_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_PART = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "v": "\v",
    "0": "\0", "'": "'", '"': '"', "\\": "\\", "\n": "",
}


class Lexer:
    """Tokenizes JavaScript source into a list of :class:`Token`."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1
        self._newline_pending = False
        #: Queue of synthesized tokens (template-literal desugaring).
        self._pending: List[Token] = []
        #: Brace depth of each template interpolation we are inside.
        self._template_stack: List[int] = []

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind == "eof":
                return tokens

    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            char = self.source[self.pos]
            if char in " \t\r\f\v":
                self._advance()
            elif char == "\n":
                self._newline_pending = True
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    if self._peek() == "\n":
                        self._newline_pending = True
                    self._advance()
                else:
                    raise LexError("unterminated block comment",
                                   self.line, self.column)
            else:
                return

    def _make(self, kind: str, value: str, line: int, column: int,
              start: int, number: Optional[float] = None) -> Token:
        newline = self._newline_pending
        self._newline_pending = False
        return Token(kind=kind, value=value, line=line, column=column,
                     start=start, end=self.pos, newline_before=newline,
                     number=number)

    def _next_token(self) -> Token:
        if self._pending:
            return self._pending.pop(0)
        self._skip_whitespace_and_comments()
        line, column, start = self.line, self.column, self.pos
        if self.pos >= len(self.source):
            return self._make("eof", "", line, column, start)
        char = self._peek()

        if char in _IDENT_START:
            return self._lex_identifier(line, column, start)
        if char in _DIGITS or (char == "." and self._peek(1) in _DIGITS):
            return self._lex_number(line, column, start)
        if char in "'\"":
            return self._lex_string(line, column, start)
        if char == "`":
            return self._lex_template(line, column, start)
        if self._template_stack and char == "}" \
                and self._template_stack[-1] == 0:
            # End of a `${...}` hole: resume template text mode.
            self._advance()
            return self._resume_template(line, column, start)
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                if self._template_stack:
                    if punct == "{":
                        self._template_stack[-1] += 1
                    elif punct == "}":
                        self._template_stack[-1] -= 1
                return self._make("punct", punct, line, column, start)
        raise LexError(f"unexpected character {char!r}", line, column)

    def _lex_identifier(self, line: int, column: int, start: int) -> Token:
        while self._peek() in _IDENT_PART and self._peek() != "":
            self._advance()
        # Interning collapses the thousands of repeated identifier
        # lexemes across a corpus into shared singletons, so the scope
        # dict lookups of compiled code hash pre-cached
        # pointers instead of fresh slices.
        text = sys.intern(self.source[start:self.pos])
        kind = "keyword" if text in KEYWORDS else "ident"
        return self._make(kind, text, line, column, start)

    def _lex_number(self, line: int, column: int, start: int) -> Token:
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() in _HEX_DIGITS and self._peek() != "":
                self._advance()
            text = self.source[start:self.pos]
            return self._make("number", text, line, column, start,
                              number=float(int(text, 16)))
        while self._peek() in _DIGITS and self._peek() != "":
            self._advance()
        if self._peek() == ".":
            self._advance()
            while self._peek() in _DIGITS and self._peek() != "":
                self._advance()
        if self._peek() in "eE":
            lookahead = 1
            if self._peek(1) in "+-":
                lookahead = 2
            if self._peek(lookahead) in _DIGITS:
                self._advance(lookahead)
                while self._peek() in _DIGITS and self._peek() != "":
                    self._advance()
        text = self.source[start:self.pos]
        return self._make("number", text, line, column, start,
                          number=float(text))

    def _lex_string(self, line: int, column: int, start: int) -> Token:
        quote = self._peek()
        self._advance()
        chars: List[str] = []
        while True:
            char = self._peek()
            if char == "":
                raise LexError("unterminated string", line, column)
            if char == "\n":
                raise LexError("newline in string literal", self.line,
                               self.column)
            if char == quote:
                self._advance()
                break
            if char == "\\":
                self._advance()
                chars.append(self._lex_escape(line, column))
                continue
            chars.append(char)
            self._advance()
        return self._make("string", "".join(chars), line, column, start)

    def _lex_escape(self, line: int, column: int) -> str:
        escape = self._peek()
        if escape == "x":
            self._advance()
            digits = self.source[self.pos:self.pos + 2]
            if len(digits) < 2 or any(d not in _HEX_DIGITS for d in digits):
                raise LexError("invalid \\x escape", self.line, self.column)
            self._advance(2)
            return chr(int(digits, 16))
        if escape == "u":
            self._advance()
            digits = self.source[self.pos:self.pos + 4]
            if len(digits) < 4 or any(d not in _HEX_DIGITS for d in digits):
                raise LexError("invalid \\u escape", self.line, self.column)
            self._advance(4)
            return chr(int(digits, 16))
        self._advance()
        return _ESCAPES.get(escape, escape)

    def _template_text(self, line: int, column: int) -> "tuple[str, bool]":
        """Consume template text until '`' (True) or '${' (False)."""
        chars: List[str] = []
        while True:
            char = self._peek()
            if char == "":
                raise LexError("unterminated template literal", line,
                               column)
            if char == "`":
                self._advance()
                return "".join(chars), True
            if char == "$" and self._peek(1) == "{":
                self._advance(2)
                return "".join(chars), False
            if char == "\\":
                self._advance()
                chars.append(self._lex_escape(line, column))
                continue
            chars.append(char)
            self._advance()

    def _lex_template(self, line: int, column: int, start: int) -> Token:
        """Template literals, desugared into string concatenation.

        ``\\`a${x}b\\``` becomes the token stream for ``("a" + (x) + "b")``
        so the parser and interpreter need no special handling; the
        string-forcing empty prefix preserves ToString semantics.
        """
        self._advance()  # opening backtick
        text, closed = self._template_text(line, column)
        if closed:
            return self._make("string", text, line, column, start)
        # `text${ ... — open the desugared concatenation.
        self._template_stack.append(0)
        open_paren = self._make("punct", "(", line, column, start)
        self._pending.extend([
            self._make("string", text, line, column, start),
            self._make("punct", "+", line, column, start),
            self._make("punct", "(", line, column, start),
        ])
        return open_paren

    def _resume_template(self, line: int, column: int,
                         start: int) -> Token:
        """After a '}' closing an interpolation hole."""
        text, closed = self._template_text(line, column)
        close_paren = self._make("punct", ")", line, column, start)
        self._pending.extend([
            self._make("punct", "+", line, column, start),
            self._make("string", text, line, column, start),
        ])
        if closed:
            self._template_stack.pop()
            self._pending.append(
                self._make("punct", ")", line, column, start))
        else:
            self._pending.extend([
                self._make("punct", "+", line, column, start),
                self._make("punct", "(", line, column, start),
            ])
        return close_paren
