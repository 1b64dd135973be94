"""Recursive-descent parser for set expressions.

Grammar (UTF-8; "U" or "∪" for union):

    set      := term (("U" | "∪") term)*
    term     := finite | seqset | interval | dense | cantor | affine
    finite   := "{" "}" | "{" rat ("," rat)* "}"
    seqset   := "{" scalar "}" start*          -- scalar uses variables n, k
    interval := "[" rat "," rat "]"
    dense    := "Q(" rat "," rat ")"
    cantor   := "C"
    affine   := rat "*" term (("+" | "-") rat)?
    start    := "[" var ">=" int "]"
    rat      := int | int "/" posint | decimal | "(" rat ")"

Inside a seqset, scalar is a signed sum of a constant and decaying pieces:

    c/n^p      c/b^n      c/b^(s^n)      c*(p/q)^n      c*(p/q)^(s^n)

with the same shapes over k.  "1/2^n" reads as 1/(2^n); the tokenizer only
folds "a/b" into a rational when the denominator is not itself a power base.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SemanticError
from .setexpr import (
    Cantor,
    Dense,
    Finite,
    IntervalSet,
    SetExpr,
    map_affine,
    seq,
    seq2,
    union,
)
from .core import Interval
from .terms import DoubleGeoTerm, GeoTerm, PowTerm, term_fun


class ParseError(Exception):
    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message

    def __str__(self):
        return f"parse error at {self.position}: {self.message}"


_PUNCT = {"{", "}", "[", "]", "(", ")", ",", "*", "/", "^", "+", "-", "U"}


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'int' | 'dec' | 'var' | punctuation literal
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "∪":
            toks.append(_Tok("U", "U", i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                toks.append(_Tok("dec", text[i:k], i))
                i = k
            else:
                toks.append(_Tok("int", text[i:j], i))
                i = j
            continue
        if ch in ("n", "k"):
            toks.append(_Tok("var", ch, i))
            i += 1
            continue
        if ch in ("C", "Q"):
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        if ch == ">" and i + 1 < n and text[i + 1] == "=":
            toks.append(_Tok(">=", ">=", i))
            i += 2
            continue
        if ch in _PUNCT:
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    return toks


def _geo_piece(coeff: Fraction, r: Fraction, expo: tuple[str, int | None]):
    """(var, coeff * r^var) or (var, coeff * r^(s^var)) for a ratio in (0, 1)."""
    var, s = expo
    if not (0 < r < 1):
        raise SemanticError(f"ratio must be in (0,1): {r}")
    if s is None:
        return var, GeoTerm(coeff, r)
    return var, DoubleGeoTerm(coeff, r, s)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self, ahead: int = 0) -> _Tok | None:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def _next(self) -> _Tok:
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input")
        self.i += 1
        return tok

    def _expect(self, kind: str) -> _Tok:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(tok.pos, f"expected {kind!r}, found {tok.text!r}")
        return tok

    def _at(self, kind: str, ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return tok is not None and tok.kind == kind

    # -- rationals ---------------------------------------------------------

    def _rat(self) -> Fraction:
        if self._at("("):
            self._next()
            v = self._rat()
            self._expect(")")
            return v
        neg = False
        if self._at("-"):
            self._next()
            neg = True
        tok = self._next()
        if tok.kind == "dec":
            v = Fraction(tok.text)
        elif tok.kind == "int":
            v = Fraction(int(tok.text))
            if self._at("/") and self._at("int", 1) and not self._at("^", 2):
                self._next()
                den = int(self._next().text)
                if den == 0:
                    raise ParseError(tok.pos, "zero denominator")
                v = v / den
        else:
            raise ParseError(tok.pos, f"expected a number, found {tok.text!r}")
        return -v if neg else v

    # -- scalar pieces inside a seqset --------------------------------------

    def _expo(self) -> tuple[str, int | None]:
        """Exponent after a base: a variable, or (s^var)."""
        if self._at("var"):
            return self._next().text, None
        if self._at("("):
            self._next()
            s = int(self._expect("int").text)
            self._expect("^")
            var = self._expect("var").text
            self._expect(")")
            return var, s
        tok = self._peek()
        pos = tok.pos if tok else len(self.text)
        raise ParseError(pos, "expected an exponent variable")

    def _piece(self, coeff: Fraction):
        """One decaying piece applied to coefficient `coeff`.

        Returns (var, term) or ('const', value) when the piece is constant.
        """
        if self._at("/"):
            self._next()
            if self._at("var"):
                var = self._next().text
                p = 1
                if self._at("^"):
                    self._next()
                    p = int(self._expect("int").text)
                return var, PowTerm(coeff, p)
            base_tok = self._expect("int")
            base = int(base_tok.text)
            if base == 0:
                raise ParseError(base_tok.pos, "zero denominator")
            if self._at("^"):
                self._next()
                return _geo_piece(coeff, Fraction(1, base), self._expo())
            return "const", coeff / base
        if self._at("*"):
            self._next()
            r = self._rat()
            self._expect("^")
            return _geo_piece(coeff, r, self._expo())
        if self._at("^"):
            self._next()
            return _geo_piece(Fraction(1), coeff, self._expo())
        return "const", coeff

    def _scalar_body(self):
        """Parse `a +/- piece +/- piece ...`; returns (limit, terms_by_var)."""
        limit = Fraction(0)
        by_var: dict[str, list] = {"n": [], "k": []}
        first = True
        while True:
            sign = 1
            if self._at("+"):
                self._next()
            elif self._at("-"):
                self._next()
                sign = -1
            elif not first:
                break
            coeff = self._rat() * sign
            var, item = self._piece(coeff)
            if var == "const":
                limit += item
            else:
                by_var[var].append(item)
            first = False
            if self._at("}"):
                break
        return limit, by_var

    # -- braces: finite set or sequence set ---------------------------------

    def _braced(self) -> SetExpr:
        open_tok = self._expect("{")
        if self._at("}"):
            self._next()
            return Finite(())
        limit, by_var = self._scalar_body()
        values = [limit] if not (by_var["n"] or by_var["k"]) else None
        while self._at(","):
            if values is None:
                raise ParseError(self._peek().pos, "cannot mix list and formula")
            self._next()
            limit2, by2 = self._scalar_body()
            if by2["n"] or by2["k"]:
                raise ParseError(open_tok.pos, "cannot mix list and formula")
            values.append(limit2)
        self._expect("}")
        if values is not None:
            if len(set(values)) != len(values):
                raise SemanticError("finite set literal has repeated points")
            return Finite(tuple(values))
        starts = {"n": 1, "k": 1}
        while self._at("[") and self._at("var", 1) and self._at(">=", 2):
            self._next()
            var = self._next().text
            self._expect(">=")
            starts[var] = int(self._expect("int").text)
            self._expect("]")
        if by_var["n"] and by_var["k"]:
            return seq2(
                limit,
                term_fun(by_var["n"], starts["n"]),
                term_fun(by_var["k"], starts["k"]),
            )
        var = "n" if by_var["n"] else "k"
        return seq(limit, term_fun(by_var[var], starts[var]))

    # -- terms ---------------------------------------------------------------

    def _is_open_interval(self) -> bool:
        """Distinguish '(lo, hi...' from a parenthesized rational."""
        saved = self.i
        try:
            self._next()
            self._rat()
            return self._at(",")
        except ParseError:
            return False
        finally:
            self.i = saved

    def _term(self) -> SetExpr:
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "expected a set term")
        if tok.kind == "{":
            return self._braced()
        if tok.kind == "[" or (tok.kind == "(" and self._is_open_interval()):
            lo_open = self._next().kind == "("
            lo = self._rat()
            self._expect(",")
            hi = self._rat()
            closer = self._next()
            if closer.kind not in ("]", ")"):
                raise ParseError(closer.pos, "expected an interval close bracket")
            if lo > hi:
                raise SemanticError(f"interval endpoints out of order: {lo} > {hi}")
            return IntervalSet(Interval(lo, hi, lo_open, closer.kind == ")"))
        if tok.kind == "C":
            self._next()
            return Cantor()
        if tok.kind == "Q":
            self._next()
            self._expect("(")
            lo = self._rat()
            self._expect(",")
            hi = self._rat()
            self._expect(")")
            return Dense(lo, hi)
        # affine: rat "*" term (+/- rat)?
        alpha = self._rat()
        self._expect("*")
        inner = self._term()
        beta = Fraction(0)
        if self._at("+"):
            self._next()
            beta = self._rat()
        elif self._at("-"):
            self._next()
            beta = -self._rat()
        if alpha == 0:
            raise SemanticError("affine map must be invertible (alpha != 0)")
        return map_affine(inner, alpha, beta)

    # -- entry ---------------------------------------------------------------

    def parse_set(self) -> SetExpr:
        parts = [self._term()]
        while self._at("U"):
            self._next()
            parts.append(self._term())
        if self.i != len(self.toks):
            tok = self.toks[self.i]
            raise ParseError(tok.pos, f"unexpected trailing input {tok.text!r}")
        # "{}" (and any affine image of it) is the one empty term
        kept = [p for p in parts if p != Finite(())]
        return union(*kept) if kept else Finite(())


def parse(text: str) -> SetExpr:
    """Parse an expression string into a validated, canonical SetExpr.

    Affine maps are pushed into the leaves as they are read (a Cantor leaf
    carries its map, as the grammar writes it), so parse and render are
    mutually inverse on the canonical class.
    """
    return _Parser(text).parse_set()
