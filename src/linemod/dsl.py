"""A small text format for algebra presentations.

Grammar::

    algebra NAME {
      generators g1 g2 ...;
      degree d1 d2 ...;                  # optional, default all 1
      grading GROUP: g=label ...;        # optional; GROUP is Z2 or Z2xZ2
      central g ...;                     # optional commutation sugar
      relations { expr; expr; ... }
    }

Expressions use +, -, *, integer and rational literals (p/q) and
parentheses.  ``central c`` appends the relations g*c - c*g for every other
generator g, after the explicit relations.  Parsing is total on the
grammar with positioned errors, and printing emits a canonical form with
terms sorted leading-first, so parse(print(p)) == p.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DSLSyntaxError
from .ncalg import EMPTY_WORD, Generator, NcPoly, TermOrder
from .rewrite import Presentation

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[{}();:=,+\-*/])
    """,
    re.VERBOSE,
)

_GROUPS = {"Z2": 1, "Z2xZ2": 2}


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DSLSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise DSLSyntaxError(message, tok.line, tok.column)

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise self.fail(f"expected {want!r}, found {tok.value or 'end of input'!r}")
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.value == word

    # -- grammar ---------------------------------------------------------

    def algebra(self) -> Presentation:
        self.expect("name", "algebra")
        name = self.expect("name").value
        self.expect("sym", "{")
        self.expect("name", "generators")
        gen_names = []
        while self.peek().kind == "name":
            tok = self.next()
            if tok.value in gen_names:
                self.fail(f"duplicate generator {tok.value!r}", tok)
            gen_names.append(tok.value)
        if not gen_names:
            self.fail("at least one generator is required")
        self.expect("sym", ";")

        degrees = [1] * len(gen_names)
        if self.at_keyword("degree"):
            self.next()
            degrees = []
            while self.peek().kind == "int":
                degrees.append(int(self.next().value))
            if len(degrees) != len(gen_names):
                self.fail(f"expected {len(gen_names)} degrees, found {len(degrees)}")
            self.expect("sym", ";")

        grading_group = None
        labels = [None] * len(gen_names)
        if self.at_keyword("grading"):
            self.next()
            group_tok = self.expect("name")
            if group_tok.value not in _GROUPS:
                self.fail(f"unknown grading group {group_tok.value!r}", group_tok)
            grading_group = group_tok.value
            rank = _GROUPS[grading_group]
            self.expect("sym", ":")
            while self.peek().kind == "name":
                gtok = self.next()
                if gtok.value not in gen_names:
                    self.fail(f"unknown generator {gtok.value!r}", gtok)
                self.expect("sym", "=")
                labels[gen_names.index(gtok.value)] = self.label(rank)
            self.expect("sym", ";")
            missing = [gen_names[i] for i, lab in enumerate(labels) if lab is None]
            if missing:
                self.fail(f"generators without grading label: {', '.join(missing)}")

        central = []
        if self.at_keyword("central"):
            self.next()
            while self.peek().kind == "name":
                tok = self.next()
                if tok.value not in gen_names:
                    self.fail(f"unknown generator {tok.value!r}", tok)
                central.append(tok.value)
            self.expect("sym", ";")

        self.expect("name", "relations")
        self.expect("sym", "{")
        relations = []
        while not (self.peek().kind == "sym" and self.peek().value == "}"):
            start = self.peek()
            poly = self.expression(gen_names)
            if poly.is_zero():
                self.fail("relation is identically zero", start)
            relations.append(poly)
            self.expect("sym", ";")
        self.expect("sym", "}")
        self.expect("sym", "}")
        self.expect("eof")

        for c in central:
            ci = gen_names.index(c)
            for g, gi in ((g, i) for i, g in enumerate(gen_names) if g != c):
                relations.append(
                    NcPoly.monomial((gi, ci)) - NcPoly.monomial((ci, gi))
                )

        generators = tuple(
            Generator(i, n, degrees[i], labels[i]) for i, n in enumerate(gen_names)
        )
        return Presentation(
            name=name,
            generators=generators,
            relations=tuple(relations),
            grading_group=grading_group,
        )

    def label(self, rank: int) -> tuple:
        if rank == 1:
            tok = self.expect("int")
            if tok.value not in ("0", "1"):
                self.fail("Z2 labels are 0 or 1", tok)
            return (int(tok.value),)
        self.expect("sym", "(")
        first = self.expect("int")
        self.expect("sym", ",")
        second = self.expect("int")
        self.expect("sym", ")")
        for tok in (first, second):
            if tok.value not in ("0", "1"):
                self.fail("Z2xZ2 labels use bits 0 or 1", tok)
        return (int(first.value), int(second.value))

    # -- expressions -------------------------------------------------------

    def expression(self, gen_names) -> NcPoly:
        sign = 1
        tok = self.peek()
        if tok.kind == "sym" and tok.value in "+-":
            self.next()
            sign = -1 if tok.value == "-" else 1
        poly = self.term(gen_names).scale(sign)
        while self.peek().kind == "sym" and self.peek().value in "+-":
            op = self.next().value
            term = self.term(gen_names)
            poly = poly + term if op == "+" else poly - term
        return poly

    def term(self, gen_names) -> NcPoly:
        poly = self.factor(gen_names)
        while self.peek().kind == "sym" and self.peek().value == "*":
            self.next()
            poly = poly * self.factor(gen_names)
        return poly

    def factor(self, gen_names) -> NcPoly:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            value = Fraction(int(tok.value))
            if self.peek().kind == "sym" and self.peek().value == "/":
                self.next()
                den = self.expect("int")
                if int(den.value) == 0:
                    self.fail("zero denominator", den)
                value = value / int(den.value)
            return NcPoly.monomial(EMPTY_WORD, value)
        if tok.kind == "name":
            self.next()
            if tok.value not in gen_names:
                self.fail(f"unknown generator {tok.value!r}", tok)
            return NcPoly.gen(gen_names.index(tok.value))
        if tok.kind == "sym" and tok.value == "(":
            self.next()
            poly = self.expression(gen_names)
            self.expect("sym", ")")
            return poly
        raise self.fail(f"expected a factor, found {tok.value or 'end of input'!r}")


def parse_algebra(text: str) -> Presentation:
    """Parse an algebra block into a validated Presentation."""
    return _Parser(text).algebra()


def parse_expression(text: str, presentation: Presentation) -> NcPoly:
    """Parse a bare expression over the generators of a presentation."""
    parser = _Parser(text)
    poly = parser.expression(list(presentation.generator_names()))
    parser.expect("eof")
    return poly


# ----------------------------------------------------------------------
# canonical printing
# ----------------------------------------------------------------------


def format_coefficient(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_word(word, names) -> str:
    return "*".join(names[g] for g in word) if word else "1"


def format_steps(steps, names) -> list:
    """Rewrite steps (``TraceStep``) as report entries: the rewritten word,
    its coefficient, the match position and the applied rule's lhs."""
    return [
        {
            "word": format_word(st.word, names),
            "coefficient": st.coefficient,
            "position": st.position,
            "rule": format_word(st.rule_lhs, names),
        }
        for st in steps
    ]


def format_poly(poly: NcPoly, names, order: TermOrder) -> str:
    """Leading-first rendering with explicit * between letters."""
    if poly.is_zero():
        return "0"
    words = sorted(poly.support(), key=order.heap_key)
    pieces = []
    for i, w in enumerate(words):
        c = poly.coeff(w)
        mag = abs(c)
        body = format_word(w, names)
        if w == EMPTY_WORD:
            chunk = format_coefficient(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{format_coefficient(mag)}*{body}"
        if i == 0:
            pieces.append(chunk if c > 0 else f"-{chunk}")
        else:
            pieces.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
    return " ".join(pieces)


def print_algebra(p: Presentation) -> str:
    """Canonical text form; parse(print_algebra(p)) == p."""
    names = p.generator_names()
    order = p.default_order()
    lines = [f"algebra {p.name} {{"]
    lines.append("  generators " + " ".join(names) + ";")
    lines.append("  degree " + " ".join(str(g.z_degree) for g in p.generators) + ";")
    if p.grading_group is not None:
        labs = []
        for g in p.generators:
            if p.grading_group == "Z2":
                labs.append(f"{g.name}={g.group_label[0]}")
            else:
                labs.append(f"{g.name}=({g.group_label[0]},{g.group_label[1]})")
        lines.append(f"  grading {p.grading_group}: " + " ".join(labs) + ";")
    lines.append("  relations {")
    for rel in p.relations:
        lines.append(f"    {format_poly(rel, names, order)};")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
