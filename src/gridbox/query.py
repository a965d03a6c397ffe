"""The formal query language and its decomposition.

Grammar (EBNF; keywords are lowercase, ``and`` binds tighter than ``or``,
``not`` tightest, ranges are inclusive on both ends)::

    query     = "select" target "where" expr ;
    target    = "patients" | "studies" | "images" ;
    expr      = and_expr { "or" and_expr } ;
    and_expr  = unary { "and" unary } ;
    unary     = "not" unary | primary ;
    primary   = "(" expr ")" | "true" | "false" | predicate ;
    predicate = attr "in" "[" bound "," bound "]" | attr cmp value ;
    cmp       = "=" | "!=" | "<" | "<=" | ">" | ">=" ;

Attributes come from the controlled vocabulary (``patient.sex``,
``patient.age``, ``patient.id``, ``study.date``, ``image.laterality``,
``image.view``, ``image.id``, ``image.dose_mgy``, ``derived.<name>``).
Values are barewords, double-quoted strings, numbers, or ISO dates.

A parsed query runs locally and is decomposed against the VO membership
into one single-hop remote per other member; an id-equality conjunct prunes
the remote fan-out to the id's minting site.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal

from gridbox.errors import NotAMember, QuerySyntaxError, TypeMismatch, UnknownAttribute
from gridbox.ids import GlobalId, looks_like_global_id
from gridbox.records import LATERALITIES, SEXES, VIEWS

# target -> the record kind whose ids are its rows
ROW_KIND = {"patients": "patient", "studies": "study", "images": "image"}
TARGETS = tuple(ROW_KIND)

# attribute name -> (type, extra); types: cat, int, real, date, id
STATIC_ATTRS: dict[str, tuple[str, tuple | str | None]] = {
    "patient.sex": ("cat", SEXES),
    "patient.age": ("int", None),
    "patient.id": ("id", "patient"),
    "study.date": ("date", None),
    "image.laterality": ("cat", LATERALITIES),
    "image.view": ("cat", VIEWS),
    "image.id": ("id", "image"),
    "image.dose_mgy": ("real", None),
}

_DERIVED_RE = re.compile(r"derived\.[a-z][a-z0-9_]*")
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
_ORDER_OPS = ("<", "<=", ">", ">=")


def attr_type(attr: str) -> tuple[str, tuple | str | None]:
    if attr in STATIC_ATTRS:
        return STATIC_ATTRS[attr]
    if _DERIVED_RE.fullmatch(attr):
        return ("real", None)
    raise UnknownAttribute(f"unknown attribute {attr!r}")


# --- AST --------------------------------------------------------------------

Value = object  # str | int | float | datetime.date


@dataclass(frozen=True)
class Comparison:
    attr: str
    op: str
    value: Value


@dataclass(frozen=True)
class RangeTest:
    attr: str
    lo: Value
    hi: Value


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class And:
    parts: tuple

    def __post_init__(self):
        flat = []
        for p in self.parts:
            flat.extend(p.parts if isinstance(p, And) else [p])
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __post_init__(self):
        flat = []
        for p in self.parts:
            flat.extend(p.parts if isinstance(p, Or) else [p])
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True)
class FormalQuery:
    target: str
    expr: object
    source_text: str = ""

    def __eq__(self, other):
        return (isinstance(other, FormalQuery)
                and self.target == other.target and self.expr == other.expr)

    def __hash__(self):
        return hash((self.target, self.expr))


# --- lexer -------------------------------------------------------------------

_WORD_RE = re.compile(r"[A-Za-z0-9_.:\-]+")
_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?")
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}")
_ATTR_RE = re.compile(r"(patient|study|image|derived)\.[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = ("select", "where", "and", "or", "not", "in", "true", "false")
_PUNCT = ("(", ")", "[", "]", ",")


@dataclass(frozen=True)
class _Token:
    kind: str  # word | string | punct | op | end
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(_Token("punct", c, i))
            i += 1
            continue
        if c == "!":
            if text[i:i + 2] == "!=":
                tokens.append(_Token("op", "!=", i))
                i += 2
                continue
            raise QuerySyntaxError("stray '!'", i, ("!=",))
        if c in "<>=":
            if text[i:i + 2] in ("<=", ">="):
                tokens.append(_Token("op", text[i:i + 2], i))
                i += 2
            else:
                tokens.append(_Token("op", c, i))
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise QuerySyntaxError("unterminated string", i)
            tokens.append(_Token("string", text[i + 1:j], i))
            i = j + 1
            continue
        m = _WORD_RE.match(text, i)
        if not m:
            raise QuerySyntaxError(f"unexpected character {c!r}", i)
        tokens.append(_Token("word", m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_word(self, *words: str) -> str:
        tok = self.cur
        if tok.kind == "word" and tok.text in words:
            self.advance()
            return tok.text
        raise QuerySyntaxError(f"got {tok.text!r}" if tok.kind != "end" else "query ends early",
                               tok.pos, words)

    def expect_punct(self, p: str) -> None:
        tok = self.cur
        if tok.kind == "punct" and tok.text == p:
            self.advance()
            return
        raise QuerySyntaxError(f"got {tok.text!r}" if tok.kind != "end" else "query ends early",
                               tok.pos, (p,))

    def parse_query(self) -> FormalQuery:
        self.expect_word("select")
        target = self.expect_word(*TARGETS)
        self.expect_word("where")
        expr = self.parse_or()
        if self.cur.kind != "end":
            raise QuerySyntaxError(f"trailing input {self.cur.text!r}", self.cur.pos)
        return FormalQuery(target, expr, self.text)

    def parse_or(self):
        parts = [self.parse_and()]
        while self.cur.kind == "word" and self.cur.text == "or":
            self.advance()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self):
        parts = [self.parse_unary()]
        while self.cur.kind == "word" and self.cur.text == "and":
            self.advance()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self):
        if self.cur.kind == "word" and self.cur.text == "not":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.cur
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            expr = self.parse_or()
            self.expect_punct(")")
            return expr
        if tok.kind == "word" and tok.text in ("true", "false"):
            self.advance()
            return BoolLit(tok.text == "true")
        if tok.kind == "word" and _ATTR_RE.fullmatch(tok.text):
            return self.parse_predicate()
        raise QuerySyntaxError(
            f"got {tok.text!r}" if tok.kind != "end" else "query ends early",
            tok.pos, ("(", "not", "true", "false", "<attribute>"))

    def parse_predicate(self):
        attr_tok = self.advance()
        attr = attr_tok.text
        tok = self.cur
        if tok.kind == "word" and tok.text == "in":
            self.advance()
            self.expect_punct("[")
            lo = self.parse_value()
            self.expect_punct(",")
            hi = self.parse_value()
            self.expect_punct("]")
            return RangeTest(attr, lo, hi)
        if tok.kind == "op":
            self.advance()
            return Comparison(attr, tok.text, self.parse_value())
        raise QuerySyntaxError(
            f"got {tok.text!r}" if tok.kind != "end" else "query ends early",
            tok.pos, CMP_OPS + ("in",))

    def parse_value(self) -> Value:
        tok = self.cur
        if tok.kind == "string":
            self.advance()
            return tok.text
        if tok.kind == "word":
            self.advance()
            return _classify_word(tok.text)
        raise QuerySyntaxError(
            f"got {tok.text!r}" if tok.kind != "end" else "query ends early",
            tok.pos, ("<value>",))


def _classify_word(word: str) -> Value:
    if _NUMBER_RE.fullmatch(word):
        return float(word) if "." in word else int(word)
    if _DATE_RE.fullmatch(word):
        try:
            return date.fromisoformat(word)
        except ValueError as e:
            raise QuerySyntaxError(f"bad date {word!r}: {e}")
    return word


# --- validation ---------------------------------------------------------------

def _check_value(attr: str, value: Value) -> None:
    typ, extra = attr_type(attr)
    if typ == "cat":
        if not isinstance(value, str) or value not in extra:
            raise TypeMismatch(
                f"{attr} takes one of {'/'.join(extra)}, got {value!r}")
    elif typ == "id":
        if not isinstance(value, str) or not looks_like_global_id(value):
            raise TypeMismatch(f"{attr} takes a global id, got {value!r}")
        if GlobalId.parse(value).kind != extra:
            raise TypeMismatch(f"{attr} takes a {extra} id, got {value!r}")
    elif typ in ("int", "real"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatch(f"{attr} is numeric, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise TypeMismatch(f"{attr} needs a finite number, got {value!r}")
    elif typ == "date":
        if not isinstance(value, date):
            raise TypeMismatch(f"{attr} takes an ISO date, got {value!r}")


def _validate_expr(expr) -> None:
    if isinstance(expr, BoolLit):
        return
    if isinstance(expr, Not):
        _validate_expr(expr.inner)
        return
    if isinstance(expr, (And, Or)):
        for p in expr.parts:
            _validate_expr(p)
        return
    if isinstance(expr, Comparison):
        typ, _ = attr_type(expr.attr)
        if expr.op not in CMP_OPS:
            raise QuerySyntaxError(f"bad operator {expr.op!r}")
        if typ in ("cat", "id") and expr.op in _ORDER_OPS:
            raise TypeMismatch(f"{expr.attr} is not ordered; only = and != apply")
        _check_value(expr.attr, expr.value)
        return
    if isinstance(expr, RangeTest):
        typ, _ = attr_type(expr.attr)
        if typ in ("cat", "id"):
            raise TypeMismatch(f"{expr.attr} is not ordered; ranges do not apply")
        _check_value(expr.attr, expr.lo)
        _check_value(expr.attr, expr.hi)
        if expr.hi < expr.lo:
            raise TypeMismatch(f"empty range on {expr.attr}: lo > hi")
        return
    raise TypeError(f"not an expression node: {expr!r}")


def parse_query(text: str) -> FormalQuery:
    """Parse and validate query text against the controlled vocabulary."""
    q = _Parser(text).parse_query()
    _validate_expr(q.expr)
    return q


# --- canonical printer ----------------------------------------------------------

def _print_value(value: Value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean is not a predicate value")
    if isinstance(value, (int, float)):
        text = repr(value)
        if not _NUMBER_RE.fullmatch(text):  # exponent notation would not re-lex
            text = format(Decimal(value), "f")
        return text
    if isinstance(value, date):
        return value.isoformat()
    # a bareword must survive re-lexing as the same plain word
    if _WORD_RE.fullmatch(value) and not (
            _NUMBER_RE.fullmatch(value) or _DATE_RE.fullmatch(value)
            or _ATTR_RE.fullmatch(value) or value in _KEYWORDS):
        return value
    if '"' in value or "\n" in value:
        raise TypeMismatch(f"unprintable string value {value!r}")
    return f'"{value}"'


def _print_expr(expr, parent: str = "or") -> str:
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Comparison):
        return f"{expr.attr} {expr.op} {_print_value(expr.value)}"
    if isinstance(expr, RangeTest):
        return f"{expr.attr} in [{_print_value(expr.lo)},{_print_value(expr.hi)}]"
    if isinstance(expr, Not):
        inner = _print_expr(expr.inner, "not")
        if isinstance(expr.inner, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(expr, And):
        body = " and ".join(
            f"({_print_expr(p, 'and')})" if isinstance(p, Or) else _print_expr(p, "and")
            for p in expr.parts)
        return f"({body})" if parent == "not" else body
    if isinstance(expr, Or):
        body = " or ".join(_print_expr(p, "or") for p in expr.parts)
        return f"({body})" if parent != "or" else body
    raise TypeError(f"not an expression node: {expr!r}")


def print_query(q: FormalQuery) -> str:
    """Canonical text form; ``parse_query`` of it yields an equal query."""
    return f"select {q.target} where {_print_expr(q.expr)}"


# --- decomposition ----------------------------------------------------------------

def _top_conjuncts(expr) -> tuple:
    return expr.parts if isinstance(expr, And) else (expr,)


def _id_pinned_sites(expr) -> set[str]:
    sites = set()
    for part in _top_conjuncts(expr):
        if (isinstance(part, Comparison) and part.op == "="
                and part.attr in ("patient.id", "image.id")):
            sites.add(GlobalId.parse(part.value).site)
    return sites


def decompose(q: FormalQuery, membership: list[str], self_site: str) -> list[str]:
    """The sorted remote sites a query fans out to, one hop each: every other
    VO member, pruned when an id conjunct pins the site.  The query itself
    always runs locally too."""
    if self_site not in membership:
        raise NotAMember(f"{self_site} is not in the VO membership")
    others = sorted(set(membership) - {self_site})
    pinned = _id_pinned_sites(q.expr)
    if pinned:
        # conjoined ids from two sites can match nowhere; one pinned site
        # needs no broadcast beyond its owner
        others = sorted(pinned & set(others)) if len(pinned) == 1 else []
    return others


# --- projection ----------------------------------------------------------------

def referenced_attrs(expr) -> set[str]:
    if isinstance(expr, (Comparison, RangeTest)):
        return {expr.attr}
    if isinstance(expr, Not):
        return referenced_attrs(expr.inner)
    if isinstance(expr, (And, Or)):
        out: set[str] = set()
        for p in expr.parts:
            out |= referenced_attrs(p)
        return out
    return set()


def projection(q: FormalQuery) -> tuple[str, ...]:
    """The fields a row of ``q`` carries: the referenced attributes plus
    ``patient.id``, which every row carries so merged summaries can count
    distinct patients."""
    return tuple(sorted(referenced_attrs(q.expr) | {"patient.id"}))
