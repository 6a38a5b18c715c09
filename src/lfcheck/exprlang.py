"""Linear text form for isobaric/pair expressions.

Grammar (tightest first):
    postfix   ~  (contragredient)   and   tw <char>  (twist)
    (x)       Rankin-Selberg pairing
    (+)       isobaric sum
    atoms     pi, pi', Sym^m(pi), Ad(pi), nu_pi, ind_pi (and primed forms),
              character products like chi, omega^-2, chi*mu', om_pi, 1
Parentheses group, nested at most NEST_MAX deep.  A character name is a
generator's own (chi, om_pi, mu_pi', ...) or a short one (omega, omega',
mu, mu', eta, eta', xiF, xiF'), each accepted wherever a character is
(CHARACTERS); powers with ^, products with *.  A value's size is the sum
of the degrees of its distinct entries, the most terms its coefficient
polynomial can have; no sum may pass SIZE_MAX, and no (x) whose
operands' sizes multiply past it is built.

>>> parse_expr("Ad(pi) (x) Ad(pi) tw chi").degree
9
>>> [e.pretty() for e, m in parse_expr("Sym^3(pi) ~").entries]
['Sym^3(pi) tw om_pi^-3']
"""

from __future__ import annotations

import re

from . import InputError
from .chargroup import (
    BASES,
    ONE,
    STD_GENERATORS,
    STEMS,
    FormalCharacter,
    base_name,
    gen,
)
from .repalg import (
    OPAQUE,
    VirtualRep,
    ad_atom,
    char_atom,
    opaque_atom,
    rs_product,
    sym_atom,
)


class ExprError(InputError):
    pass


# every spelling of a character: each generator's own name, the short
# names (the stem over pi, primed over pi', with om spelled omega), and the
# three of the trivial character
CHARACTERS: dict[str, FormalCharacter] = {
    **{g: gen(g) for g in STD_GENERATORS},
    **{
        {"om": "omega"}.get(s, s) + mark: gen(base_name(s, b))
        for s in STEMS
        for b, mark in zip(BASES, ("", "'"))
    },
    **dict.fromkeys(("1", "one", "zeta"), ONE),
}

# largest m accepted in Sym^m: expanding a same-base Sym^m (x) Sym^m costs
# about m^2, so without a cap one numeral could make a short expression slow
SYM_MAX = 64

# largest value size accepted: the single pair Sym^SYM_MAX (x) Sym^SYM_MAX.
# Without it a short chain of (x) could multiply out to millions of entries
SIZE_MAX = (SYM_MAX + 1) ** 2

# longest numeral accepted: int() refuses strings past the interpreter's digit
# limit (4300 by default) with a ValueError, and no meaningful power needs
# more than a few digits, so longer numerals are refused before conversion
NUMERAL_DIGITS = 18

# deepest parenthesis nesting accepted: the parser recurses through four
# calls per level, so a few hundred levels would exhaust the interpreter's
# recursion limit; the casebook's display rows nest at most two levels
NEST_MAX = 32

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<op>\(\+\)|\(x\))
      | (?P<punct>[()^*~])
      | (?P<int>-?\d+)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*'?)
    )""",
    re.VERBOSE,
)


def _tokenize(src: str) -> list[tuple[str, str]]:
    toks = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            raise ExprError(f"cannot read expression at {rest[:20]!r}")
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        if kind == "int" and len(val.lstrip("-")) > NUMERAL_DIGITS:
            raise ExprError(
                f"numeral {val[:12]}... has more than {NUMERAL_DIGITS} digits"
            )
        toks.append((kind, val))
    toks.append(("end", ""))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0  # parentheses open around the current position

    def peek(self) -> tuple[str, str]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, val: str | None = None) -> str:
        k, v = self.next()
        if k != kind or (val is not None and v != val):
            want = val if val is not None else kind
            raise ExprError(f"expected {want!r}, got {v or 'end of input'!r}")
        return v

    # expr := term { "(+)" term }
    def expr(self) -> VirtualRep:
        terms = [self.term()]
        while self.peek() == ("op", "(+)"):
            self.next()
            terms.append(self.term())
        # one build for the whole sum, so n terms cost n log n and not n^2
        acc = VirtualRep.build(e for t in terms for e in t.entries)
        size = _size(acc)
        if size > SIZE_MAX:
            raise ExprError(f"sum of size {size} exceeds the largest size, {SIZE_MAX}")
        return acc

    # term := postfix { "(x)" postfix }
    def term(self) -> VirtualRep:
        acc = self.postfix()
        while self.peek() == ("op", "(x)"):
            self.next()
            right = self.postfix()
            a, b = _size(acc), _size(right)
            if a * b > SIZE_MAX:
                raise ExprError(
                    f"(x) of sizes {a} and {b} exceeds the largest size, {SIZE_MAX}"
                )
            acc = rs_product(acc, right)
        return acc

    # postfix := primary { "~" | "tw" charprod }
    def postfix(self) -> VirtualRep:
        acc = self.primary()
        while True:
            k, v = self.peek()
            if (k, v) == ("punct", "~"):
                self.next()
                acc = acc.dual()
            elif (k, v) == ("name", "tw"):
                self.next()
                acc = acc.twisted(self.charprod())
            else:
                return acc

    def primary(self) -> VirtualRep:
        k, v = self.peek()
        if (k, v) == ("punct", "("):
            self.next()
            if self.depth == NEST_MAX:
                raise ExprError(
                    f"parentheses nest deeper than the largest depth, {NEST_MAX}"
                )
            self.depth += 1
            inner = self.expr()
            self.expect("punct", ")")
            self.depth -= 1
            return inner
        if v in CHARACTERS:
            return VirtualRep.of(char_atom(self.charprod()))
        if k != "name":
            raise ExprError(f"expected an atom, got {v or 'end of input'!r}")
        if v in ("Sym", "Ad"):
            return self.lift()
        if v in BASES:
            self.next()
            return VirtualRep.of(sym_atom(v, 1))
        if v in OPAQUE:
            self.next()
            return VirtualRep.of(opaque_atom(v))
        raise ExprError(f"unknown atom {v!r}")

    def lift(self) -> VirtualRep:
        _k, head = self.next()
        if head == "Sym":
            self.expect("punct", "^")
            _ik, iv = self.next()
            if _ik != "int" or int(iv) < 1:
                raise ExprError("Sym needs a positive integer power")
            m = int(iv)
            if m > SYM_MAX:
                raise ExprError(f"Sym^{m} exceeds the largest power, Sym^{SYM_MAX}")
        self.expect("punct", "(")
        _bk, base = self.next()
        if base not in BASES:
            raise ExprError(f"lift base must be {' or '.join(BASES)}, got {base!r}")
        self.expect("punct", ")")
        if head == "Ad":
            return VirtualRep.of(ad_atom(base))
        return VirtualRep.of(sym_atom(base, m))

    # charprod := charfac { "*" charfac }
    def charprod(self) -> FormalCharacter:
        c = self.charfac()
        while self.peek() == ("punct", "*"):
            self.next()
            c = c * self.charfac()
        return c

    def charfac(self) -> FormalCharacter:
        _k, v = self.next()
        if v not in CHARACTERS:
            raise ExprError(f"expected a character name, got {v!r}")
        base = CHARACTERS[v]
        if self.peek() == ("punct", "^"):
            self.next()
            ik, iv = self.next()
            if ik != "int":
                raise ExprError("character power must be an integer")
            base = base ** int(iv)
        return base


def _size(V: VirtualRep) -> int:
    return sum(k.degree for k, _m in V.entries)


def parse_expr(src: str) -> VirtualRep:
    """Parse the linear form into a normalized multiset value."""
    p = _Parser(src)
    out = p.expr()
    if p.peek() != ("end", ""):
        raise ExprError(f"trailing input at {p.peek()[1]!r}")
    return out

