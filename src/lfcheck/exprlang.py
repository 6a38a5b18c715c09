"""Linear text form for isobaric/pair expressions.

Grammar (tightest first):
    postfix   ~  (contragredient)   and   tw <char>  (twist)
    (x)       Rankin-Selberg pairing
    (+)       isobaric sum
    atoms     pi, pi', Sym^m(pi), Ad(pi), nu_pi, ind_pi (and primed forms),
              character products like chi, omega^-2, chi*mu', 1
Parentheses group, nested at most NEST_MAX deep.  Character names: chi,
omega, omega', mu, mu', eta, eta', xiF, xiF'; powers with ^, products
with *.

>>> parse_expr("Ad(pi) (x) Ad(pi) tw chi").degree
9
>>> [e.pretty() for e, m in parse_expr("Sym^3(pi) ~").entries]
['Sym^3(pi) tw om_pi^-3']
"""

from __future__ import annotations

import re

from . import InputError
from .chargroup import ONE, STD_GENERATORS, FormalCharacter, gen
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


CHAR_NAMES = {
    "chi": "chi",
    "omega": "om_pi",
    "omega'": "om_pi'",
    "mu": "mu_pi",
    "mu'": "mu_pi'",
    "eta": "eta_pi",
    "eta'": "eta_pi'",
    "xiF": "xiF_pi",
    "xiF'": "xiF_pi'",
}

# largest m accepted in Sym^m: expanding a same-base Sym^m (x) Sym^m costs
# about m^2, so without a cap one numeral could make a short expression slow
SYM_MAX = 64

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
        if m is None or m.end() == pos:
            rest = src[pos:].lstrip()
            if not rest:
                break
            raise ExprError(f"cannot read expression at {rest[:20]!r}")
        pos = m.end()
        for kind in ("op", "punct", "int", "name"):
            val = m.group(kind)
            if val is not None:
                if kind == "int" and len(val.lstrip("-")) > NUMERAL_DIGITS:
                    raise ExprError(
                        f"numeral {val[:12]}... has more than {NUMERAL_DIGITS} digits"
                    )
                toks.append((kind, val))
                break
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
        acc = self.term()
        while self.peek() == ("op", "(+)"):
            self.next()
            acc = acc + self.term()
        return acc

    # term := postfix { "(x)" postfix }
    def term(self) -> VirtualRep:
        acc = self.postfix()
        while self.peek() == ("op", "(x)"):
            self.next()
            acc = rs_product(acc, self.postfix())
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
                c = self.charprod()
                acc = acc.map_twists(lambda t, c=c: t * c)
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
        if k == "int" and v == "1":
            self.next()
            return VirtualRep.of(char_atom(ONE))
        if k != "name":
            raise ExprError(f"expected an atom, got {v or 'end of input'!r}")
        if v in ("Sym", "Ad"):
            return self.lift()
        if v in ("pi", "pi'"):
            self.next()
            return VirtualRep.of(sym_atom(v, 1))
        if v in OPAQUE:
            self.next()
            return VirtualRep.of(opaque_atom(v))
        if v in CHAR_NAMES or v in ("one", "zeta"):
            return VirtualRep.of(char_atom(self.charprod()))
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
        else:
            m = 2
        self.expect("punct", "(")
        _bk, base = self.next()
        if base not in ("pi", "pi'"):
            raise ExprError(f"lift base must be pi or pi', got {base!r}")
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
        k, v = self.next()
        if k == "int" and v == "1":
            base = ONE
        elif k == "name" and v in ("one", "zeta"):
            base = ONE
        elif k == "name" and v in CHAR_NAMES:
            base = gen(CHAR_NAMES[v])
        elif k == "name" and v in STD_GENERATORS:
            base = gen(v)
        else:
            raise ExprError(f"expected a character name, got {v!r}")
        if self.peek() == ("punct", "^"):
            self.next()
            ik, iv = self.next()
            if ik != "int":
                raise ExprError("character power must be an integer")
            base = base ** int(iv)
        return base


def parse_expr(src: str) -> VirtualRep:
    """Parse the linear form into a normalized multiset value."""
    p = _Parser(src)
    out = p.expr()
    if p.peek() != ("end", ""):
        raise ExprError(f"trailing input at {p.peek()[1]!r}")
    return out

