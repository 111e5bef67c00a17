"""The tuple-keyed integer kernel of ``arith``, kept as a differential oracle.

Here a polynomial is carried as ``(d, {exps: n})``, the sum of
``n * x^exps / d``, keyed by exponent tuples: a product sums the exponents of
each pair of terms with ``tuple(map(add, e1, e2))``, and the parser reads its
tokens with ``_peek`` and ``_next``.  ``arith`` packs each monomial into one
int instead; every answer, dict order and error message must stay the same,
so the tests compare ``parse``, ``times``, ``power`` and ``substitute`` here
with the library's, terms and their order alike.  Nothing here depends on a
field width, so results of any degree are compared."""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add

from truncmod.arith import ArithError, Poly, PolyRing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)
_MAX_NESTING = 100
_MAX_EXPONENT = 1000


def _integer_form(terms):
    d = lcm(*[c.denominator for c in terms.values()])
    return d, {e: c.numerator * (d // c.denominator) for e, c in terms.items()}


def _leave(ring, form):
    d, nums = form
    if d == 1:
        return Poly(ring, {e: Fraction(n) for e, n in nums.items()})
    return Poly(ring, {e: Fraction(n, d) for e, n in nums.items()})


def _product(p, q, below):
    """The product of two integer forms; with ``below = (i, b)`` no pair of
    terms whose exponents at variable ``i`` sum to ``b`` or more is formed.
    Output terms keep the order in which the convolution first forms them,
    and the result is divided by the gcd of its denominator and numerators."""
    d1, nums1 = p
    d2, nums2 = q
    terms2 = list(nums2.items())
    if below is None:
        rows = [(e1, c1, terms2) for e1, c1 in nums1.items()]
    else:
        i, b = below
        right = {}
        rows = []
        for e1, c1 in nums1.items():
            room = b - e1[i]
            if room > 0:
                if room not in right:
                    right[room] = [t for t in terms2 if t[0][i] < room]
                rows.append((e1, c1, right[room]))
    acc = {}
    get = acc.get
    for e1, c1, row in rows:
        for e2, c2 in row:
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2
    nums = {e: c for e, c in acc.items() if c}
    d = d1 * d2
    if d > 1:
        g = gcd(d, *nums.values())
        if g > 1:
            return d // g, {e: c // g for e, c in nums.items()}
    return d, nums


def _sum(p, q):
    """``p + q`` over the lcm of the denominators: the terms of ``p`` in
    order, less those that cancel, then the new terms of ``q`` in order."""
    d1, nums1 = p
    d2, nums2 = q
    d = lcm(d1, d2)
    m1, m2 = d // d1, d // d2
    nums = {e: c * m1 for e, c in nums1.items()} if m1 > 1 else dict(nums1)
    for e, c in nums2.items():
        s = nums.get(e, 0) + c * m2
        if s:
            nums[e] = s
        else:
            nums.pop(e, None)
    return d, nums


def _negative(p):
    d, nums = p
    return d, {e: -c for e, c in nums.items()}


def _power(base, k, below, nvars):
    """``base ** k``, every product bounded by ``below``."""
    result = (1, {(0,) * nvars: 1})
    while k:
        if k & 1:
            result = _product(result, base, below)
        k >>= 1
        if k:
            base = _product(base, base, below)
    return result


class _Parser:
    """Recursive-descent parser for the canonical polynomial text form.
    Every step works on integer forms; the result leaves as one ``Poly``."""

    def __init__(self, ring, text, below=None):
        self.ring = ring
        self.text = text
        self.below = below
        self.zero = (0,) * ring.nvars
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.depth = 0

    def _tokenize(self, text):
        tokens = []
        i = 0
        end = len(text.rstrip())
        while i < end:
            m = _TOKEN_RE.match(text, i)
            if not m:
                raise ArithError(f"bad character at position {i} in {text!r}")
            tokens.append(m.group(m.lastgroup))
            i = m.end()
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ArithError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self):
        p = self._expr()
        if self._peek() is not None:
            raise ArithError(f"trailing input {self.tokens[self.pos:]} in {self.text!r}")
        return _leave(self.ring, p)

    def _expr(self):
        negate = False
        while self._peek() in ("+", "-"):
            if self._next() == "-":
                negate = not negate
        p = self._term()
        if negate:
            p = _negative(p)
        while self._peek() in ("+", "-"):
            op = self._next()
            q = self._term()
            p = _sum(p, q if op == "+" else _negative(q))
        return p

    def _term(self):
        p = self._factor()
        while self._peek() in ("*", "/"):
            op = self._next()
            q = self._factor()
            if op == "*":
                p = _product(p, q, self.below)
            else:
                dq, nq = q
                if list(nq) != [self.zero]:
                    raise ArithError(f"division only by nonzero constants in {self.text!r}")
                c = nq[self.zero]
                p = _product(p, (abs(c), {self.zero: dq if c > 0 else -dq}), None)
        return p

    def _factor(self):
        p = self._atom()
        while self._peek() in ("^", "**"):
            self._next()
            sign = 1
            while self._peek() == "-":
                self._next()
                sign = -sign
            k = self._next()
            if not k.isdigit():
                raise ArithError(f"exponent must be an integer, got {k!r}")
            if sign < 0:
                raise ArithError("negative exponents are not supported")
            digits = k.lstrip("0") or "0"
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
                raise ArithError(f"exponent above the limit {_MAX_EXPONENT}")
            p = _power(p, int(digits), self.below, self.ring.nvars)
        return p

    def _atom(self):
        tok = self._next()
        if tok in ("(", "-"):
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ArithError(f"polynomial nested deeper than {_MAX_NESTING} levels")
            if tok == "(":
                p = self._expr()
                if self._next() != ")":
                    raise ArithError(f"unbalanced parentheses in {self.text!r}")
            else:
                p = _negative(self._atom())
            self.depth -= 1
            return p
        if tok.isdigit():
            try:
                n = int(tok)
            except ValueError as exc:  # more digits than int() converts
                raise ArithError(f"integer constant of {len(tok)} digits") from exc
            return 1, ({self.zero: n} if n else {})
        index = self.ring._index.get(tok)
        if index is not None:
            exps = [0] * self.ring.nvars
            exps[index] = 1
            return 1, {tuple(exps): 1}
        raise ArithError(f"unknown symbol {tok!r} (variables are {self.ring.variables})")


# -- the operations, as ``PolyRing.parse`` and ``Poly`` ran them -------------------


def parse(ring: PolyRing, text: str, below=None) -> Poly:
    return _Parser(ring, text, below).parse()


def times(p: Poly, q: Poly, below=None) -> Poly:
    if not p.terms or not q.terms:
        return p.ring.zero()
    return _leave(p.ring, _product(_integer_form(p.terms), _integer_form(q.terms), below))


def power(p: Poly, k: int, below=None) -> Poly:
    return _leave(p.ring, _power(_integer_form(p.terms), k, below, p.ring.nvars))


def substitute(p: Poly, images: dict, below=None) -> Poly:
    """``p`` at ``var -> images[var]``, for a nonzero ``p`` and images over
    one ring."""
    target = next(iter(images.values())).ring
    powers = {}
    zero = (0,) * target.nvars
    out = (1, {})
    for e, c in p.terms.items():
        term = (c.denominator, {zero: c.numerator})
        for v, k in zip(p.ring.variables, e):
            if k:
                ladder = powers.get(v)
                if ladder is None:
                    ladder = powers[v] = [_integer_form(images[v].terms)]
                while len(ladder) < k:
                    ladder.append(_product(ladder[-1], ladder[0], below))
                term = _product(term, ladder[k - 1], below)
        out = _sum(out, term)
    return _leave(target, out)
