"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are stored sparsely as a mapping from exponent tuples to
``fractions.Fraction`` coefficients.  A :class:`PolyRing` fixes the variable
names and the active monomial order; every :class:`Poly` carries a reference
to its ring.  The canonical text form (descending terms, reduced fraction
coefficients, ``x^2*y`` monomials) round-trips through :meth:`PolyRing.parse`.

Products are computed on integers.  Inside the module a polynomial is carried
in one integer form, ``(d, {m: n})``, meaning the sum of ``n * x^m / d`` with
``d > 0``, where each monomial ``m`` is packed into one int by the ring's
``_Packing``: the exponent of the k-th variable in field ``k`` and the total
degree in the top field, each field under a guard bit.  A polynomial is
packed once, where it enters the form (``_integer_form``, and the parser's
atoms), and unpacked once, in ``_leave``, where it leaves as a ``Poly`` with
one normalised ``Fraction`` a term.  One convolution, ``_product``, multiplies
two forms: it adds packed monomials, reads a bounded variable's exponent
from its field, convolves the integer numerators and multiplies the
denominators.  ``Poly.times``, ``Poly.power``, ``Poly.substitute`` and every
step of the parser stay in this form between products.  Integer arithmetic
is exact, so every answer equals the term-by-term ``Fraction`` computation,
with the same terms in the same order.  Powers use binary exponentiation and
square only while exponent bits remain.

A product outgrows its fields exactly when its degree does, which one test
of its largest monomial against the degree's guard bit finds; the product
then raises ``_Overflow``, and the ring redoes the whole operation with
fields twice as wide and keeps the wider packing.

A ring may carry a bound ``(variable index, bound)``, and then every
product, power, substitution into it and parse in it leaves out the terms
whose exponent at that variable reaches the bound, without forming them.
This is how the truncated ring ``R[t]/(t^n)`` multiplies without building
the terms it would drop.

The parser checks its text with one regex ``match``, splits it with one
``findall`` and reads the token list, which ends in the sentinel ``None``.
Most of its products have one term a side: it multiplies two one-term forms
with one int add, bounded and divided by the gcd as ``_product`` would.
It raises to a power with ``_power``, as ``Poly.power`` does.
"""

from __future__ import annotations

import re
from collections.abc import Hashable, Iterable
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg

Exponents = tuple[int, ...]
# (variable index, bound): a product in a ring with this bound keeps only the
# terms whose exponent at that variable stays below the bound.
Bound = tuple[int, int]
# The integer form ``(d, {m: n})`` of the polynomial sum(n * x^m) / d: each
# monomial ``m`` is packed by the ring's ``_Packing``, ``d > 0`` and every
# ``n`` is a nonzero int.
_IntPoly = tuple[int, dict[int, int]]

_TOKEN = r"\d+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*/^()]"
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")
# The longest run of tokens from the start, then whitespace: a text is valid
# when the match reaches its end, and group 1 ends where its last token does.
# Nothing after the greedy ``*`` can fail, so the match never backtracks into
# a token it has read, and it is linear in the text.
_TEXT_RE = re.compile(rf"(\s*(?:{_TOKEN}))*\s*")
# Deepest nesting of parentheses and prefix minus signs the parser accepts;
# each level costs a few Python frames, so this keeps far below the
# interpreter's recursion limit.
_MAX_NESTING = 100
# Largest exponent the parser accepts.  A power is computed in full, so an
# unbounded exponent would run without bound; the largest exponent any test
# or benchmark job uses is 12.
_MAX_EXPONENT = 1000
# Bits per packed field of the first packing a ring, or a ``groebner`` span,
# tries: monomials of total degree below 2^_WIDTH fit.
_WIDTH = 15


class ArithError(ValueError):
    """Raised for malformed polynomial input or ring mismatches."""


def agree(error: type[ArithError], question: str, **answers):
    """The common answer of independent routes to one question.

    Each keyword names a route and carries that route's answer.  When any
    two answers differ, ``error`` is raised naming the question, every
    route and what each route answered."""
    first, *rest = answers.values()
    if any(answer != first for answer in rest):
        said = ", ".join(f"{route}={answer}" for route, answer in answers.items())
        raise error(f"{question}: routes disagree: {said}")
    return first


def _grevlex_key(exps: Exponents) -> tuple:
    # Larger total degree wins; ties broken by the smaller exponent at the
    # last position where they differ (classic graded reverse lex).
    return (sum(exps), tuple(map(neg, reversed(exps))))


class MonomialOrder:
    """A monomial order: ``lex``, ``grevlex``, or a two-block elimination
    order (grevlex within each block, first block dominant).

    ``key(exps)`` returns a tuple that sorts ascending with the order, so
    ``max(terms, key=order.key)`` picks the leading monomial.
    """

    def __init__(self, kind: str, block_split: int | None = None):
        if kind not in ("lex", "grevlex", "block"):
            raise ArithError(f"unknown monomial order {kind!r}")
        if (kind == "block") != (block_split is not None):
            raise ArithError("block orders need a split index, others must not have one")
        self.kind = kind
        self.block_split = block_split

    def key(self, exps: Exponents) -> tuple:
        if self.kind == "lex":
            return exps
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        k = self.block_split
        return (_grevlex_key(exps[:k]), _grevlex_key(exps[k:]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block_split == other.block_split
        )

    def __repr__(self) -> str:
        if self.kind == "block":
            return f"MonomialOrder('block', block_split={self.block_split})"
        return f"MonomialOrder({self.kind!r})"


def lex() -> MonomialOrder:
    return MonomialOrder("lex")


def grevlex() -> MonomialOrder:
    return MonomialOrder("grevlex")


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def matrix_rank(rows: Iterable[dict]) -> int:
    """Rank over Q of a matrix given as sparse rows.

    Each row maps hashable column keys to exact entries (``Fraction`` or
    ``int``); a missing key is a zero entry, and the rows are not modified.
    Each row is reduced against the pivot rows found so far, keys that
    cancel are deleted, and a row that does not reduce to zero becomes a
    pivot row, scaled to 1 at its first key.  Rank is invariant under
    transposition, so a matrix may equally be passed by its columns.
    """
    pivots: list[tuple[Hashable, dict]] = []
    for row in rows:
        row = {k: v for k, v in row.items() if v != 0}
        for pk, pr in pivots:
            f = row.get(pk)
            if f is None:
                continue
            for k, v in pr.items():
                w = row.get(k, 0) - f * v
                if w != 0:
                    row[k] = w
                else:
                    row.pop(k, None)
        if row:
            lead, a = next(iter(row.items()))
            inv = Fraction(1) / a
            pivots.append((lead, {k: v * inv for k, v in row.items()}))
    return len(pivots)


class _Overflow(Exception):
    """A packed monomial, or a ``groebner`` term, outgrew its fields."""


class _Packing:
    """The packing of the monomials in ``nvars`` variables into ints, with
    fields ``width`` bits wide; the ``groebner`` codec builds its order,
    position and block fields above these.

    Field ``k`` holds bits ``k * (width + 1)`` up, with its guard bit on
    top: the exponent of the k-th variable in fields ``0..nvars-1`` and the
    total degree in field ``nvars``, from bit ``dshift``.  ``units[k]`` is
    the packing of the k-th variable, so ``x^e`` packs to
    ``sum(e_k * units[k])``, the constant monomial to 0, and a product of
    monomials to the sum of their packings.  Every field is at most the
    degree, so a sum of packings outgrows its fields exactly when its degree
    does, and then it is ``top`` or more."""

    __slots__ = ("width", "mask", "top", "dshift", "shifts", "units")

    def __init__(self, nvars: int, width: int):
        step = width + 1
        self.width = width
        self.mask = (1 << width) - 1
        self.shifts = range(0, nvars * step, step)
        self.dshift = nvars * step
        self.top = 1 << (self.dshift + width)
        self.units = [(1 << shift) + (1 << self.dshift) for shift in self.shifts]

    def pack(self, exps: Exponents) -> int:
        if sum(exps) > self.mask:
            raise _Overflow
        return sum(map(mul, exps, self.units))

    def unpack(self, m: int) -> Exponents:
        mask = self.mask
        return tuple([(m >> shift) & mask for shift in self.shifts])


def _integer_form(terms: dict[Exponents, Fraction], packing: _Packing) -> _IntPoly:
    """The integer form of a ``Poly``'s terms over the lcm of their
    denominators, each monomial packed."""
    d = lcm(*[c.denominator for c in terms.values()])
    pack = packing.pack
    return d, {pack(e): c.numerator * (d // c.denominator) for e, c in terms.items()}


def _leave(ring: PolyRing, form: _IntPoly, packing: _Packing) -> Poly:
    """The ``Poly`` of an integer form, each monomial unpacked and one
    normalised ``Fraction`` a term."""
    d, nums = form
    unpack = packing.unpack
    if d == 1:
        return Poly(ring, {unpack(m): Fraction(n) for m, n in nums.items()})
    return Poly(ring, {unpack(m): Fraction(n, d) for m, n in nums.items()})


def _product(p: _IntPoly, q: _IntPoly, below: Bound | None, packing: _Packing) -> _IntPoly:
    """The product of two integer forms; with ``below = (i, b)`` no pair of
    terms whose exponents at variable ``i`` sum to ``b`` or more is formed.
    Output terms keep the order in which the convolution first forms them,
    and the result is divided by the gcd of its denominator and numerators.
    Raises ``_Overflow`` when a monomial it forms outgrows ``packing``."""
    d1, nums1 = p
    d2, nums2 = q
    terms2 = list(nums2.items())
    if below is None:
        rows = [(m1, c1, terms2) for m1, c1 in nums1.items()]
    else:
        # A left term that cannot reach the bound with the right factor's
        # largest exponent at ``i`` meets all of ``terms2``, as in the plain
        # convolution; one that can meets only the right terms with room
        # left below the bound, an order-keeping sublist shared by every
        # left term with the same exponent at ``i``.
        shift, mask = packing.shifts[below[0]], packing.mask
        b = below[1]
        top2 = 0
        for m2 in nums2:
            e = (m2 >> shift) & mask
            if e > top2:
                top2 = e
        right: dict[int, list[tuple[int, int]]] = {}
        rows = []
        for m1, c1 in nums1.items():
            room = b - ((m1 >> shift) & mask)
            if room > top2:
                rows.append((m1, c1, terms2))
            elif room > 0:
                if room not in right:
                    right[room] = [t for t in terms2 if ((t[0] >> shift) & mask) < room]
                rows.append((m1, c1, right[room]))
    acc: dict[int, int] = {}
    get = acc.get
    for m1, c1, row in rows:
        for m2, c2 in row:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    if acc and max(acc) >= packing.top:
        raise _Overflow
    nums = {m: c for m, c in acc.items() if c}
    d = d1 * d2
    if d > 1:
        g = gcd(d, *nums.values())
        if g > 1:
            return d // g, {m: c // g for m, c in nums.items()}
    return d, nums


def _sum(p: _IntPoly, q: _IntPoly) -> _IntPoly:
    """``p + q`` over the lcm of the denominators: the terms of ``p`` in
    order, less those that cancel, then the new terms of ``q`` in order.
    The dict of ``p`` is updated in place, so a sum of n terms costs O(n),
    not O(n^2); every caller passes a ``p`` that nothing else holds."""
    d1, nums = p
    d2, nums2 = q
    d = lcm(d1, d2)
    m1, m2 = d // d1, d // d2
    if m1 > 1:
        for m in nums:
            nums[m] *= m1
    for m, c in nums2.items():
        s = nums.get(m, 0) + c * m2
        if s:
            nums[m] = s
        else:
            nums.pop(m, None)
    return d, nums


def _negative(p: _IntPoly) -> _IntPoly:
    d, nums = p
    return d, {m: -c for m, c in nums.items()}


def _power(base: _IntPoly, k: int, below: Bound | None, packing: _Packing) -> _IntPoly:
    """``base ** k``, every product bounded by ``below``."""
    # Right-to-left binary method: bit_length(k) - 1 squarings and one
    # product per set bit; the square after the top bit would go unread.
    result = (1, {0: 1})
    while k:
        if k & 1:
            result = _product(result, base, below, packing)
        k >>= 1
        if k:
            base = _product(base, base, below, packing)
    return result


class PolyRing:
    """Q[variables] with a fixed monomial order, and the packing of its
    monomials that products inside this module use.  With ``below = (i, b)``
    every product in the ring leaves out the terms whose exponent at
    variable ``i`` reaches ``b``."""

    def __init__(self, variables: tuple[str, ...] | list[str], order: MonomialOrder | None = None,
                 below: Bound | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ArithError(f"duplicate variable names in {variables}")
        self.variables = variables
        self.nvars = len(variables)
        self.order = order if order is not None else grevlex()
        self.below = below
        self._index = {v: i for i, v in enumerate(variables)}
        self._packing = _Packing(self.nvars, _WIDTH)

    def _packed(self, operation):
        """``operation(packing)`` with fields wide enough for every monomial
        it forms: when one outgrows them, the ring's packing doubles its
        width and the operation starts over."""
        while True:
            packing = self._packing
            try:
                return operation(packing)
            except _Overflow:
                self._packing = _Packing(self.nvars, 2 * packing.width)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.order == other.order
            and self.below == other.below
        )

    def __repr__(self) -> str:
        if self.below is not None:
            return f"PolyRing({self.variables}, {self.order!r}, below={self.below})"
        return f"PolyRing({self.variables}, {self.order!r})"

    # -- constructors -------------------------------------------------

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, c) -> Poly:
        c = Fraction(c)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def gen(self, name: str) -> Poly:
        if name not in self._index:
            raise ArithError(f"{name!r} is not a variable of {self.variables}")
        exps = [0] * self.nvars
        exps[self._index[name]] = 1
        return Poly(self, {tuple(exps): Fraction(1)})

    def from_terms(self, terms: dict[Exponents, Fraction]) -> Poly:
        clean = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}
        for e in clean:
            if len(e) != self.nvars or any(x < 0 for x in e):
                raise ArithError(f"bad exponent tuple {e}")
        return Poly(self, clean)

    # -- text form -----------------------------------------------------

    def format(self, p: Poly) -> str:
        if not p.terms:
            return "0"
        parts: list[str] = []
        for exps in sorted(p.terms, key=self.order.key, reverse=True):
            coeff = p.terms[exps]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def parse(self, text: str) -> Poly:
        """Parse ``+ - * / ^`` expressions (also ``**``) over the ring
        variables; division is only by nonzero constants.  Every product
        and power is bounded by the ring's bound as in :meth:`Poly.times`.
        Terms that come from no product, such as a lone variable, are kept,
        so a caller that needs the bound everywhere still drops those."""
        tokens = _tokenize(text)
        return self._packed(lambda packing: _Parser(self, text, tokens, packing).parse())


class Poly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exponents, Fraction]):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        return NotImplemented

    def _coerce(self, other) -> Poly:
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ArithError("mixed rings in polynomial arithmetic")
            return other
        raise ArithError(f"cannot coerce {other!r} into {self.ring!r}")

    def __add__(self, other) -> Poly:
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.ring, terms)

    def __neg__(self) -> Poly:
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Poly:
        return self + (-self._coerce(other))

    def times(self, other) -> Poly:
        """The product with ``other``; when the ring's bound is ``(i, b)``
        every term whose exponent at variable ``i`` would reach ``b`` is
        left out, and no pair of factor terms that would make one is ever
        formed.  This is the unbounded product followed by dropping those
        terms, with the kept terms in the same order."""
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return self.ring.zero()
        ring = self.ring
        return ring._packed(lambda packing: _leave(ring, _product(
            _integer_form(self.terms, packing), _integer_form(other.terms, packing),
            ring.below, packing), packing))

    __mul__ = times

    def __pow__(self, k: int) -> Poly:
        return self.power(k)

    def power(self, k: int) -> Poly:
        """``self ** k``, every product bounded by the ring's bound as in
        :meth:`times`."""
        if not isinstance(k, int) or k < 0:
            raise ArithError(f"polynomial power must be a nonnegative int, got {k!r}")
        ring = self.ring
        return ring._packed(lambda packing: _leave(
            ring, _power(_integer_form(self.terms, packing), k, ring.below, packing), packing))

    # -- inspection ----------------------------------------------------

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nvars, Fraction(0))

    # -- substitution --------------------------------------------------

    def substitute(self, images: dict[str, Poly]) -> Poly:
        """Evaluate the polynomial at ``var -> image`` (images live in the
        target ring; unmapped variables must not occur).  Each image's
        powers are built once, and every product is bounded by the target
        ring's bound as in :meth:`times`."""
        if not self.terms:
            return next(iter(images.values())).ring.zero() if images else self
        target = next(iter(images.values())).ring if images else self.ring
        for v in self.ring.variables:
            if v not in images and any(e[self.ring._index[v]] for e in self.terms):
                raise ArithError(f"no image supplied for variable {v!r}")
        below = target.below

        def evaluate(packing: _Packing) -> Poly:
            # powers[v][k - 1] is the integer form of images[v] ** k, built
            # up to the largest k needed
            powers: dict[str, list[_IntPoly]] = {}
            out: _IntPoly = (1, {})
            for e, c in self.terms.items():
                term = (c.denominator, {0: c.numerator})
                for v, k in zip(self.ring.variables, e):
                    if k:
                        ladder = powers.get(v)
                        if ladder is None:
                            if images[v].ring != target:
                                raise ArithError("mixed rings in polynomial arithmetic")
                            ladder = powers[v] = [_integer_form(images[v].terms, packing)]
                        while len(ladder) < k:
                            ladder.append(_product(ladder[-1], ladder[0], below, packing))
                        term = _product(term, ladder[k - 1], below, packing)
                out = _sum(out, term)
            return _leave(target, out, packing)

        return target._packed(evaluate)

    def __str__(self) -> str:
        return self.ring.format(self)

    def __repr__(self) -> str:
        return f"<Poly {self.ring.format(self)}>"


def _tokenize(text: str) -> list[str | None]:
    """The tokens of ``text``, then the sentinel ``None``."""
    m = _TEXT_RE.match(text)
    end = max(m.end(1), 0)
    if m.end() != len(text):
        raise ArithError(f"bad character at position {end} in {text!r}")
    tokens: list[str | None] = _TOKEN_RE.findall(text, 0, end)
    tokens.append(None)
    return tokens


class _Parser:
    """Recursive-descent parser for the canonical polynomial text form, over
    a token list that ends in ``None``.  Every step works on integer forms
    packed by ``packing``; the result leaves as one ``Poly``."""

    def __init__(self, ring: PolyRing, text: str, tokens: list[str | None], packing: _Packing):
        self.ring = ring
        self.text = text
        self.tokens = tokens
        self.below = ring.below
        self.packing = packing
        self.pos = 0
        self.depth = 0

    def _take(self) -> str:
        """The next token, which must exist."""
        tok = self.tokens[self.pos]
        if tok is None:
            raise ArithError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        p = self._expr()
        if self.tokens[self.pos] is not None:
            raise ArithError(f"trailing input {self.tokens[self.pos:-1]} in {self.text!r}")
        return _leave(self.ring, p, self.packing)

    def _expr(self) -> _IntPoly:
        tokens = self.tokens
        negate = False
        while (tok := tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            if tok == "-":
                negate = not negate
        p = self._term()
        if negate:
            p = _negative(p)
        while (tok := tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            q = self._term()
            p = _sum(p, q if tok == "+" else _negative(q))
        return p

    def _term(self) -> _IntPoly:
        tokens = self.tokens
        p = self._factor()
        while (tok := tokens[self.pos]) in ("*", "/"):
            self.pos += 1
            q = self._factor()
            if tok == "*":
                p = self._times(p, q, self.below)
            else:
                dq, nq = q
                if len(nq) != 1 or 0 not in nq:
                    raise ArithError(f"division only by nonzero constants in {self.text!r}")
                c = nq[0]
                p = self._times(p, (abs(c), {0: dq if c > 0 else -dq}), None)
        return p

    def _times(self, p: _IntPoly, q: _IntPoly, below: Bound | None) -> _IntPoly:
        """``_product(p, q, below, packing)``: two one-term forms multiply
        with one int add, then one read of the bounded field."""
        d1, nums1 = p
        d2, nums2 = q
        packing = self.packing
        if len(nums1) != 1 or len(nums2) != 1:
            return _product(p, q, below, packing)
        [(m1, c1)] = nums1.items()
        [(m2, c2)] = nums2.items()
        m, d, c = m1 + m2, d1 * d2, c1 * c2
        if m >= packing.top:
            raise _Overflow
        if below is not None and ((m >> packing.shifts[below[0]]) & packing.mask) >= below[1]:
            return 1, {}
        if d > 1:
            g = gcd(d, c)
            return d // g, {m: c // g}
        return d, {m: c}

    def _factor(self) -> _IntPoly:
        tokens = self.tokens
        p = self._atom()
        while tokens[self.pos] in ("^", "**"):
            self.pos += 1
            sign = 1
            while tokens[self.pos] == "-":
                self.pos += 1
                sign = -sign
            k = self._take()
            if not k.isdigit():
                raise ArithError(f"exponent must be an integer, got {k!r}")
            if sign < 0:
                raise ArithError("negative exponents are not supported")
            digits = k.lstrip("0") or "0"
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
                raise ArithError(f"exponent above the limit {_MAX_EXPONENT}")
            p = _power(p, int(digits), self.below, self.packing)
        return p

    def _atom(self) -> _IntPoly:
        tok = self._take()
        if tok in ("(", "-"):
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ArithError(f"polynomial nested deeper than {_MAX_NESTING} levels")
            if tok == "(":
                p = self._expr()
                if self._take() != ")":
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
            return 1, ({0: n} if n else {})
        index = self.ring._index.get(tok)
        if index is not None:
            return 1, {self.packing.units[index]: 1}
        raise ArithError(f"unknown symbol {tok!r} (variables are {self.ring.variables})")
