"""The truncated extension R[t]/(t^n) of a polynomial base ring R = Q[x1..xd].

Elements are plain ``Poly``s of ``TruncRing.S``, in the base variables and
t, reduced so that no term carries t^n or higher.  ``S`` carries the bound
t^n, so every product, power, parse and ``AutMap`` substitution in it
truncates as it is formed, and no term of t-degree n or more is built.
``truncate`` is left for what comes from no product in ``S``: text
(``TruncRing.parse``), the images an ``AutMap`` is given, and ``t``
itself, so ``TruncRing.t`` is 0 at n = 1; ``fpmod`` drops a kernel's
terms of t-degree n from its vectors, before they become columns.  Each
function takes one ring's ``Poly``s: ``inject`` those of ``base``,
everything else those of ``S``.  An element is a zero divisor exactly when
its t-free part vanishes; the complement (elements with nonzero t-free
part) is the multiplicative system used for generic-fiber arguments.

Ring substitution maps that fix every variable mod t and scale t by a local
unit form the automorphism groupoid used for double-structure gluing data;
for n = 2 such a map is captured by a derivation-like coefficient vector D
plus a multiplier alpha, with composition law D = D_outer + alpha_outer *
D_inner.
"""

from __future__ import annotations

from .arith import ArithError, MonomialOrder, Poly, PolyRing, grevlex

T_NAME = "t"


class TruncRing:
    """Q[base_vars][t]/(t^n); ``S`` is the ambient polynomial ring, ``base``
    the subring of t-free polynomials."""

    def __init__(self, base_vars: tuple[str, ...] | list[str], n: int,
                 order: MonomialOrder | None = None):
        if n < 1:
            raise ArithError(f"multiplicity must be >= 1, got {n}")
        base_vars = tuple(base_vars)
        if T_NAME in base_vars:
            raise ArithError(f"{T_NAME!r} is reserved for the truncation variable")
        self.n = n
        self.base = PolyRing(base_vars, order or grevlex())
        self.S = PolyRing(base_vars + (T_NAME,), order or grevlex(), below=(len(base_vars), n))
        self.t = self.truncate(self.S.gen(T_NAME))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncRing) and self.S == other.S

    def __repr__(self) -> str:
        return f"TruncRing({self.base.variables}, n={self.n})"

    # -- polynomial plumbing in S ---------------------------------------

    def truncate(self, p: Poly) -> Poly:
        """Reduce mod t^n (drop terms of t-degree >= n)."""
        ti = self.S._index[T_NAME]
        return Poly(self.S, {e: c for e, c in p.terms.items() if e[ti] < self.n})

    def inject(self, p: Poly) -> Poly:
        """Lift a base polynomial into S."""
        if p.ring != self.base:
            raise ArithError("polynomial from a foreign ring")
        return Poly(self.S, {e + (0,): c for e, c in p.terms.items()})

    def drop_t(self, p: Poly) -> Poly:
        """Image in the base ring under t -> 0."""
        ti = self.S._index[T_NAME]
        return Poly(self.base, {e[:-1]: c for e, c in p.terms.items() if e[ti] == 0})

    def t_coefficient(self, p: Poly, k: int) -> Poly:
        """The base polynomial multiplying t^k."""
        ti = self.S._index[T_NAME]
        return Poly(self.base, {e[:-1]: c for e, c in p.terms.items() if e[ti] == k})

    def parse(self, text: str) -> Poly:
        """Parse over S, whose products truncate as they are formed; the
        final ``truncate`` drops what no product made, such as ``t`` when
        n = 1."""
        return self.truncate(self.S.parse(text))


def is_zero_divisor(ring: TruncRing, u: Poly) -> bool:
    """True iff the t-free part of u vanishes (0 counts as a zero divisor)."""
    return ring.t_coefficient(u, 0).is_zero()


def zero_divisor_witness(ring: TruncRing, u: Poly) -> Poly | None:
    """A nonzero v with u*v = 0, when u is a zero divisor; None otherwise.

    For u with vanishing t-free part, t^(n-1) works; in the n = 1 case only
    u = 0 qualifies and any nonzero v annihilates it.
    """
    if not is_zero_divisor(ring, u):
        return None
    return ring.t ** (ring.n - 1)


class AutMap:
    """A substitution endomorphism of R[n]: every base variable maps to
    itself plus a multiple of t, and t maps to alpha*t with alpha a unit at
    the origin.  Such maps are automorphisms locally; composition and
    equality are exact polynomial operations."""

    def __init__(self, ring: TruncRing, var_images: dict[str, Poly], t_image: Poly):
        self.ring = ring
        for v in var_images:
            if v not in ring.base.variables:
                raise ArithError(f"image given for {v!r}, which is not a base "
                                 f"variable of {ring.base.variables}")
        images: dict[str, Poly] = {}
        for v in ring.base.variables:
            img = ring.truncate(var_images.get(v, ring.S.gen(v)))
            if ring.drop_t(img) != ring.base.gen(v):
                raise ArithError(f"image of {v} must reduce to {v} mod t")
            images[v] = img
        t_image = ring.truncate(t_image)
        if not ring.t_coefficient(t_image, 0).is_zero():
            raise ArithError("image of t must be a multiple of t")
        if ring.n >= 2 and ring.t_coefficient(t_image, 1).constant_term() == 0:
            raise ArithError("t must map to (unit at origin) * t")
        self.var_images = images
        self.t_image = t_image

    @classmethod
    def from_deriv(cls, ring: TruncRing, d_coeffs: dict[str, Poly], alpha: Poly) -> AutMap:
        """n = 2 form: x_k -> x_k + D(x_k) t and t -> alpha t, with D given
        by base polynomials and alpha a base polynomial, unit at origin."""
        images = {
            v: ring.S.gen(v) + ring.inject(d) * ring.t
            for v, d in d_coeffs.items()
        }
        return cls(ring, images, ring.inject(alpha) * ring.t)

    def deriv_coeff(self, var: str) -> Poly:
        """D(var): the t-linear coefficient of the image of var (n = 2 data)."""
        return self.ring.t_coefficient(self.var_images[var], 1)

    def alpha(self) -> Poly:
        """The t-linear coefficient of the image of t."""
        return self.ring.t_coefficient(self.t_image, 1)

    def apply(self, p: Poly) -> Poly:
        """Image of a polynomial of S under the map."""
        table = dict(self.var_images)
        table[T_NAME] = self.t_image
        return p.substitute(table)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AutMap)
            and self.ring == other.ring
            and self.var_images == other.var_images
            and self.t_image == other.t_image
        )

    def __repr__(self) -> str:
        imgs = ", ".join(f"{v} -> {img}" for v, img in self.var_images.items())
        return f"<AutMap {imgs}; t -> {self.t_image}>"


def compose(phi: AutMap, psi: AutMap) -> AutMap:
    """The map beta -> phi(psi(beta)) (psi acts first).

    For n = 2 the result's derivation data is D_phi + alpha_phi * D_psi and
    its multiplier is alpha_phi * alpha_psi.
    """
    if phi.ring != psi.ring:
        raise ArithError("automorphisms over different rings")
    var_images = {v: phi.apply(img) for v, img in psi.var_images.items()}
    t_image = phi.apply(psi.t_image)
    return AutMap(phi.ring, var_images, t_image)


def verify_cocycle(phi_ij: AutMap, phi_jk: AutMap, phi_ik: AutMap) -> bool:
    """Whether compose(phi_ij, phi_jk) equals phi_ik exactly."""
    return compose(phi_ij, phi_jk) == phi_ik
