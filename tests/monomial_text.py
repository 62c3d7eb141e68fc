"""Monomials, binomials and monomial ideals from their text form, for tests.

`parse_monomial` inverts `Monomial.text` for the default variable names,
`parse_binomial` inverts `Binomial.text` (the result is canonically
oriented, so a binomial quoted sign-flipped parses to the same value), and
`ideal` builds a `MonomialIdeal` from monomial texts.  The package itself
never reads monomial text.

`divides`, `scale` and `contains` are the monomial divisibility, the
multiple of a binomial and the ideal membership that the tests read; the
package itself does not need them.
"""
from reeslab.core import Binomial, Monomial, MonomialIdeal, ground_names, rees_names


def parse_monomial(text: str, n: int, m: int = 0) -> Monomial:
    """Inverse of `Monomial.text` for the default variable names."""
    gnames, rnames = ground_names(n), rees_names(m)
    g, r = [0] * n, [0] * m
    text = text.strip()
    if text == "1":
        return Monomial(tuple(g), tuple(r))
    for factor in text.split("*"):
        if "^" in factor:
            name, _, exp = factor.partition("^")
            e = int(exp)
        else:
            name, e = factor, 1
        name = name.strip()
        if name in gnames:
            g[gnames.index(name)] += e
        elif name in rnames:
            r[rnames.index(name)] += e
        else:
            raise ValueError(f"unknown variable {name!r} in {text!r}")
    return Monomial(tuple(g), tuple(r))


def parse_binomial(text: str, n: int, m: int = 0) -> Binomial:
    left, sep, right = text.partition(" - ")
    if not sep:
        raise ValueError(f"not a binomial: {text!r}")
    return Binomial(parse_monomial(left, n, m), parse_monomial(right, n, m))


def ideal(*texts: str, nvars: int | None = None) -> MonomialIdeal:
    """A monomial ideal from monomial text, e.g. ideal('x^2', 'y^2', 'x*y');
    without `nvars`, the ring is x, y, z up to the last one named."""
    if nvars is None:
        nvars = max((i + 1 for i, name in enumerate(ground_names(3)) if any(name in t for t in texts)), default=1)
    return MonomialIdeal([parse_monomial(t, nvars) for t in texts], nvars)


def divides(a: Monomial, b: Monomial) -> bool:
    """Whether a divides b."""
    return b.divide(a) is not None


def scale(h: Binomial, m: Monomial) -> Binomial:
    """The binomial m*h."""
    return Binomial(h.lead * m, h.trail * m)


def contains(i: MonomialIdeal, m: Monomial) -> bool:
    """Whether the monomial m lies in the monomial ideal i: some generator
    divides it."""
    return any(divides(g, m) for g in i.gens)
