"""Seeded random generators for elements, matrices and forms.

All sampling is driven by an explicit random.Random instance so every
caller is reproducible.  Entries are kept small: rand_fieldelem and
rand_delem take a span, and the matrix samplers all use span 2.  All
downstream arithmetic is exact, so the samples certify whatever they
witness.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgebraWithInvolution, DElem, DivisionAlgebraDesc, MatD
from .errors import Singular
from .field import FieldDesc, FieldElem

__all__ = [
    "rand_fieldelem",
    "rand_positive_at",
    "rand_delem",
    "rand_matd",
    "rand_hermitian",
    "rand_symmetric",
    "rand_invertible_symmetric",
    "rand_hermitian_form_gram",
]


def rand_fieldelem(rng: random.Random, field: FieldDesc, span: int = 3) -> FieldElem:
    """a + b*sqrt(d) with integers |a|, |b| <= span; b = 0 over Q and
    with probability 0.3 otherwise."""
    a = Fraction(rng.randint(-span, span))
    if field.d is None:
        return field.elem(a)
    b = Fraction(rng.randint(-span, span)) if rng.random() < 0.7 else Fraction(0)
    return field.elem(a, b)


def rand_positive_at(rng: random.Random, field: FieldDesc, p: int) -> FieldElem:
    """A field element strictly positive at ordering p."""
    while True:
        x = rand_fieldelem(rng, field)
        if x.sign_at(p) == 1:
            return x


def rand_delem(rng: random.Random, div: DivisionAlgebraDesc, span: int = 3) -> DElem:
    """Each coordinate rand_fieldelem(span) with probability 0.8, else 0."""
    coords = tuple(
        rand_fieldelem(rng, div.base, span)
        if rng.random() < 0.8
        else div.base.zero()
        for _ in range(div.dim)
    )
    return DElem(div, coords)


def rand_matd(
    rng: random.Random, div: DivisionAlgebraDesc, rows: int, cols: int
) -> MatD:
    """rows x cols matrix of rand_delem entries with span 2."""
    return MatD(
        div, [[rand_delem(rng, div, 2) for _ in range(cols)] for _ in range(rows)]
    )


def rand_hermitian(
    rng: random.Random,
    div: DivisionAlgebraDesc,
    n: int,
    singular: bool = False,
) -> MatD:
    """Random theta-hermitian n x n matrix; optionally of deficient rank.

    Built as theta_t(R) * diag(d) * R with field diagonal d, so hermitian
    by construction; singular=True zeroes part of the diagonal.
    """
    d = []
    for i in range(n):
        if singular and (i == n - 1 or rng.random() < 0.4):
            d.append(div.base.zero())
        else:
            val = rand_fieldelem(rng, div.base, 2)
            d.append(val if not val.is_zero() else div.base.one())
    diag = MatD.diagonal(div, [div.from_field(c) for c in d])
    r = rand_matd(rng, div, n, n)
    return r.theta_t() * diag * r


def rand_symmetric(rng: random.Random, alg: AlgebraWithInvolution) -> MatD:
    """Random sigma-symmetric element, built as y + sigma(y)."""
    y = rand_matd(rng, alg.div, alg.ell, alg.ell)
    return y + alg.sigma(y)


def rand_invertible_symmetric(rng: random.Random, alg: AlgebraWithInvolution) -> MatD:
    """Random sigma-symmetric unit (rejection sampling)."""
    while True:
        x = rand_symmetric(rng, alg)
        try:
            x.inverse()
        except Singular:
            continue
        return x


def rand_hermitian_form_gram(
    rng: random.Random,
    alg: AlgebraWithInvolution,
    rank: int,
    nonsingular: bool = False,
) -> MatD:
    """Flattened Gram of a random sigma-hermitian form of the given rank:
    diagonal blocks y + sigma(y), block (j, i) sigma of block (i, j), for
    i < j, all from rand_matd; nonsingular=True resamples until invertible."""
    ell = alg.ell
    while True:
        blocks = [[None] * rank for _ in range(rank)]
        for i in range(rank):
            y = rand_matd(rng, alg.div, ell, ell)
            blocks[i][i] = y + alg.sigma(y)
            for j in range(i + 1, rank):
                b = rand_matd(rng, alg.div, ell, ell)
                blocks[i][j] = b
                blocks[j][i] = alg.sigma(b)
        gram = MatD.from_blocks(alg.div, blocks)
        if not nonsingular:
            return gram
        try:
            gram.inverse()
        except Singular:
            continue
        return gram
