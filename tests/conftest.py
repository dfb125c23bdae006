import json

import pytest

from talex.algebra import (
    INTEGERS,
    LaurentPolynomial,
    PolyMatrix,
    coefficient_cell,
)
from talex.homsearch import evaluate_word
from talex.knots import (
    KnotPresentation,
    PDCode,
    abelian_exponent,
    bundled_table,
    bundled_table_path,
    simplify_presentation,
)


def bundled_pd_codes() -> dict[str, PDCode]:
    """The PD entries of the bundled table, before any simplification."""
    with open(bundled_table_path(), encoding="utf-8") as fh:
        entries = json.load(fh)["knots"]
    return {e["name"]: PDCode.parse(e["pd"]) for e in entries if "pd" in e}


@pytest.fixture(scope="session")
def table():
    return bundled_table()


@pytest.fixture(scope="session")
def trefoil(table):
    return table["3_1"]


@pytest.fixture(scope="session")
def figure_eight(table):
    return table["4_1"]


def connected_sum(a, b):
    """Both presentations with the meridians x_1 = y_1, simplified."""
    shift = a.generators
    relators = a.relators + tuple(
        tuple(x + shift if x > 0 else x - shift for x in r)
        for r in b.relators) + ((1, -(shift + 1)),)
    return simplify_presentation(
        KnotPresentation(a.generators + b.generators, relators))


def poly(coeffs, min_exp=0, domain=INTEGERS):
    """Ascending coefficient list starting at t^min_exp."""
    return LaurentPolynomial.make(domain, min_exp, coeffs)


def dense_rep_phi(element, f, rep, domain, scale=1):
    """Oracle for twisted.evaluate_rep_phi: each image is built as a dense
    matrix from its column map and added cell by cell over all dim^2
    entries.  A scale other than 1 (a unit of F_p) twists every term c*w
    by scale^phi(w), which substitutes t -> scale*t."""
    dim = rep.dimension
    cells = [[{} for _ in range(dim)] for _ in range(dim)]
    for word, c in element.items():
        perm = rep.perms[evaluate_word(f.group, f.images, word)]
        mat = [[int(perm[j] == i) for j in range(dim)] for i in range(dim)]
        e = abelian_exponent(word)
        if scale != 1:
            c *= pow(scale, e, domain.p)
        for i in range(dim):
            for j in range(dim):
                if mat[i][j]:
                    cells[i][j][e] = cells[i][j].get(e, 0) + c * mat[i][j]
    return PolyMatrix.from_rows(
        [[LaurentPolynomial(domain, *coefficient_cell(cell, domain.p))
          for cell in row] for row in cells])


def fuzz_json(rng, depth=2):
    """A random JSON value: a scalar of any JSON type, a list of small
    ints, or (above depth 0) a list or object of such values."""
    kind = rng.randrange(7 if depth else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-2, 4)
    if kind == 2:
        return rng.choice([2.5, 1.0, -0.0])
    if kind == 3:
        return rng.choice(["", "k", "2"])
    if kind == 4:
        return [rng.randint(-3, 3) for _ in range(rng.randrange(4))]
    if kind == 5:
        return [fuzz_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {rng.choice(["k", "knots", "order", "table"]):
            fuzz_json(rng, depth - 1) for _ in range(rng.randrange(3))}


def fuzz_object(rng, fields):
    """An object with a random subset of the fields: each present one
    holds a plausible value, fields[key](rng), or any fuzz_json value."""
    return {key: make(rng) if rng.random() < 0.8 else fuzz_json(rng)
            for key, make in fields.items() if rng.random() < 0.8}
