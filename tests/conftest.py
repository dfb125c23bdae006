import json

import pytest

from talex.algebra import INTEGERS, LaurentPolynomial
from talex.knots import PDCode, bundled_table, bundled_table_path


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


def poly(coeffs, min_exp=0, domain=INTEGERS):
    """Ascending coefficient list starting at t^min_exp."""
    return LaurentPolynomial.make(domain, min_exp, coeffs)
