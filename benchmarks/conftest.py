"""Shared fixtures for the experiment suite (E1–E12, A1).

Documents and populated stores are built once per session; every bench
draws from them.  Scale factors are laptop-sized — the experiments
compare *shapes* across schemes, which are scale-stable (see DESIGN.md).
"""

import pytest

from repro.core.registry import create_scheme
from repro.relational.database import Database
from repro.workloads import (
    auction_dtd,
    dblp_dtd,
    generate_auction,
    generate_dblp,
)

#: Display/iteration order of schemes in every experiment.
SCHEMES = ("edge", "binary", "universal", "interval", "dewey", "xrel",
           "inlining")

BASE_SCALE = 0.1
SCALE_SWEEP = (0.05, 0.1, 0.2, 0.4)
SEED = 42

#: Durability profile for every benchmark database: the seed pragmas.
PROFILE = "bulk_load"


def bench_database(path=":memory:"):
    """A database under the suite-wide durability profile."""
    return Database(path, profile=PROFILE)


def scheme_kwargs(name, dtd_factory=auction_dtd):
    return {"dtd": dtd_factory()} if name == "inlining" else {}


@pytest.fixture(scope="session")
def auction_documents():
    """Scale-factor sweep of auction documents."""
    return {
        sf: generate_auction(sf, seed=SEED) for sf in SCALE_SWEEP
    }


@pytest.fixture(scope="session")
def auction_document(auction_documents):
    return auction_documents[BASE_SCALE]


@pytest.fixture(scope="session")
def auction_stores(auction_document):
    """scheme name -> (scheme, doc_id) over the base auction document."""
    stores = {}
    databases = []
    for name in SCHEMES:
        db = bench_database()
        databases.append(db)
        scheme = create_scheme(name, db, **scheme_kwargs(name))
        result = scheme.store(auction_document, "auction")
        stores[name] = (scheme, result.doc_id)
    yield stores
    for db in databases:
        db.close()


@pytest.fixture(scope="session")
def dblp_document():
    return generate_dblp(2000, seed=SEED)


@pytest.fixture(scope="session")
def dblp_stores(dblp_document):
    stores = {}
    databases = []
    for name in SCHEMES:
        db = bench_database()
        databases.append(db)
        scheme = create_scheme(
            name, db, **scheme_kwargs(name, dtd_factory=dblp_dtd)
        )
        result = scheme.store(dblp_document, "dblp")
        stores[name] = (scheme, result.doc_id)
    yield stores
    for db in databases:
        db.close()
