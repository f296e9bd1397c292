"""Document archive: a persistent (file-backed) bibliography store with
point lookups, predicate queries, and in-place updates.

Run:  python examples/document_archive.py
"""

import os
import tempfile

from repro import XmlRelStore, serialize
from repro.updates import delete_subtree, insert_subtree
from repro.workloads import generate_dblp
from repro.xml import parse_fragment


def main() -> None:
    path = os.path.join(tempfile.mkdtemp(prefix="xmlrel-"), "archive.db")
    document = generate_dblp(record_count=1000, seed=7)

    # The dewey scheme: order labels make updates cheap (experiment E7).
    with XmlRelStore.open(path, scheme="dewey") as store:
        doc_id = store.store(document, "dblp-2003")
        print(f"archive at {path}")
        print(f"stored {store.documents()[0].node_count} nodes")

        print("\n-- point lookup by key (value-index driven) --")
        for xml in store.query_xml(
            doc_id, "/dblp/article[@key = 'article/8']/title"
        ):
            print("  ", xml)

        print("\n-- VLDB papers since 2000 --")
        xpath = "/dblp/inproceedings[booktitle = 'VLDB'][year > 1999]/title"
        print("   query   :", xpath)
        titles = store.query(doc_id, xpath)
        for node in titles[:5]:
            print("  ", node.string_value)
        print(f"   ... {len(titles)} results")

        print("\n-- insert a new record, then find it --")
        new_record = parse_fragment(
            "<article key='article/new'>"
            "<author>New Author</author>"
            "<title>A Fresh Look At Shredding.</title>"
            "<year>2003</year><journal>VLDB Journal</journal>"
            "</article>"
        )
        root_pre = store.query_pres(doc_id, "/dblp")[0]
        stats = insert_subtree(
            store.scheme, doc_id, root_pre, new_record, index=0
        )
        print(f"   inserted {stats.rows_inserted} rows, "
              f"relabelled {stats.rows_updated}")
        found = store.query(doc_id, "/dblp/article[@key = 'article/new']")
        print("  ", serialize(found[0])[:70] + "...")

        print("\n-- and delete it again --")
        new_pre = store.query_pres(
            doc_id, "/dblp/article[@key = 'article/new']"
        )[0]
        stats = delete_subtree(store.scheme, doc_id, new_pre)
        print(f"   deleted {stats.rows_deleted} rows")

    # Reopen the file: everything is durable.
    with XmlRelStore.open(path, scheme="dewey") as store:
        print("\n-- reopened the archive --")
        record = store.documents()[0]
        print(f"   {record.name}: {record.node_count} nodes, "
              f"scheme={record.scheme}")
        count = len(store.query_pres(record.doc_id, "//author"))
        print(f"   {count} author elements")


if __name__ == "__main__":
    main()
