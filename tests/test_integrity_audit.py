"""``store.verify`` — the per-scheme integrity audit.

Two halves: every workload document must audit clean under every
scheme, and a deliberately corrupted row in each scheme's tables must
be detected (the shredded analogue of flipping a bit on disk and
running ``PRAGMA integrity_check``).
"""

import pytest

from repro.core.registry import available_schemes
from repro.core.store import XmlRelStore, open_store
from repro.errors import StorageError, UpdateError
from repro.relational.database import Database
from repro.updates import insert_subtree
from repro.workloads import auction_dtd, generate_auction

from tests.conftest import BIB_DTD_XML, make_scheme
from repro.xml.parser import parse_document, parse_fragment

ALL_SCHEMES = available_schemes()


def stored_scheme(name):
    """A scheme over a fresh database with the bib document stored."""
    db = Database()
    doc = parse_document(BIB_DTD_XML)
    scheme = make_scheme(name, db, dtd=doc.dtd)
    doc_id = scheme.store(doc, "bib").doc_id
    return db, scheme, doc_id


class TestCleanDocumentsVerify:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_bib_document_audits_clean(self, scheme_name):
        db, scheme, doc_id = stored_scheme(scheme_name)
        report = scheme.verify_document(doc_id)
        assert report.ok, report.issues
        assert len(report.checks) >= 5
        db.close()

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_auction_workload_audits_clean(self, scheme_name):
        document = generate_auction(0.05, seed=7)
        db = Database()
        scheme = make_scheme(scheme_name, db, dtd=auction_dtd())
        doc_id = scheme.store(document, "auction").doc_id
        report = scheme.verify_document(doc_id)
        assert report.ok, report.issues
        db.close()

    def test_facade_verify_and_verify_all(self):
        with XmlRelStore.open(scheme="interval") as store:
            a = store.store_text("<a><b>x</b></a>")
            b = store.store_text("<c><d y='1'/></c>")
            assert store.verify(a).ok
            reports = store.verify_all()
            assert [r.doc_id for r in reports] == [a, b]
            assert all(r.ok for r in reports)

    def test_report_summary_and_raise(self):
        with open_store(scheme="edge") as store:
            doc_id = store.store_text("<a><b>x</b></a>")
            report = store.verify(doc_id)
            assert "OK" in report.summary()
            report.raise_if_failed()  # no-op when clean
            report.add("demo", "broken on purpose")
            assert not report.ok
            with pytest.raises(StorageError, match="demo"):
                report.raise_if_failed()


class TestCorruptionDetected:
    """One surgical corruption per scheme; verify must flag it."""

    def check_detects(self, scheme_name, corrupt_sql, params, check_ids):
        db, scheme, doc_id = stored_scheme(scheme_name)
        assert scheme.verify_document(doc_id).ok
        db.execute(corrupt_sql, params)
        report = scheme.verify_document(doc_id)
        assert not report.ok, f"{scheme_name} audit missed the corruption"
        assert any(report.failed(c) for c in check_ids), (
            f"expected one of {check_ids} to fail, got "
            f"{[i.check for i in report.issues]}"
        )
        db.close()

    def test_edge_cycle_detected(self):
        # A self-loop disconnects the row from the root forest.
        self.check_detects(
            "edge",
            "UPDATE edge SET source = target WHERE target = "
            "(SELECT MAX(target) FROM edge)",
            (),
            ["edge-connected", "parents-resolve", "reconstruct", "fetch",
             "catalog-count"],
        )

    def test_binary_label_mismatch_detected(self):
        db, scheme, doc_id = stored_scheme("binary")
        table = scheme.partition_for("title")
        db.execute(f"UPDATE {table} SET label = 'not-title'")
        report = scheme.verify_document(doc_id)
        assert report.failed("binary-catalog")
        db.close()

    def test_binary_child_label_pair_audited(self):
        # Clean: the check runs and finds every stored pair.
        db, scheme, doc_id = stored_scheme("binary")
        report = scheme.verify_document(doc_id)
        assert "binary-child-labels" in report.checks
        assert not report.failed("binary-child-labels")
        # A pair removed by hand would drop <title> from every fetch of
        # a <book>: the audit names it.
        db.execute(
            "DELETE FROM binary_child_labels "
            "WHERE parent_label = 'book' AND child_label = 'title'"
        )
        report = scheme.verify_document(doc_id)
        assert [issue.check for issue in report.issues] == [
            "binary-child-labels"
        ]
        assert "('book', 'title')" in report.issues[0].message
        db.close()

    def test_universal_dangling_path_detected(self):
        self.check_detects(
            "universal",
            "UPDATE universal SET path_id = 4242 WHERE rowid = "
            "(SELECT MAX(rowid) FROM universal)",
            (),
            ["universal-paths", "fetch"],
        )

    def test_interval_containment_violation_detected(self):
        # Inflate a mid-document element's region so it escapes its
        # parent's interval.
        self.check_detects(
            "interval",
            "UPDATE accel SET size = size + 10000 "
            "WHERE pre = 2",
            (),
            ["interval-containment", "interval-nesting"],
        )

    def test_interval_level_corruption_detected(self):
        self.check_detects(
            "interval",
            "UPDATE accel SET level = 9 WHERE pre = 2",
            (),
            ["interval-levels"],
        )

    def test_dewey_prefix_break_detected(self):
        self.check_detects(
            "dewey",
            "UPDATE dewey SET parent_label = '0099.0099' WHERE pre = "
            "(SELECT MAX(pre) FROM dewey WHERE parent_label IS NOT NULL)",
            (),
            ["dewey-prefix-closed"],
        )

    def test_dewey_depth_corruption_detected(self):
        self.check_detects(
            "dewey",
            "UPDATE dewey SET depth = depth + 3 WHERE pre = 1",
            (),
            ["dewey-depth"],
        )

    def test_xrel_dangling_path_detected(self):
        self.check_detects(
            "xrel",
            "DELETE FROM xrel_paths WHERE path_id = "
            "(SELECT MAX(path_id) FROM xrel_paths)",
            (),
            ["xrel-paths"],
        )

    def test_xrel_inverted_region_detected(self):
        self.check_detects(
            "xrel",
            'UPDATE xrel_element SET "end" = start - 5 WHERE start = '
            "(SELECT MAX(start) FROM xrel_element)",
            (),
            ["xrel-regions"],
        )

    def test_inlining_orphan_parent_detected(self):
        db, scheme, doc_id = stored_scheme("inlining")
        table = scheme.mapping.relations["book"].table.name
        db.execute(f'UPDATE "{table}" SET parent_pre = 4242')
        report = scheme.verify_document(doc_id)
        assert not report.ok
        assert report.failed("inline-parents") or report.failed(
            "parents-resolve"
        )
        db.close()

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_catalog_count_corruption_detected(self, scheme_name):
        self.check_detects(
            scheme_name,
            # Shrink (not grow) the count: inlining's audit tolerates a
            # catalog count above the stored rows (dropped whitespace)
            # but never below.
            "UPDATE xmlrel_documents SET node_count = node_count - 40",
            (),
            ["catalog-count"],
        )


def six_digit(label):
    """*label* in the six-digit zero-padded form dewey stores wrote
    before components were length-prefixed."""
    return ".".join(
        component[1:].zfill(6) for component in label.split(".")
    )


class TestDeweyLabelForm:
    def test_clean_store_runs_the_check(self):
        db, scheme, doc_id = stored_scheme("dewey")
        report = scheme.verify_document(doc_id)
        assert report.ok, report.issues
        assert "dewey-label-form" in report.checks
        db.close()

    @pytest.mark.parametrize("edit", [
        "label || '0'",              # length digit one short
        "SUBSTR(label, 1, LENGTH(label) - 1) || '0' "
        "|| SUBSTR(label, LENGTH(label))",   # one digit too many
    ])
    def test_hand_edited_label_detected(self, edit):
        db, scheme, doc_id = stored_scheme("dewey")
        db.execute(
            f"UPDATE dewey SET label = {edit} WHERE pre = "
            "(SELECT MAX(pre) FROM dewey WHERE kind = 3)"
        )
        report = scheme.verify_document(doc_id)
        assert report.failed("dewey-label-form"), report.issues
        db.close()

    def test_six_digit_store_reported_and_not_updated(self, tmp_path):
        path = tmp_path / "old.db"
        with XmlRelStore.open(path, scheme="dewey") as store:
            doc_id = store.store_text(BIB_DTD_XML, "bib")
            for label, parent in store.db.query(
                "SELECT label, parent_label FROM dewey WHERE doc_id = ?",
                (doc_id,),
            ):
                store.db.execute(
                    "UPDATE dewey SET label = ?, parent_label = ? "
                    "WHERE doc_id = ? AND label = ?",
                    (six_digit(label), parent and six_digit(parent),
                     doc_id, label),
                )
        with XmlRelStore.open(path, scheme="dewey") as store:
            report = store.verify(doc_id)
            assert report.failed("dewey-label-form")
            assert {issue.check for issue in report.issues} == {
                "dewey-label-form"
            }
            # Reads still answer; an insert would mix label forms.
            published = store.reconstruct_xml(doc_id)
            (book,) = store.query_pres(doc_id, "/bib/book[1]")
            with pytest.raises(UpdateError, match="label form"):
                insert_subtree(
                    store.scheme, doc_id, book, parse_fragment("<x/>")
                )
            assert store.reconstruct_xml(doc_id) == published


class TestPublishLaneOnCorruptRows:
    """Rows no shredder wrote end the publish lane (``reconstruct_xml``,
    ``query_xml``, ``reconstruct``) in a typed ``StorageError``; the
    audit *reports* the same rows instead of raising."""

    #: name → (scheme, corrupting statement, error text, failed check)
    CASES = {
        "dangling-parent": (
            "interval",
            "UPDATE accel SET parent_pre = 4242 WHERE pre = "
            "(SELECT MAX(pre) FROM accel WHERE kind = 2)",
            "missing parent 4242", "parents-resolve",
        ),
        "attribute-under-text": (
            "interval",
            "UPDATE accel SET parent_pre = "
            "(SELECT MIN(pre) FROM accel WHERE kind = 4) WHERE pre = "
            "(SELECT MAX(pre) FROM accel WHERE kind = 3)",
            "missing parent", "reconstruct",
        ),
        "attribute-after-content": (
            "interval",
            "UPDATE accel SET kind = 3, name = 'late' WHERE pre = "
            "(SELECT MAX(pre) FROM accel WHERE kind = 4)",
            "outside a start tag", "reconstruct",
        ),
        "unknown-kind": (
            "edge",
            "UPDATE edge SET kind = 99 WHERE target = "
            "(SELECT MAX(target) FROM edge)",
            "kind 99", "reconstruct",
        ),
        "universal-null-id": (
            "universal",
            "UPDATE universal SET n0_id = NULL WHERE rowid = "
            "(SELECT MAX(rowid) FROM universal)",
            "missing id for label 'bib'", "fetch",
        ),
        # Universal publishes path by path; a row on no catalogued path
        # must still be seen, not silently skipped.
        "universal-orphan-path": (
            "universal",
            "UPDATE universal SET path_id = 4242 WHERE rowid = "
            "(SELECT MAX(rowid) FROM universal)",
            "absent from universal_paths", "universal-paths",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_typed_error_from_the_lane_and_a_report_from_the_audit(
        self, case
    ):
        scheme_name, corrupt_sql, message, check = self.CASES[case]
        db, scheme, doc_id = stored_scheme(scheme_name)
        db.execute(corrupt_sql)
        for publish in (
            lambda: scheme.reconstruct_xml(doc_id),
            lambda: scheme.reconstruct(doc_id),
            lambda: scheme.query_xml(doc_id, "/bib"),
            lambda: scheme.query_nodes(doc_id, "/bib"),
        ):
            with pytest.raises(StorageError, match=message):
                publish()
        report = scheme.verify_document(doc_id)  # must not raise
        assert report.failed(check), [i.check for i in report.issues]
        db.close()
