"""Unit tests for graph file I/O."""

import logging
import os

import numpy as np
import pytest

from repro.errors import GraphFormatError, GraphFormatWarning
from repro.graph import (
    from_edges,
    load_npz,
    read_edgelist,
    read_metis,
    save_npz,
    write_edgelist,
    write_metis,
)


@pytest.fixture
def weighted_graph():
    return from_edges(
        np.array([0, 1, 2, 2]),
        np.array([1, 2, 3, 2]),
        np.array([1.0, 2.0, 3.0, 4.0]),
    )


class TestEdgeList:
    def test_roundtrip_weighted(self, tmp_path, weighted_graph):
        path = tmp_path / "g.txt"
        write_edgelist(weighted_graph, path)
        g = read_edgelist(path)
        assert g.n_vertices == weighted_graph.n_vertices
        assert g.n_edges == weighted_graph.n_edges
        assert g.total_weight() == pytest.approx(weighted_graph.total_weight())

    def test_roundtrip_unweighted(self, tmp_path, karate):
        path = tmp_path / "k.txt"
        write_edgelist(karate, path, weights=False)
        g = read_edgelist(path)
        assert g.n_edges == karate.n_edges

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% other comment\n0 1\n1 2\n")
        g = read_edgelist(path)
        assert g.n_edges == 2

    def test_auto_weight_detection(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2.5\n1 2 1.5\n")
        g = read_edgelist(path)
        assert g.total_weight() == pytest.approx(4.0)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_edgelist(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edgelist(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 2\n")
        with pytest.raises(GraphFormatError):
            read_edgelist(path)


class TestEdgeListErrorLocation:
    def test_error_names_file_line_and_token(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 x\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt:2: .*'x'"):
            read_edgelist(path)

    def test_negative_id_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n-3 2\n")
        with pytest.raises(
            GraphFormatError, match=r":3: negative vertex id '-3'"
        ):
            read_edgelist(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 nan\n")
        with pytest.raises(
            GraphFormatError, match=r":1: non-finite edge weight"
        ):
            read_edgelist(path)


class TestEdgeListNonStrict:
    def test_skips_bad_lines_with_counted_warning(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nbroken line here\n1 2\n0\n2 3\n")
        with pytest.warns(GraphFormatWarning, match="2 malformed"):
            g = read_edgelist(path, strict=False)
        assert g.n_edges == 3

    def test_clean_file_emits_no_warning(self, tmp_path, recwarn):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edgelist(path, strict=False)
        assert g.n_edges == 2
        assert not any(
            isinstance(w.message, GraphFormatWarning) for w in recwarn.list
        )

    def test_skips_non_finite_weights(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n1 2 inf\n2 3 2.0\n")
        with pytest.warns(GraphFormatWarning):
            g = read_edgelist(path, strict=False)
        assert g.n_edges == 2
        assert np.isfinite(g.edges.w).all()

    def test_strict_is_the_default(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("junk\n")
        with pytest.raises(GraphFormatError):
            read_edgelist(path)

    def test_skipped_line_does_not_decide_weighting(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("oops\n0 1 5\n1 2 7\n")
        with pytest.warns(GraphFormatWarning, match="1 malformed"):
            g = read_edgelist(path, strict=False)
        np.testing.assert_array_equal(g.edges.w, [5.0, 7.0])


class TestWriterPrecision:
    WEIGHTS = [1.2345678, 1234567.0, 3.0, 0.1, 1e-300]

    def _graph(self):
        n = len(self.WEIGHTS)
        return from_edges(
            np.arange(n), np.arange(1, n + 1), np.array(self.WEIGHTS)
        )

    def test_edgelist_weights_exact(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edgelist(self._graph(), path)
        assert "\t3\n" in path.read_text()  # integers keep their short form
        back = read_edgelist(path)
        assert back.edges.w.tobytes() == self._graph().edges.w.tobytes()

    def test_metis_weights_exact(self, tmp_path):
        path = tmp_path / "g.metis"
        write_metis(self._graph(), path)
        back = read_metis(path)
        assert back.edges.w.tobytes() == self._graph().edges.w.tobytes()


class TestBulkParseLogging:
    """A declined bulk parse logs one INFO record naming why; a taken one
    logs nothing."""

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"0 1\n1 2 \xc3\xa9\n", "non-ASCII byte"),
            (b"0 1\n# trailer\n", "comment after data"),
            (b"0 1\n1_000 2\n", "unsupported byte '_'"),
            (b"0 1\r1 2\n", "lone CR"),
            (b"# caf\xe9\n0 1\n", "invalid UTF-8"),
            (b"0 1 2\n1 2\n", "ragged columns"),
            (b"0 1 2 3\n", "4 columns"),
            (b"3.0 1\n", "non-integer vertex id"),
            (b"0000000000000002 1\n", "vertex id longer than 15 characters"),
            (b"0 1 1e\n", "unparsable token"),
            (b"0 -1\n", "negative vertex id"),
            (b"0 1 1e999\n", "non-finite weight"),
        ],
    )
    def test_decline_logs_reason(self, tmp_path, caplog, data, reason):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        caplog.set_level(logging.INFO, logger="repro.graph.io")
        try:
            read_edgelist(path, strict=False)
        except (GraphFormatError, UnicodeDecodeError):
            pass
        records = [r for r in caplog.records if r.name == "repro.graph.io"]
        assert len(records) == 1
        assert records[0].levelno == logging.INFO
        assert f"({reason})" in records[0].getMessage()

    def test_no_weight_column_logs_reason(self, tmp_path, caplog):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        caplog.set_level(logging.INFO, logger="repro.graph.io")
        with pytest.raises(GraphFormatError, match="malformed"):
            read_edgelist(path, weighted=True)
        assert "(no weight column)" in caplog.text

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_line_by_line(self, caplog):
        r, w = os.pipe()
        with os.fdopen(w, "wb") as fh:
            fh.write(b"0 1\n1 2\n")
        caplog.set_level(logging.INFO, logger="repro.graph.io")
        try:
            g = read_edgelist(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert g.n_edges == 2
        assert "(unseekable input)" in caplog.text

    def test_bulk_parse_logs_nothing(self, tmp_path, caplog):
        path = tmp_path / "g.txt"
        path.write_text("# header\n0 1 2\n1 2 -0\n")
        caplog.set_level(logging.DEBUG, logger="repro.graph.io")
        g = read_edgelist(path)
        assert g.n_edges == 2
        assert not caplog.records


class TestMetis:
    def test_roundtrip(self, tmp_path, weighted_graph):
        path = tmp_path / "g.metis"
        write_metis(weighted_graph, path)
        g = read_metis(path)
        assert g.n_vertices == weighted_graph.n_vertices
        assert g.n_edges == weighted_graph.n_edges
        # Self loops are not representable in METIS adjacency; compare
        # only the cross-edge weights.
        assert g.edges.total_weight() == pytest.approx(
            weighted_graph.edges.total_weight()
        )

    def test_roundtrip_karate(self, tmp_path, karate):
        path = tmp_path / "k.metis"
        write_metis(karate, path)
        g = read_metis(path)
        assert g.n_edges == karate.n_edges
        g.validate()

    def test_unweighted_format(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 2\n2\n1 3\n2\n")
        g = read_metis(path)
        assert g.n_edges == 2
        np.testing.assert_array_equal(g.edges.w, [1.0, 1.0])

    def test_vertex_weights_rejected(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1 11\n1 2 1\n1 1 1\n")
        with pytest.raises(GraphFormatError, match="vertex weights"):
            read_metis(path)

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n1\n")
        with pytest.raises(GraphFormatError, match="adjacency lines"):
            read_metis(path)

    def test_neighbor_out_of_range(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1\n5\n1\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            read_metis(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("")
        with pytest.raises(GraphFormatError, match="empty"):
            read_metis(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 9\n2\n1 3\n2\n")
        with pytest.raises(GraphFormatError, match="declares"):
            read_metis(path)

    def test_bad_neighbor_token_names_line(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("% comment\n2 1\n2\nbogus\n")
        with pytest.raises(
            GraphFormatError, match=r":4: bad neighbor id 'bogus'"
        ):
            read_metis(path)

    def test_non_numeric_header_names_line(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("three two\n")
        with pytest.raises(GraphFormatError, match=r":1: non-numeric"):
            read_metis(path)

    def test_bad_weight_token_names_line(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1 1\n2 w\n1 w\n")
        with pytest.raises(GraphFormatError, match=r":2: bad edge weight"):
            read_metis(path)


class TestNpz:
    def test_roundtrip_exact(self, tmp_path, weighted_graph):
        path = tmp_path / "g.npz"
        save_npz(weighted_graph, path)
        g = load_npz(str(path) if not str(path).endswith(".npz") else path)
        np.testing.assert_array_equal(g.edges.ei, weighted_graph.edges.ei)
        np.testing.assert_array_equal(g.edges.ej, weighted_graph.edges.ej)
        np.testing.assert_array_equal(g.edges.w, weighted_graph.edges.w)
        np.testing.assert_array_equal(
            g.self_weights, weighted_graph.self_weights
        )

    def test_load_validates(self, tmp_path, karate):
        path = tmp_path / "k.npz"
        save_npz(karate, path)
        g = load_npz(path)
        assert g.n_edges == 78
