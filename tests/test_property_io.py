"""Property-based round-trip and fuzz tests for graph I/O."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.graph.io as gio
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


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 20))
    m = draw(st.integers(0, 40))
    i = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    j = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    # Finite floats: non-negative, as a valid graph needs, and bounded so
    # that accumulating duplicate edges stays finite.
    w = draw(hnp.arrays(np.float64, m, elements=st.floats(0, 1e300)))
    return from_edges(i, j, w, n_vertices=n)


class TestRoundtripProperties:
    @given(g=graphs())
    @settings(max_examples=40, deadline=None)
    def test_edgelist_roundtrip(self, g, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "g.txt"
        write_edgelist(g, path)
        back = read_edgelist(path)
        assert back.n_edges == g.n_edges
        assert back.total_weight() == pytest.approx(g.total_weight())
        np.testing.assert_array_equal(back.edges.ei, g.edges.ei)
        np.testing.assert_array_equal(back.edges.ej, g.edges.ej)
        np.testing.assert_array_equal(back.edges.w, g.edges.w)

    @given(g=graphs())
    @settings(max_examples=40, deadline=None)
    def test_metis_roundtrip(self, g, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "g.metis"
        write_metis(g, path)
        back = read_metis(path)
        assert back.n_vertices == g.n_vertices
        assert back.n_edges == g.n_edges
        np.testing.assert_array_equal(back.edges.w, g.edges.w)

    @given(g=graphs())
    @settings(max_examples=40, deadline=None)
    def test_npz_roundtrip_exact(self, g, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "g.npz"
        save_npz(g, path)
        back = load_npz(path)
        np.testing.assert_array_equal(back.edges.ei, g.edges.ei)
        np.testing.assert_array_equal(back.edges.w, g.edges.w)
        np.testing.assert_array_equal(back.self_weights, g.self_weights)


class TestFuzzReaders:
    """Malformed text must raise GraphFormatError, never crash oddly."""

    @given(text=st.text(alphabet="0123456789 \t\n.-#%abc", max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_edgelist_fuzz(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "g.txt"
        path.write_text(text)
        try:
            g = read_edgelist(path)
            g.validate()  # anything accepted must be a valid graph
        except GraphFormatError:
            pass

    @given(text=st.text(alphabet="0123456789 \n%", max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_metis_fuzz(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "g.metis"
        path.write_text(text)
        try:
            g = read_metis(path)
            g.validate()
        except (GraphFormatError, ValueError):
            pass


# ------------------------------------------------- bulk vs line-by-line parse
_EOLS = ["\n", "\r\n", "\r"]
_SEPS = [" ", "\t", "  ", " \t"]
_COMMENTS = ["# c", "% c", "#", "  # indented", "# été", "\x0c# form feed"]
_ID_TOKENS = [
    "-0", "+3", "007", "-1", "3.0", "1e3", "1_000", "x", "+", "-",
    "1" * 15, "1" * 16, "9" * 20,
]
_WEIGHT_TOKENS = [
    "-0", "+3", "0", "2.5", "-2.5", ".5", "5.", "1e-400", "1e999", "-1e999",
    "nan", "inf", "1_000", "1.2345678", "1e", "1.2.3", "٣",
]


@st.composite
def edge_files(draw):
    """Edge-list bytes: mostly clean (so the bulk parse runs), with line
    endings, comments, blank lines, odd tokens and encodings mixed in."""
    hostile = draw(st.booleans())
    cols = draw(st.sampled_from([2, 3, 4] if hostile else [2, 3]))

    def pick(clean, odd):
        if hostile and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(odd))
        return clean

    lines = [
        draw(st.sampled_from(_COMMENTS + ["", "  "]))
        for _ in range(draw(st.integers(0, 2)))
    ]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        tokens = [
            pick(str(draw(st.integers(0, 30))), _ID_TOKENS) for _ in range(2)
        ]
        if cols >= 3:
            tokens.append(
                pick(
                    draw(st.one_of(
                        st.integers(0, 99).map(str),
                        st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    )),
                    _WEIGHT_TOKENS,
                )
            )
        if cols == 4:
            tokens.append("7")
        if hostile and draw(st.integers(0, 9)) == 0:
            tokens = tokens[: draw(st.integers(1, 2))] + ["7"] * draw(
                st.integers(0, 2)
            )
        lead, trail = (draw(st.sampled_from(["", " ", "\t"])) for _ in range(2))
        lines.append(lead + draw(st.sampled_from(_SEPS)).join(tokens) + trail)
    if hostile and draw(st.booleans()):
        lines.append(draw(st.sampled_from(_COMMENTS)))
    text = "".join(
        line + pick(draw(st.sampled_from(_EOLS[:2])), _EOLS) for line in lines
    )
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if hostile and draw(st.integers(0, 9)) == 0:
        data = b"# \xff\xfe not UTF-8\n" + data
    return data


def _outcome(read):
    """Graph arrays as bytes (so -0.0 counts), or the exception's type and
    message; plus the text of every GraphFormatWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = read()
        except Exception as exc:  # compared, not handled
            result = (type(exc), str(exc))
        else:
            e = g.edges
            result = (g.n_vertices,) + tuple(
                a.dtype.str + ":" + a.tobytes().hex()
                for a in (e.ei, e.ej, e.w, e.bucket_start, e.bucket_end,
                          g.self_weights)
            )
    warned = [
        str(w.message) for w in caught
        if issubclass(w.category, GraphFormatWarning)
    ]
    return result, warned


_READER_SETTINGS = [
    {}, {"strict": False}, {"weighted": True}, {"weighted": False},
]


class TestBulkParseEquivalence:
    """``read_edgelist`` (bulk parse, else fallback) must match the
    line-by-line reader exactly, for every reader setting and block size."""

    @pytest.mark.parametrize("block_bytes", [gio._BULK_BLOCK_BYTES, 4, 13])
    @given(data=edge_files())
    @settings(max_examples=60, deadline=None)
    def test_matches_line_reader(self, block_bytes, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("bulk") / "g.txt"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gio, "_BULK_BLOCK_BYTES", block_bytes)
            for kwargs in _READER_SETTINGS:
                reference = _outcome(
                    lambda: from_edges(*gio._read_lines(
                        path, kwargs.get("weighted"), kwargs.get("strict", True)
                    ))
                )
                assert _outcome(lambda: read_edgelist(path, **kwargs)) == reference

    @pytest.mark.parametrize("weights", [True, False])
    def test_bulk_path_taken_on_written_file(self, weights, karate, tmp_path):
        rng = np.random.default_rng(5)
        g = from_edges(
            karate.edges.ei, karate.edges.ej,
            rng.choice([1.0, 2.5, -0.0, 1e-3], size=karate.n_edges),
        )
        path = tmp_path / "g.txt"
        write_edgelist(g, path, weights=weights)

        def refuse(*args):
            raise AssertionError("bulk parse declined a written edge list")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gio, "_BULK_BLOCK_BYTES", 64)
            mp.setattr(gio, "_read_lines", refuse)
            back = read_edgelist(path)
        np.testing.assert_array_equal(back.edges.ei, g.edges.ei)
        np.testing.assert_array_equal(back.edges.ej, g.edges.ej)
        expected = g.edges.w if weights else np.ones(g.n_edges)
        assert back.edges.w.tobytes() == expected.tobytes()
