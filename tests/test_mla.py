"""Line format parsing, emission, numeric formatting and report records."""

import numpy as np
import pytest

from lieweyl import MlaDocument, emit_mla, emit_report, parse_mla, parse_records
from lieweyl.errors import MlaParseError
from lieweyl.mla import ReportRecord, format_number, format_value
from lieweyl import riemann, samples

SOL_TEXT = """mla 1
dim 3
bracket 1 3 = -1.0 0.0 0.0
bracket 2 3 = 0.0 1.0 0.0
metric
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
"""


def sol_doc() -> MlaDocument:
    return MlaDocument(
        version=1,
        dim=3,
        brackets=((1, 3, (-1.0, 0.0, 0.0)), (2, 3, (0.0, 1.0, 0.0))),
        metric=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    )


def test_emit_sol_byte_exact():
    assert emit_mla(sol_doc()) == SOL_TEXT


def test_parse_sol():
    doc = parse_mla(SOL_TEXT)
    assert doc == sol_doc()


def test_parse_tolerates_comments_and_blank_lines():
    text = "# a comment\n\nmla 1\n# another\ndim 3\nmetric\n1 0 0\n0 1 0\n0 0 1\n\n"
    doc = parse_mla(text)
    assert doc.dim == 3
    assert doc.brackets == ()


def test_a_parsed_document_builds_its_metric_lie_algebra_once(monkeypatch):
    # the benchmark's trace wraps MetricLieAlgebra.__init__ the same way, so
    # it must stay a class whose construction runs through __init__
    init = riemann.MetricLieAlgebra.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(riemann.MetricLieAlgebra, "__init__", counted)
    doc = parse_mla(SOL_TEXT)
    m = doc.to_metric_lie_algebra()
    assert doc.to_metric_lie_algebra() is m
    assert len(calls) == 1


def test_round_trip_is_identity():
    # document -> text -> document is byte exact; algebra -> document -> algebra
    # is exact on the canonical upper triangle (the format antisymmetrizes away
    # float-level defects in the redundant entries)
    rng = np.random.default_rng(12)
    for dim in (3, 4, 5, 6):
        m = samples.random_metric_algebra(rng, dim)
        doc = MlaDocument.from_metric_lie_algebra(m)
        text = emit_mla(doc)
        doc2 = parse_mla(text)
        assert doc == doc2
        assert emit_mla(doc2) == text
        m2 = doc2.to_metric_lie_algebra()
        c1, c2 = np.asarray(m.algebra.c), np.asarray(m2.algebra.c)
        for i in range(dim):
            for j in range(i + 1, dim):
                np.testing.assert_array_equal(c1[i, j], c2[i, j])
        np.testing.assert_allclose(c1, c2, atol=1e-14)
        np.testing.assert_array_equal(m.metric, m2.metric)


def test_bracket_order_does_not_matter_for_geometry():
    swapped = SOL_TEXT.replace(
        "bracket 1 3 = -1.0 0.0 0.0\nbracket 2 3 = 0.0 1.0 0.0",
        "bracket 2 3 = 0.0 1.0 0.0\nbracket 1 3 = -1.0 0.0 0.0",
    )
    a = parse_mla(SOL_TEXT).to_metric_lie_algebra()
    b = parse_mla(swapped).to_metric_lie_algebra()
    np.testing.assert_array_equal(np.asarray(a.algebra.c), np.asarray(b.algebra.c))


@pytest.mark.parametrize(
    "text,code,line",
    [
        ("", "mla.empty", 0),
        ("dim 3\n", "mla.bad-header", 1),
        ("mla x\n", "mla.bad-integer", 1),
        ("mla 2\ndim 3\n", "mla.unsupported-version", 1),
        ("mla 1\nbracket 1 2 = 0 0 1\n", "mla.expected-dim", 2),
        ("mla 1\ndim 0\n", "mla.bad-dim", 2),
        ("mla 1\ndim 33\n", "mla.bad-dim", 2),
        ("mla 1\ndim 3\nbracket 1 2\nmetric\n1 0 0\n0 1 0\n0 0 1\n", "mla.bad-bracket", 3),
        ("mla 1\ndim 3\nbracket 1 1 = 1 0 0\nmetric\n1 0 0\n0 1 0\n0 0 1\n",
         "mla.bad-bracket-indices", 3),
        ("mla 1\ndim 3\nbracket 3 1 = 1 0 0\nmetric\n1 0 0\n0 1 0\n0 0 1\n",
         "mla.bad-bracket-indices", 3),
        ("mla 1\ndim 3\nbracket 1 4 = 1 0 0\nmetric\n1 0 0\n0 1 0\n0 0 1\n",
         "mla.bad-bracket-indices", 3),
        ("mla 1\ndim 3\nbracket 1 2 = 0 0 1\nbracket 1 2 = 0 0 2\n"
         "metric\n1 0 0\n0 1 0\n0 0 1\n", "mla.duplicate-bracket", 4),
        ("mla 1\ndim 3\nbracket 1 2 = 0 0 x\nmetric\n1 0 0\n0 1 0\n0 0 1\n",
         "mla.bad-number", 3),
        ("mla 1\ndim 3\nbracket 1 2 = 0 0 inf\nmetric\n1 0 0\n0 1 0\n0 0 1\n",
         "mla.non-finite", 3),
        ("mla 1\ndim 3\nbracket 1 2 = 0 0\nmetric\n1 0 0\n0 1 0\n0 0 1\n",
         "mla.bad-bracket", 3),
        ("mla 1\ndim 3\nnonsense 1 2\n", "mla.unknown-directive", 3),
        ("mla 1\ndim 3\n", "mla.missing-metric", 0),
        ("mla 1\ndim 3\nmetric\n1 0 0\n0 1 0\n", "mla.missing-metric-rows", 0),
        ("mla 1\ndim 3\nmetric\n1 0 0\n0 1 0\n0 0 1 9\n", "mla.wrong-arity", 6),
        ("mla 1\ndim 3\nmetric\n1 0 0\n0 1 0\n0 0 1\nextra\n", "mla.trailing-content", 7),
        ("mla 1\ndim 3\nmetric\n1 0 0\n0.1 1 0\n0 0 1\n", "mla.metric-not-symmetric", 0),
        ("mla 1\ndim 3\nmetric\n1 0 0\n0 1 0\n0 0 -1\n", "mla.metric-not-spd", 0),
        ("mla 1\ndim 3\nbracket 1 2 = 0 0 1\nbracket 2 3 = 1 0 0\n"
         "bracket 1 3 = -1 0 0\nmetric\n1 0 0\n0 1 0\n0 0 1\n", "mla.jacobi-failure", 0),
    ],
)
def test_parse_error_codes(text, code, line):
    with pytest.raises(MlaParseError) as exc:
        parse_mla(text)
    assert exc.value.code == code
    assert exc.value.line == line


def test_format_number_styles():
    assert format_number(0.0) == "0.0000000000000000"
    assert format_number(1.5) == "1.5000000000000000"
    assert format_number(np.pi) == "3.1415926535897931"
    assert format_number(-2.0) == "-2.0000000000000000"
    assert format_number(1e-5) == "1.0000000000000001e-05"
    assert format_number(1e17) == "1.0000000000000000e+17"


def test_format_number_round_trips():
    rng = np.random.default_rng(13)
    values = list(rng.standard_normal(50)) + list(rng.standard_normal(10) * 1e-8)
    for x in values:
        assert float(format_number(float(x))) == float(x)


def test_format_value_shapes():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value("NoWE") == "NoWE"
    assert format_value(np.array([1.0, 0.5])) == "1.0000000000000000 0.5000000000000000"
    assert " ; " in format_value(np.eye(2))


def test_emit_report_sorts_keys():
    records = [ReportRecord("b.x", 1.5), ReportRecord("a.long_key", True)]
    out = emit_report(records, "records")
    assert out == "a.long_key = true\nb.x = 1.5000000000000000\n"
    text = emit_report(records, "text")
    assert text.splitlines()[0].startswith("a.long_key")
    # aligned columns in text mode
    assert text.splitlines()[0].index("true") == text.splitlines()[1].index("1.5")


def test_parse_records_reads_comments_and_skips_brackets():
    data = parse_records("a = 1.5\n# b.c = true\nbracket 1 2 = 0 0 1\nd = 1 2 ; 3 4\n")
    assert data["a"] == 1.5
    assert data["b.c"] is True
    assert "bracket 1 2" not in data
    np.testing.assert_array_equal(data["d"], [[1.0, 2.0], [3.0, 4.0]])


def test_emitted_catalog_output_is_both_mla_and_records():
    # a document plus commented records must parse on both layers
    text = emit_mla(sol_doc()) + "# cl3.admits = false\n"
    doc = parse_mla(text)
    assert doc == sol_doc()
    data = parse_records(text)
    assert data["cl3.admits"] is False
