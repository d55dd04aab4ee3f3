"""The MLA text format for metric Lie algebras, and report records.

An MLA document is line oriented; ``#`` starts a comment and blank lines are
ignored.  Layout::

    mla 1
    dim N
    bracket I J = a1 ... aN     # 1-based, I < J; omitted pairs are zero
    metric
    <N rows of N numbers>

Brackets are completed antisymmetrically; a repeated (I, J) pair is an error.
Parsing validates everything (symmetric positive definite metric, Jacobi
identity) and raises :class:`MlaParseError` with a distinct code and the
offending 1-based line number; document-level failures use line 0.

Reports are flat ``key = value`` records.  Numbers carry 17 significant
digits so that emission round-trips float64 exactly; vectors are
space-separated and matrices additionally use ``;`` between rows; booleans
are ``true``/``false``.  Record emission sorts by key, which makes the output
of a fixed computation byte-stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import LieAlgebra
from .errors import InvalidAlgebraError, MetricError, MlaParseError, NumericInputError
from .riemann import MetricLieAlgebra

FORMAT_VERSION = 1


@dataclass(frozen=True)
class MlaDocument:
    """Parsed document; plain tuples so equality is exact and structural."""

    version: int
    dim: int
    brackets: tuple  # ((i, j, (coeffs...)), ...) with 1-based i < j
    metric: tuple  # n rows of n floats

    def to_metric_lie_algebra(self) -> MetricLieAlgebra:
        """The document's metric Lie algebra, built once per document."""
        return self._metric_lie_algebra

    @cached_property
    def _metric_lie_algebra(self) -> MetricLieAlgebra:
        brackets = {(i - 1, j - 1): coeffs for i, j, coeffs in self.brackets}
        algebra = LieAlgebra.from_brackets(self.dim, brackets)
        return MetricLieAlgebra(algebra, np.array(self.metric, dtype=float))

    @classmethod
    def from_metric_lie_algebra(cls, m: MetricLieAlgebra) -> "MlaDocument":
        n = m.dim
        brackets = []
        for i in range(n):
            for j in range(i + 1, n):
                if np.any(m.c[i, j] != 0.0):
                    brackets.append((i + 1, j + 1, tuple(float(x) for x in m.c[i, j])))
        metric = tuple(tuple(float(x) for x in row) for row in m.metric)
        return cls(version=FORMAT_VERSION, dim=n, brackets=tuple(brackets), metric=metric)


def _number(token: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MlaParseError("bad-number", line, f"cannot parse number {token!r}") from None
    if not math.isfinite(value):
        raise MlaParseError("non-finite", line, f"non-finite number {token!r}")
    return value


def _integer(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MlaParseError("bad-integer", line, f"cannot parse {what} {token!r}") from None


def parse_mla(text: str) -> MlaDocument:
    """Parse and fully validate an MLA document."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            lines.append((lineno, content.split()))
    cursor = 0

    def take():
        nonlocal cursor
        if cursor >= len(lines):
            return None
        item = lines[cursor]
        cursor += 1
        return item

    head = take()
    if head is None:
        raise MlaParseError("empty", 0, "document has no content")
    lineno, tokens = head
    if tokens[0] != "mla" or len(tokens) != 2:
        raise MlaParseError("bad-header", lineno, "expected header 'mla 1'")
    version = _integer(tokens[1], lineno, "format version")
    if version != FORMAT_VERSION:
        raise MlaParseError("unsupported-version", lineno, f"unsupported format version {version}")

    item = take()
    if item is None or item[1][0] != "dim":
        where = item[0] if item else 0
        raise MlaParseError("expected-dim", where, "expected 'dim N' after the header")
    lineno, tokens = item
    if len(tokens) != 2:
        raise MlaParseError("bad-dim", lineno, "expected 'dim N'")
    dim = _integer(tokens[1], lineno, "dimension")
    if dim < 1:
        raise MlaParseError("bad-dim", lineno, f"dimension must be at least 1, got {dim}")

    brackets = []
    seen = set()
    metric_rows = None
    while True:
        item = take()
        if item is None:
            raise MlaParseError("missing-metric", 0, "document ends before the metric block")
        lineno, tokens = item
        if tokens[0] == "bracket":
            if len(tokens) != 4 + dim or tokens[3] != "=":
                raise MlaParseError(
                    "bad-bracket", lineno, f"expected 'bracket I J = {dim} numbers'"
                )
            i = _integer(tokens[1], lineno, "bracket index")
            j = _integer(tokens[2], lineno, "bracket index")
            if not (1 <= i < j <= dim):
                raise MlaParseError(
                    "bad-bracket-indices", lineno, f"need 1 <= I < J <= {dim}, got {i}, {j}"
                )
            if (i, j) in seen:
                raise MlaParseError("duplicate-bracket", lineno, f"bracket {i} {j} appears twice")
            seen.add((i, j))
            coeffs = tuple(_number(tok, lineno) for tok in tokens[4:])
            brackets.append((i, j, coeffs))
        elif tokens[0] == "metric":
            if len(tokens) != 1:
                raise MlaParseError("bad-metric-header", lineno, "'metric' takes no arguments")
            metric_rows = []
            for _ in range(dim):
                row_item = take()
                if row_item is None:
                    raise MlaParseError(
                        "missing-metric-rows", 0, f"metric block needs {dim} rows"
                    )
                row_line, row_tokens = row_item
                if len(row_tokens) != dim:
                    raise MlaParseError(
                        "wrong-arity", row_line, f"metric row needs {dim} numbers"
                    )
                metric_rows.append(tuple(_number(tok, row_line) for tok in row_tokens))
            break
        else:
            raise MlaParseError(
                "unknown-directive", lineno, f"unknown directive {tokens[0]!r}"
            )

    trailing = take()
    if trailing is not None:
        raise MlaParseError(
            "trailing-content", trailing[0], "content after the metric block"
        )

    doc = MlaDocument(
        version=version, dim=dim, brackets=tuple(brackets), metric=tuple(metric_rows)
    )

    try:
        doc.to_metric_lie_algebra()
    except MetricError as exc:
        if exc.law == "symmetric":
            raise MlaParseError(
                "metric-not-symmetric", 0, "metric block is not symmetric"
            ) from None
        raise MlaParseError("metric-not-spd", 0, str(exc)) from None
    except NumericInputError as exc:
        raise MlaParseError("overflow", 0, str(exc)) from None
    except InvalidAlgebraError as exc:
        first = exc.violations[0]
        raise MlaParseError(
            "jacobi-failure",
            0,
            f"structure constants violate the {first.kind} law at basis indices "
            f"{tuple(k + 1 for k in first.indices)} (magnitude {first.magnitude:.3e})",
        ) from None
    return doc


def emit_mla(doc: MlaDocument) -> str:
    """Serialize a document; floats use shortest round-trip notation."""
    out = [f"mla {doc.version}", f"dim {doc.dim}"]
    for i, j, coeffs in doc.brackets:
        out.append(f"bracket {i} {j} = " + " ".join(repr(float(x)) for x in coeffs))
    out.append("metric")
    for row in doc.metric:
        out.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(out) + "\n"


def format_number(x: float) -> str:
    """17 significant digits; exact float64 round-trip."""
    x = float(x)
    if x != x:
        return "nan"
    a = abs(x)
    if x == 0.0 or (1e-4 <= a < 1e17):
        return np.format_float_positional(x, precision=17, unique=False, fractional=False)
    return np.format_float_scientific(x, precision=16, unique=False)


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    arr = np.asarray(value)
    if arr.ndim == 0:
        return format_number(float(arr))
    if arr.ndim == 1:
        return " ".join(format_number(v) for v in arr)
    if arr.ndim == 2:
        return " ; ".join(" ".join(format_number(v) for v in row) for row in arr)
    raise ValueError(f"cannot format value of shape {arr.shape}")


class ReportRecord(NamedTuple):
    key: str
    value: object


def emit_report(records, fmt: str = "records") -> str:
    """Render records sorted by key, as 'key = value' lines or aligned text."""
    items = sorted(((r.key, format_value(r.value)) for r in records), key=lambda kv: kv[0])
    if fmt == "records":
        return "\n".join(f"{k} = {v}" for k, v in items) + "\n"
    if fmt == "text":
        width = max((len(k) for k, _ in items), default=0)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in items) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_records(text: str) -> dict:
    """Inverse of record emission: values become bool, str, float or arrays."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            # records may ride inside comment lines (catalog output does this)
            line = line.lstrip("#").strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if not key or " " in key:
            continue  # not a record line (e.g. a bracket directive)
        out[key] = _parse_value(value.strip())
    return out


def _parse_value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if ";" in text:
        rows = [r.split() for r in text.split(";")]
        try:
            return np.array([[float(tok) for tok in row] for row in rows])
        except ValueError:
            return text
    tokens = text.split()
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        return text
    if len(values) == 1:
        return values[0]
    return np.array(values)
