"""The one text layout of every qdoe artifact: ``# `` comment lines, a header
row, then one line per row, its cells joined by commas. A float cell (numpy
``float64`` included) is written as ``repr(float(v))``, which reads back bit
for bit; any other cell by ``str``.
"""

from pathlib import Path

from .errors import ParameterError

__all__ = ["write_table", "read_table", "parse_rows", "float_row"]


def _cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _line(cells) -> str:
    # a one-cell row (every value of a quantizer's one-value sections) needs no join
    return _cell(cells[0]) if len(cells) == 1 else ",".join(map(_cell, cells))


def write_table(path, comments, header, rows) -> None:
    """Write ``# `` comment lines, then ``header`` and each of ``rows``, sequences
    of cells, one line each; parent directories are made once the lines are built."""
    lines = [*(f"# {c}" for c in comments), _line(header), *map(_line, rows)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path) -> tuple[dict[str, str], list[tuple[int, str]]]:
    """The ``key=value`` tokens of the comment lines (later ones win), and the
    (line number, stripped text) of every other non-blank line."""
    meta, lines = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                meta.update(token.split("=", 1) for token in line[1:].split() if "=" in token)
            elif line:
                lines.append((lineno, line))
    return meta, lines


def parse_rows(path, lines, convert, width=None) -> list:
    """Convert each (line number, text) pair; a line that does not parse, or
    whose row length differs from ``width``, is a ParameterError naming it."""
    values = []
    for lineno, text in lines:
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or (width is not None and len(value) != width):
            raise ParameterError(f"{path}, line {lineno}: cannot read {text!r}")
        values.append(value)
    return values


def float_row(text: str) -> list[float]:
    """The comma-separated floats of one line."""
    return [float(v) for v in text.split(",")]
