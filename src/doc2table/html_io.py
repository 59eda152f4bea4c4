"""Parse HTML tables into the hierarchical model and serialize them back.

Supported markup subset: ``table``, ``thead``, ``tbody``, ``tr``, ``th``,
``td`` plus ``rowspan``/``colspan`` attributes. Entities are decoded, all
other markup inside cells is stripped to its text content.

Header regions: rows inside ``thead`` (or leading rows whose cells are all
``th``) form the column-header region; leading all-header columns below it
form the row-header region. When no header markup exists at all the first
row and first column are used. Hierarchy comes from span nesting only: a
header cell spanning k columns is the parent of the cells directly beneath
it within its span (symmetric with row spans on the left). Row-header
hierarchy encoded by leading-whitespace indentation is not inferred; such
cells are flagged with a warning and parse flat. Input that does not parse
into one usable table raises :class:`~doc2table.model.TableError`.
"""
from __future__ import annotations

import html as html_lib
import logging
import re
from dataclasses import dataclass
from html.parser import HTMLParser
from itertools import takewhile

from .model import CoordTree, HeaderNode, HierarchicalTable, TableError, normalize_text

logger = logging.getLogger(__name__)

MAX_COLSPAN = 1000  # the HTML standard's limit on colspan
MAX_HEADER_DEPTH = 100  # header levels: far above real tables, far below the recursion limit


@dataclass
class GridCell:
    """A parsed cell; :func:`parse_grid` places it, clamping its row span and setting origin.

    One object fills every slot of its span, so cells are told apart by identity.
    """

    text: str  # raw text, entities decoded, not yet normalized
    row_span: int
    col_span: int
    is_header: bool
    origin: tuple[int, int] = (0, 0)  # (row, column) of its top-left slot


@dataclass
class Grid:
    """Dense expanded grid, the only record of the cells: each slot references its covering cell."""

    slots: list[list[GridCell]]  # slots[r][c] -> covering cell
    thead_rows: int

    @property
    def n_rows(self) -> int:
        return len(self.slots)

    @property
    def n_cols(self) -> int:
        return len(self.slots[0]) if self.slots else 0


class _TableHtmlParser(HTMLParser):
    """Collects rows of unplaced cells from the single table in the input."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.table_count = 0
        self.rows: list[tuple[list[GridCell], bool]] = []  # (cells, from_thead)
        self._in_table = False
        self._in_thead = False
        self._row: list[GridCell] | None = None
        self._cell: GridCell | None = None
        self._chunks: list[str] = []  # the open cell's text

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag == "table":
            self.table_count += 1
            self._in_table = True
            return
        if not self._in_table:
            return
        if tag == "thead":
            self._in_thead = True
        elif tag in ("tbody", "tfoot"):
            # a thead may omit its end tag when a tbody or tfoot follows it
            self._end_thead()
        elif tag == "tr":
            self._close_row()
            self._row = []
        elif tag in ("td", "th"):
            if self._row is None:
                self._row = []
            self._close_cell()
            attr_map = dict(attrs)
            self._cell = GridCell(
                text="",
                row_span=_parse_span(attr_map.get("rowspan")),
                # clamped as browsers do; rowspan is clamped to the rows left
                # when the grid is built
                col_span=min(_parse_span(attr_map.get("colspan")), MAX_COLSPAN),
                is_header=(tag == "th") or self._in_thead,
            )
            self._chunks = []
        elif tag == "br" and self._cell is not None:
            self._chunks.append(" ")

    def handle_endtag(self, tag: str) -> None:
        if tag == "table":
            self._close_row()
            self._in_table = False
        elif tag == "thead":
            self._end_thead()
        elif tag == "tr":
            self._close_row()
        elif tag in ("td", "th"):
            self._close_cell()

    def handle_data(self, data: str) -> None:
        if self._cell is not None:
            self._chunks.append(data)

    def _close_cell(self) -> None:
        if self._cell is not None:  # an open cell always has a row
            self._cell.text = "".join(self._chunks)
            self._row.append(self._cell)
        self._cell = None

    def _end_thead(self) -> None:
        if self._in_thead:  # a row left open belongs to the thead
            self._close_row()
        self._in_thead = False

    def _close_row(self) -> None:
        self._close_cell()
        if self._row:
            self.rows.append((self._row, self._in_thead))
        self._row = None


_SPAN_DIGITS = re.compile(r"[\t\n\f\r ]*\+?([0-9]+)")
_SPAN_CAP = 10**9  # any longer span value reads as this; every span is clamped below it


def _parse_span(value: str | None) -> int:
    """A ``rowspan`` or ``colspan`` value read by the HTML rules for parsing
    non-negative integers: ASCII whitespace, at most one "+", then the
    leading ASCII digits. No digits, a minus sign or 0 read as 1 (so
    ``rowspan="0"`` does not yet run to the end of its row group).

    So "2.5" and "3px" read as 2 and 3, as in a browser, and "1_0", "٣"
    (a non-ASCII digit) and "\\xa02" (after a no-break space) read as 1,
    where ``int()`` reads 10, 3 and 2. A value of ten digits or more reads
    as ``_SPAN_CAP``, past every clamp, so no digit string is too long for
    ``int()``.
    """
    if value is None:
        return 1
    match = _SPAN_DIGITS.match(value)
    digits = match.group(1).lstrip("0") if match else ""
    if len(digits) >= 10:
        return _SPAN_CAP
    return int(digits) if digits else 1


def parse_grid(html_text: str) -> Grid:
    """Parse and span-expand the single table in ``html_text``.

    Raises :class:`TableError` unless exactly one ``table`` element is
    present, or (naming the offending row/column) when span expansion does
    not produce a dense rectangle.
    """
    parser = _TableHtmlParser()
    parser.feed(html_text)
    parser.close()
    if parser.table_count != 1:
        raise TableError(f"expected exactly one table element, found {parser.table_count}")
    if not parser.rows:
        raise TableError("table has no rows")

    n_rows = len(parser.rows)
    occupied: dict[tuple[int, int], GridCell] = {}
    thead_rows = 0
    for r, (row_cells, from_thead) in enumerate(parser.rows):
        if from_thead and thead_rows == r:
            thead_rows = r + 1
        c = 0
        for cell in row_cells:
            while (r, c) in occupied:
                c += 1
            cell.row_span = min(cell.row_span, n_rows - r)  # clamp overhang, as browsers do
            cell.origin = (r, c)
            for dr in range(cell.row_span):
                for dc in range(cell.col_span):
                    slot = (r + dr, c + dc)
                    if slot in occupied:
                        raise TableError(
                            f"overlapping spans at row {slot[0]}, column {slot[1]}"
                        )
                    occupied[slot] = cell

    n_cols = max(c for (_, c) in occupied) + 1
    if len(occupied) < n_rows * n_cols:
        r, c = next((r, c) for r in range(n_rows) for c in range(n_cols) if (r, c) not in occupied)
        raise TableError(f"grid is not rectangular: no cell covers row {r}, column {c}")
    slots = [[occupied[r, c] for c in range(n_cols)] for r in range(n_rows)]
    return Grid(slots, thead_rows)


def _leading(flags) -> int:
    """How many of ``flags`` are true before the first false one."""
    return sum(1 for _ in takewhile(bool, flags))


def _header_regions(grid: Grid) -> tuple[int, int]:
    """Return (header height H, header width W), falling back to 1 each.

    H is the ``thead`` row count or else the leading all-header row count;
    W is the leading count of columns that are all header below H.
    """
    header_rows = (all(cell.is_header for cell in row) for row in grid.slots)
    h = grid.thead_rows or _leading(header_rows) or 1
    if h >= grid.n_rows:
        raise TableError("no body rows below the column-header region")
    header_columns = (all(row[c].is_header for row in grid.slots[h:]) for c in range(grid.n_cols))
    w = _leading(header_columns) or 1
    if w >= grid.n_cols:
        raise TableError("no body columns right of the row-header region")
    return h, w


def _chain(grid: Grid, length: int, index: int, by_row: bool) -> list[GridCell]:
    """The distinct cells of the first ``length`` slots of column (``by_row``) or row ``index``."""
    chain: list[GridCell] = []
    for k in range(length):
        cell = grid.slots[k][index] if by_row else grid.slots[index][k]
        if not chain or chain[-1] is not cell:
            chain.append(cell)
    return chain


def _build_forest(chains: list[list[GridCell]], depth: int) -> tuple[HeaderNode, ...]:
    """Trie over cell-identity chains; one leaf per chain end.

    A region cell that ends several adjacent chains (a bottom-boundary
    header spanning k lanes) yields k identically-labeled leaves so the
    leaf count always matches the body dimension.
    """
    nodes: list[HeaderNode] = []
    i = 0
    while i < len(chains):
        cell = chains[i][depth]
        j = i
        while j < len(chains) and chains[j][depth] is cell:
            j += 1
        group = chains[i:j]
        label = normalize_text(cell.text)
        if not label:
            raise TableError(
                f"empty header label at row {cell.origin[0]}, column {cell.origin[1]}"
            )
        # Rectangular spans make "ends here" a property of the cell, so a
        # group either all stops or all continues.
        if len(group[0]) == depth + 1:
            nodes.extend(HeaderNode(label) for _ in group)
        else:
            nodes.append(HeaderNode(label, _build_forest(group, depth + 1)))
        i = j
    return tuple(nodes)


_INDENT_PATTERN = re.compile(r"^[ \xa0]{2,}\S")


def _warn_indentation(cells: list[GridCell]) -> None:
    for cell in cells:
        raw = cell.text.strip("\r\n")
        if _INDENT_PATTERN.match(raw):
            logger.warning(
                "row-header cell at %s starts with indentation %r; "
                "indentation-encoded hierarchy is not inferred and the cell parses flat",
                cell.origin,
                raw[:20],
            )


def parse_html_table(html_text: str) -> HierarchicalTable:
    """Parse the single HTML table in ``html_text`` into the table model.

    Each header chain ends in one leaf and each body row and column lies
    under one chain, so the body always fits the header trees. A chain of
    more than :data:`MAX_HEADER_DEPTH` header levels raises :class:`TableError`.
    """
    grid = parse_grid(html_text)
    h, w = _header_regions(grid)

    top_chains = [_chain(grid, h, c, by_row=True) for c in range(w, grid.n_cols)]
    left_chains = [_chain(grid, w, r, by_row=False) for r in range(h, grid.n_rows)]
    depth = max(map(len, top_chains + left_chains))
    if depth > MAX_HEADER_DEPTH:
        raise TableError(f"header has {depth} levels, more than the {MAX_HEADER_DEPTH} supported")
    _warn_indentation([ch[-1] for ch in left_chains])

    top = CoordTree(_build_forest(top_chains, 0))
    left = CoordTree(_build_forest(left_chains, 0))

    # Row-major, a cell first shows at its origin, and a cell whose origin lies
    # outside the stub region covers no slot in it: this is origin order.
    stub_cells = {id(cell): cell for row in grid.slots[:h] for cell in row[:w]}
    stub = normalize_text(" ".join(cell.text for cell in stub_cells.values()))

    body = tuple(
        tuple(grid.slots[r][c].text for c in range(w, grid.n_cols))
        for r in range(h, grid.n_rows)
    )
    return HierarchicalTable(stub, left, top, body)


def _header_cells(tree: CoordTree) -> list[list[list]]:
    """Each level's header cells, left to right, as ``[first leaf, leaf count, label, is leaf]``.

    A leaf extends the cells whose coordinate prefix it shares with the
    previous leaf and opens one cell at each deeper level of its coordinate.
    """
    levels: list[list[list]] = [[] for _ in range(tree.depth)]
    previous: tuple[int, ...] = ()
    for i, (coord, labels) in enumerate(tree.leaves):
        shared = 0
        while shared < len(previous) and coord[shared] == previous[shared]:
            shared += 1
        for level in levels[:shared]:
            level[-1][1] += 1
        for depth in range(shared, len(coord)):
            levels[depth].append([i, 1, labels[depth], depth == len(coord) - 1])
        previous = coord
    return levels


def _th(row_span: int, col_span: int, label: str) -> str:
    attrs = ""
    if row_span > 1:
        attrs += f' rowspan="{row_span}"'
    if col_span > 1:
        attrs += f' colspan="{col_span}"'
    return f"<th{attrs}>{html_lib.escape(label)}</th>"


def serialize_html(table: HierarchicalTable) -> str:
    """Emit canonical HTML; parsing it back restores the identical model."""
    h, w = table.top.depth, table.left.depth

    lines = ["<table>", "<thead>"]
    for depth, level in enumerate(_header_cells(table.top)):
        cells = [_th(h, w, table.stub_header)] if depth == 0 else []
        for _, leaf_count, label, is_leaf in level:
            cells.append(_th(h - depth if is_leaf else 1, leaf_count, label))
        lines.append("<tr>" + "".join(cells) + "</tr>")
    lines += ["</thead>", "<tbody>"]

    starts: dict[int, list[str]] = {}  # body row -> the row-header cells that open on it
    for depth, level in enumerate(_header_cells(table.left)):
        for first, leaf_count, label, is_leaf in level:
            starts.setdefault(first, []).append(_th(leaf_count, w - depth if is_leaf else 1, label))
    for r, row in enumerate(table.body):
        cells = starts.get(r, []) + [f"<td>{html_lib.escape(value)}</td>" for value in row]
        lines.append("<tr>" + "".join(cells) + "</tr>")
    lines += ["</tbody>", "</table>"]
    return "\n".join(lines)
