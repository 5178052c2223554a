"""JSON descriptors for fields, algebras, elements and forms.

Field elements travel as their canonical textual form ("p/q" or
"p/q+r/s*sqrt(d)"); division-algebra elements as coordinate arrays of
those strings; matrices as row-major arrays of elements.  A form carries
its rank and its Gram as a rank x rank grid of ell x ell blocks.
Everything round-trips bit-exactly.
"""

from __future__ import annotations

from typing import Any

from .algebra import AlgebraWithInvolution, DElem, DivisionAlgebraDesc, MatD
from .errors import ParseError
from .field import FieldDesc, format_elem, parse_elem
from .forms import HermitianForm
from .orders import OrderingInfo

__all__ = [
    "field_to_json",
    "field_from_json",
    "delem_to_json",
    "delem_from_json",
    "matd_to_json",
    "matd_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "form_to_json",
    "form_from_json",
    "ordering_name",
    "parse_ordering",
    "ordering_info_to_json",
]


def ordering_name(p: int) -> str:
    return f"P{p}"


def parse_ordering(raw: Any) -> int:
    """An ordering index, given as an integer or as a name such as "P0"."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        s = raw.strip().upper()
        if s.startswith("P"):
            s = s[1:]
        if s.isdecimal():
            return int(s)
    raise ParseError(f"cannot parse ordering {raw!r}")


def _integer(raw: Any, what: str) -> int:
    """int(raw) for an int or an integer string; a bool or a float, which
    int() would silently truncate, is a ParseError like any other bad value."""
    if isinstance(raw, (bool, float)):
        raise ParseError(f"{what}: {raw!r} is not an integer")
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def field_to_json(field: FieldDesc) -> dict:
    if field.d is None:
        return {"kind": "rationals"}
    return {"kind": "real_quadratic", "d": field.d}


def field_from_json(data: Any) -> FieldDesc:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("field descriptor must be an object with a kind")
    kind = data["kind"]
    if kind == "rationals":
        return FieldDesc()
    if kind == "real_quadratic":
        what = "bad real quadratic field"
        try:
            return FieldDesc(_integer(data["d"], what))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{what}: {exc}") from exc
    raise ParseError(f"unknown field kind {kind!r}")


def delem_to_json(x: DElem) -> list[str]:
    return [format_elem(c) for c in x.coords]


def delem_from_json(div: DivisionAlgebraDesc, data: Any) -> DElem:
    if not isinstance(data, list) or len(data) != div.dim:
        raise ParseError(
            f"element of {div.kind} algebra needs {div.dim} coordinates"
        )
    try:
        coords = tuple(parse_elem(div.base, str(c)) for c in data)
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad element coordinates: {exc}") from exc
    return DElem(div, coords)


def matd_to_json(m: MatD) -> list[list[list[str]]]:
    return [[delem_to_json(e) for e in row] for row in m.entries]


def matd_from_json(div: DivisionAlgebraDesc, data: Any) -> MatD:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix must be an array of rows")
    rows = [[delem_from_json(div, e) for e in row] for row in data]
    if not rows:
        return MatD.zeros(div, 0, 0)
    return MatD(div, rows)


def _div_to_json(div: DivisionAlgebraDesc) -> dict:
    if div.kind == "split":
        return {"kind": "split"}
    if div.kind == "quad":
        return {"kind": "quad", "d": format_elem(div.params[0])}
    return {
        "kind": "quat",
        "a": format_elem(div.params[0]),
        "b": format_elem(div.params[1]),
    }


def _div_from_json(field: FieldDesc, data: Any) -> DivisionAlgebraDesc:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("division algebra descriptor must have a kind")
    kind = data["kind"]
    try:
        if kind == "split":
            return DivisionAlgebraDesc(field, "split")
        if kind == "quad":
            d = parse_elem(field, str(data["d"]))
            return DivisionAlgebraDesc(field, "quad", (d,))
        if kind == "quat":
            a = parse_elem(field, str(data["a"]))
            b = parse_elem(field, str(data["b"]))
            return DivisionAlgebraDesc(field, "quat", (a, b))
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing division algebra parameter {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown division algebra kind {kind!r}")


def algebra_to_json(alg: AlgebraWithInvolution) -> dict:
    return {
        "field": field_to_json(alg.field),
        "div": _div_to_json(alg.div),
        "ell": alg.ell,
        "phi": matd_to_json(alg.phi),
    }


def algebra_from_json(data: Any, field: FieldDesc | None = None) -> AlgebraWithInvolution:
    if not isinstance(data, dict):
        raise ParseError("algebra descriptor must be an object")
    if "field" in data:
        field = field_from_json(data["field"])
    if field is None:
        raise ParseError("algebra descriptor needs a field")
    div = _div_from_json(field, data.get("div"))
    if "ell" not in data:
        raise ParseError("bad ell: 'ell'")
    ell = _integer(data["ell"], "bad ell")
    phi = matd_from_json(div, data.get("phi"))
    try:
        return AlgebraWithInvolution(ell, div, phi)
    except Exception as exc:
        raise ParseError(f"invalid algebra descriptor: {exc}") from exc


def form_to_json(h: HermitianForm) -> dict:
    return {
        "rank": h.rank,
        "gram": [
            [matd_to_json(h.block(i, j)) for j in range(h.rank)]
            for i in range(h.rank)
        ],
    }


def form_from_json(alg: AlgebraWithInvolution, data: Any) -> HermitianForm:
    if not isinstance(data, dict) or "rank" not in data or "gram" not in data:
        raise ParseError("form descriptor needs rank and gram")
    rank = _integer(data["rank"], "bad rank")
    grid = data["gram"]
    if not isinstance(grid, list) or len(grid) != rank:
        raise ParseError("gram grid does not match rank")
    blocks = []
    for row in grid:
        if not isinstance(row, list) or len(row) != rank:
            raise ParseError("gram grid does not match rank")
        blocks.append([matd_from_json(alg.div, b) for b in row])
    if any((b.rows, b.cols) != (alg.ell,) * 2 for row in blocks for b in row):
        raise ParseError("gram block has wrong size")
    gram = MatD.from_blocks(alg.div, blocks)
    try:
        return HermitianForm(alg, rank, gram)
    except Exception as exc:
        raise ParseError(f"invalid form: {exc}") from exc


def ordering_info_to_json(info: OrderingInfo) -> dict:
    return {
        "ordering": ordering_name(info.ordering),
        "class": info.cls,
        "n_P": info.n_p,
        "nil": info.nil,
    }
