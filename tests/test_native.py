"""The C boundary's table (``utils/native.py``): every entry's contract.

Parametrised over ``TABLE`` and ``SERVE``, so a new entry is covered
without a new test: for every array argument, a wrong dtype, a strided
view and a too-short array raise the entry's ``error`` before any C call.
An array is "too short" only where another argument fixes its length; a
size symbol that one array alone carries is that array's free length.
The ids the C loops check themselves (``OUTSIDE``) raise the entry's
``bad`` exception at ``n``, -1 and 2**31 - 1, and row offsets read from
a graph (``OFFSETS``) outside its ids a ``GraphFormatError``.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.errors import GraphFormatError, ReproError
from repro.utils import native
from tests._native_cases import (
    CASES, OFFSETS, OUTSIDE, _bucket_arcs, _fennel_rows, _gather_rows, _i8, _induce_rows,
    _scatter_rows, serve_cache, with_id, with_offset)


def _given(spec: str) -> list:
    """The parameters of ``spec`` a caller passes: all but the scalars filled from an array."""
    params = native._params(spec)
    return [p for i, p in enumerate(params) if p.size or p.kind == "serve" or not (
        p.name == "wide" or any(q.size == p.name for q in params[:i]))]


def _arrays(spec: str):
    """``(position among the caller's arguments, param, whether another argument fixes
    its length)`` of every array of ``spec``."""
    given = _given(spec)
    return [(i, p, not p.size.isidentifier() or any(
        q is not p and p.size in (q.name, q.size) for q in given))
        for i, p in enumerate(given) if p.size]


# a block table's arrays are each block's offsets and ids (native.BLOCK)
ARRAYS = [(name, i, q, False) if p.kind == "csr" else (name, i, p, fixed)
          for name, entry in native.TABLE.items() for i, p, fixed in _arrays(entry.params)
          for q in (native._params(native.BLOCK) if p.kind == "csr" else [p])]


def _bad_variants(p, a):
    if isinstance(a, list):  # a block table: block 0's offsets (p: the csr param) or ids
        (ptr, ids), *rest = a
        at = p.name == "ids"
        for what, bad in _bad_variants(p, ids) if at else (("dtype", ptr.astype(np.float32)),):
            yield what, [(ptr, bad) if at else (bad, ids), *rest]
        if p.kind == "csr":
            yield from _bad_variants(native._params(native.BLOCK)[1], a)
        return
    wrong = np.float32 if np.dtype(np.float32) not in p.dtypes else np.int64
    yield "dtype", np.asarray(a).astype(wrong)
    yield "strided", np.repeat(np.asarray(a), 2, axis=-1)[..., ::2]
    yield "short", np.asarray(a)[:-1]


@pytest.fixture
def no_c_call(monkeypatch):
    """Make the C function behind ``name``'s checked call fail the test."""
    def forbid(name):
        monkeypatch.setitem(native._checked(name).__globals__, "_fn",
                            lambda *a: pytest.fail(f"{name} reached C"))
    return forbid


def test_every_case_runs():
    assert CASES.keys() == native.TABLE.keys()
    for name, case in CASES.items():
        native.call(name, *case())  # valid: no exception


@pytest.mark.parametrize("name, i, p, fixed", ARRAYS, ids=[f"{a[0]}-{a[2].name}" for a in ARRAYS])
def test_arrays_are_checked_before_the_c_call(name, i, p, fixed, no_c_call):
    entry, args = native.TABLE[name], list(CASES[name]())
    no_c_call(name)
    for what, bad in _bad_variants(p, args[i]):
        if what == "short" and not fixed:
            continue
        with pytest.raises(entry.error, match=f"^{name}: "):
            native.call(name, *args[:i], bad, *args[i + 1:])


CSR = [(name, i) for name, entry in native.TABLE.items() for i, p, _ in _arrays(entry.params)
       if p.kind == "csr"]


@pytest.mark.parametrize("name, i", CSR, ids=[name for name, _ in CSR])
def test_a_graph_neither_table_nor_blocks_is_refused_by_name(name, i, no_c_call):
    # once a bare TypeError/ValueError from unpacking, and None a NULL table
    entry, args = native.TABLE[name], list(CASES[name]())
    no_c_call(name)
    (ptr, ids), *_ = args[i]
    for bad, got in ((5, "int"), ([(ptr,)], "a tuple of 1"), ([[ptr, ids]], "list"), (None, "NoneType")):
        with pytest.raises(entry.error, match=rf"^{name}: graph must be a Table or a list of "
                                              rf"\(ptr, ids\) pairs, got {got}$"):
            native.call(name, *args[:i], bad, *args[i + 1:])


STRUCT_FIELDS = _arrays(native.SERVE)


@pytest.mark.parametrize("p, fixed", [a[1:] for a in STRUCT_FIELDS],
                         ids=[f"serve-{p.name}" for _, p, _ in STRUCT_FIELDS])
def test_struct_fields_are_checked(p, fixed):
    context = serve_cache().context
    good = context.fields[p.name]
    for what, bad in _bad_variants(p, good):
        if what == "short" and not fixed:
            continue
        before = context.slots.copy()
        with pytest.raises(ValueError, match="^serve: "):
            context.set(**{p.name: bad})
        assert (context.slots == before).all() and context.fields[p.name] is good


@pytest.mark.parametrize("name", sorted(OUTSIDE))
@pytest.mark.parametrize("value", [None, -1, 2**31 - 1])
def test_ids_from_outside_are_range_checked_in_c(name, value):
    for i, n in OUTSIDE[name].items():
        args = with_id(CASES[name](), i, n if value is None else value)
        with pytest.raises((ReproError, ValueError)) as exc:
            native.call(name, *args)
        assert not str(exc.value).startswith(f"{name}:")  # the C loop's refusal, not the contract's


@pytest.mark.parametrize("name", sorted(OFFSETS))
@pytest.mark.parametrize("at, value", [(0, -1), (-1, "z + 1")])
def test_row_offsets_outside_the_ids_are_a_graph_format_error(name, at, value):
    args = with_offset(CASES[name](), OFFSETS[name], at, None if value == "z + 1" else value)
    with pytest.raises(GraphFormatError, match=r"^row \d+: missing, or offsets outside its ids"):
        native.call(name, *args)


def test_fennel_rows_reads_blocks_in_place():
    # _fennel_rows' graph streamed 0, 1, 2 as one block, then as the blocks [0, 2) and [2, 3),
    # the second with int64 ids, and as the table of a graph and of its shards
    whole = _fennel_rows()
    native.call("fennel_rows", *whole)
    (ptr, ids), = whole[0]
    blocks = _fennel_rows()
    table = native.Table([(ptr[:3].copy(), ids[:3].copy()), (ptr[2:] - 3, ids[3:].astype(np.int64))])
    native.call("fennel_rows", table, *blocks[1:])
    assert blocks[2].tolist() == whole[2].tolist() == [0, 0, 0]
    assert blocks[3].tolist() == whole[3].tolist() and whole[3].sum() == 3.0
    with pytest.raises(GraphFormatError, match=r"^row 2: missing"):  # no block holds row 2
        native.call("fennel_rows", table.blocks[:1], *_fennel_rows()[1:])
    with pytest.raises(ValueError, match="^csr: every block but the last must have the first's"):
        native.Table([(ptr[:2].copy(), ids[:2].copy()), (ptr[1:] - 2, ids[2:])])


def test_gather_rows_reads_each_vertex_row_in_order():
    table, vertices, n, out = _gather_rows()
    native.call("gather_rows", table, vertices, n, out)
    assert out.tolist() == [0, 1, 2, 1, 2]
    with pytest.raises(GraphFormatError, match=r"^row 0: .*more arcs than 4$"):
        native.call("gather_rows", table, vertices, n, out[:4])  # no room


def test_a_table_from_a_first_vertex_holds_only_its_rows():
    # _fennel_rows' row 2 as the one block of a table from vertex 2, as a shard run reads it
    [(ptr, ids)], *args = _fennel_rows()
    table = native.Table([(ptr[2:] - 3, ids[3:])], first=2)
    native.call("fennel_rows", table, _i8(2), *args[1:])
    assert args[1].tolist() == [-1, -1, 0]
    with pytest.raises(GraphFormatError, match=r"^row 0: missing"):
        native.call("fennel_rows", table, *args)


def test_bucket_arcs_is_a_stable_counting_sort():
    src, dst, size, at, pairs, deg = _bucket_arcs()
    native.call("bucket_arcs", src, dst, size, at, pairs, deg)
    assert at[:4].tolist() == [0, 3, 3, 5]
    assert pairs.reshape(-1, 2).tolist() == [[0, 4], [1, 5], [0, 3], [4, 0], [5, 1]]
    native.call("bucket_arcs", src, dst, size, at, pairs, deg)
    assert deg.tolist() == [4, 2, 0, 0, 2, 2]  # added to, never reset
    with pytest.raises(GraphFormatError, match=r"^arc 0: source 4 outside \[0, 6\) or past "
                                               r"bucket 1 of size 2$"):
        native.call("bucket_arcs", src, dst, size, at[:4], pairs, deg)


@pytest.mark.parametrize("wide", [False, True])
def test_scatter_rows_fills_each_row_behind_its_cursor(wide):
    pairs, m, lo, cur, end, n, out = _scatter_rows()
    out = out.astype(np.int64 if wide else np.int32)
    native.call("scatter_rows", pairs, m, lo, cur, end, n, out)
    assert out.tolist() == [5, 1, 0, 2] and cur.tolist() == end.tolist()
    for at, value in ((1, 6), (1, -1)):  # a target outside [0, 6)
        bad = pairs.copy()
        bad[at] = value
        with pytest.raises(GraphFormatError, match=r"past its source's count$"):
            native.call("scatter_rows", bad, m, lo, _i8(0, 1, 3), end, n, out)
    with pytest.raises(GraphFormatError, match=r"^arc 3 -> 1: outside sources \[2, 5\)"):
        native.call("scatter_rows", pairs, m, lo, _i8(0, 3, 3), end, n, out)  # source 3 full
    with pytest.raises(GraphFormatError):
        native.call("scatter_rows", pairs, m, lo, _i8(0, 1, 3), _i8(1, 3, 5), n, out)  # past z


def test_no_part_to_place_a_vertex_in_is_refused():
    with pytest.raises(ValueError, match="need part ids below 0"):
        native.call("fennel_rows", *_fennel_rows(k=0))


@pytest.mark.parametrize("wide", range(4))
def test_induce_rows_reads_and_writes_both_index_widths(wide):
    [(ptr, ids)], rows, local_of, deg, _ = _induce_rows()
    graph = [(ptr, ids.astype(np.int64 if wide & 1 else np.int32))]
    out = np.full(6, -9, np.int64 if wide & 2 else np.int32)
    native.call("induce_rows", graph, rows, local_of, deg, out)
    assert deg.tolist() == [1, 1, 2] and out.tolist() == [1, 0, 0, 1, -9, -9]
    with pytest.raises(GraphFormatError, match=r"^row 3: .*more kept arcs than 3$"):
        native.call("induce_rows", graph, rows, local_of, deg, out[:3])  # no room


def test_a_struct_argument_must_be_its_struct(no_c_call):
    args = list(CASES["serve_reads"]())
    no_c_call("serve_reads")
    for ctx in (args[0].slots, None):
        with pytest.raises(native.TABLE["serve_reads"].error, match="must be a Struct"):
            native.call("serve_reads", ctx, *args[1:])


def test_every_entry_is_exported_by_its_library():
    for name, entry in native.TABLE.items():
        assert entry.library in native.LIBRARIES
        source = Path(native.__file__).parents[1] / native.LIBRARIES[entry.library][0]
        signature = re.search(rf"(?:void|int64_t) {name}\(([^)]*)\)", source.read_text())
        assert signature, name
        c_params = [re.findall(r"\w+", arg)[-1] for arg in signature.group(1).split(",")]
        names = [p.name for p in native._params(entry.params)]
        assert len(c_params) == len(names), (name, c_params, names)


def test_the_serve_struct_follows_the_c_enum():
    source = (Path(native.__file__).parents[1] / "serving/_serve.c").read_text()
    enum = re.search(r"enum \{([^}]*)\};", source).group(1)
    slots = [s.strip() for s in enum.split(",")]
    assert len(slots) == len(native._params(native.SERVE))
    assert native.Struct().index["work"] == slots.index("WORK")
