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
from tests._native_cases import CASES, OFFSETS, OUTSIDE, serve_cache


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


ARRAYS = [(name, *array) for name, entry in native.TABLE.items() for array in _arrays(entry.params)]


def _bad_variants(p, a):
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
        args = list(CASES[name]())
        ids = np.array(args[i])
        ids[0] = n if value is None else value
        args[i] = ids
        with pytest.raises((ReproError, ValueError)) as exc:
            native.call(name, *args)
        assert not str(exc.value).startswith(f"{name}:")  # the C loop's refusal, not the contract's


@pytest.mark.parametrize("name", sorted(OFFSETS))
@pytest.mark.parametrize("at, value", [(0, -1), (-1, "z + 1")])
def test_row_offsets_outside_the_ids_are_a_graph_format_error(name, at, value):
    args = list(CASES[name]())
    i = OFFSETS[name]
    offsets = args[i].copy()
    offsets[at] = args[i + 1].size + 1 if value == "z + 1" else value
    args[i] = offsets
    with pytest.raises(GraphFormatError, match=r"^rows? \[?\d+.*offsets"):
        native.call(name, *args)


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
