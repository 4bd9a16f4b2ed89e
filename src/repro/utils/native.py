"""The package's C boundary: four C files and a header, sixteen functions, one checked call.

``TABLE`` declares each function's library and C parameters; :func:`call` checks
the arguments against it, then calls (grammar and contracts: DESIGN.md, "The C boundary").
"""

from __future__ import annotations

import ctypes
import functools
import os
import re
import shlex
import subprocess
import sysconfig
import tempfile
from array import array
from collections import namedtuple
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError, GraphFormatError, SimulationError
from repro.utils import canon

# no contraction into fused multiply-adds: every rounding step matches the spec's
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


Entry = namedtuple("Entry", "library params error bad returns", defaults=(None, False))
Param = namedtuple("Param", "name kind size optional dtypes")  # size: an array's length

LIBRARIES = {  # source (in the package), build span, the name a failed build gives
    "fennel": ("partition/kernels/_fennel.c", "partition.kernels.build", "buffered kernel"),
    "serve": ("serving/_serve.c", "serving.kernels.build", "serving kernel"),
    "sample": ("graph/_sample.c", "graph.kernels.build", "graph sampler"),
    "superstep": ("engines/_superstep.c", "engine.kernels.build", "engine kernel"),
}
#: a csr[g] table's block: its row offsets and the ids they index (utils/_graph.h)
BLOCK = "ptr:i8[r] ids:i4|i8[z]"
_ROW = "missing, or offsets outside its ids"
HEADER = Path(__file__).with_name("_graph.h")  # the csr[g] block lookup and the uniform step
TABLE = {
    "sample_cdf": Entry("sample", "cdf:f8[n] n guide:i8[g] g u:f8[m] m out:i8[m]", ValueError),
    "fennel_rows": Entry(  # i: stream[i]'s ids; b + i: its row; -2 - i: a part id
        "fennel", "graph:csr[g] g stream:i8[b] b parts:i4[n] n loads:f8[k] k weight:f8[n] ag:f8"
        " gm1:f8 cap:f8 pen:f8[k] cnt:i8[k]", ValueError,
        lambda a, i: ValueError(f"need part ids below {a['k']}") if i < -1 else GraphFormatError(
            f"row {a['stream'][i % a['b']]}: " + (_ROW if i >= a['b'] else
                                                  f"neighbour ids outside [0, {a['n']})"))),
    "bucket_arcs": Entry(  # i: arc i's source
        "sample", "src:i8[m] dst:i8[m] m size at:i8[g] g pairs:i8[2*m] deg:i8[n] n", ValueError,
        lambda a, i: GraphFormatError(f"arc {i}: source {a['src'][i]} outside [0, {a['n']}) or "
                                      f"past bucket {a['g'] - 3} of size {a['size']}")),
    "scatter_rows": Entry(  # i: arc i
        "sample", "pairs:i8[2*m] m lo cur:i8[r] end:i8[r] r n out:i4|i8[z] z wide", ValueError,
        lambda a, i: GraphFormatError(f"arc {a['pairs'][2 * i]} -> {a['pairs'][2 * i + 1]}: outside "
                                      f"sources [{a['lo']}, {a['lo'] + a['r']}) and targets [0, "
                                      f"{a['n']}), or past its source's count")),
    "serve_reads": Entry(  # i: batch[i]; nq + i: pos[i]; nq + nw: m
        "serve", "ctx:serve m batch:i8[nq] nq pos:i8[nw]? home:i8[nw]? nw", ConfigurationError,
        lambda a, i: ConfigurationError(
            f"machine {a['m']}, queries or vertices outside the cache's run")),
    "serve_batch": Entry(  # i: batch[i]; nq: m, a target or the walk state; -2 - v: v's row
        "serve", "ctx:serve m batch_id batch:i8[nq] nq", ConfigurationError, lambda a, i: (
            GraphFormatError(f"row {-2 - i}: offsets or a walker's arc outside the graph") if i < -1
            else ConfigurationError(f"machine {a['m']}, batch {a['batch_id']} or queries outside "
                                    "the cache's run"))),
    "walk_draws": Entry("serve", "seed:u8[4] u:f8[n] n", ValueError),
    "walk_live": Entry("superstep", "mask:b1[nw] nw pos:i8[nw] prev:i8[nw] idx:i8[k] cur:i8[k]"
                       " prv:i8[k] k", SimulationError),
    "walk_apply": Entry(
        "superstep", "idx:i8[k] k target:i8[k] term:b1[k] parts:i8[n] n load:f8[m] m max_steps"
        " pos:i8[nw] prev:i8[nw] steps:i8[nw] alive:b1[nw] counts:i8[m*m] paths:i8[nw*(max_steps+1)]?"
        " visits:i8[n]? local:b1[nw]?", SimulationError, lambda a, i: SimulationError(
            f"walker {a['idx'][i]} stepped to {a['target'][i]}, not a vertex id")),
    "uniform_step": Entry(  # i: pos[i]; -2 - i: its row or an arc's id
        "superstep", "graph:csr[g] g n pos:i8[k] u:f8[k] k out:i8[k] dead:b1[k]",
        ConfigurationError, lambda a, i: GraphFormatError(
            f"row {a['pos'][-2 - i]}: {_ROW} or an arc's id outside [0, {a['n']})") if i < -1
        else ConfigurationError(f"positions must lie in [0, {a['n']}), got {a['pos'][i]}")),
    "arcs_sorted": Entry(  # i: src[i]; -2 - i: its row's offsets
        "superstep", "graph:csr[g] g src:i8[k] tgt:i8[k] k hit:b1[k]", ConfigurationError,
        lambda a, i: GraphFormatError(f"row {a['src'][-2 - i]}: {_ROW}") if i < -1 else
        ConfigurationError(f"sources must be rows of the graph, got {a['src'][i]}")),
    "census_scan": Entry(  # i: a row
        "superstep", "graph:csr[g] g parts:i8[n] n at:i8[n] by_target:i8[c]?", GraphFormatError,
        lambda a, i: GraphFormatError(f"row {i}: {_ROW}, or ids outside [0, {a['n']})")),
    "induce_rows": Entry(  # i: rows[i]'s ids; -2 - i: its row, or no room in out
        "sample", "graph:csr[g] g rows:i8[c] c local_of:i8[n] n deg:i8[c] out:i4|i8[o] o wide",
        GraphFormatError, lambda a, i: GraphFormatError(
            f"row {a['rows'][-2 - i]}: {_ROW}, or more kept arcs than {a['o']}" if i < -1 else
            f"row {a['rows'][i]}: neighbour ids outside [0, {a['n']})")),
    "gather_rows": Entry(  # i: vertices[i] or its ids; -2 - i: its row, or no room in out
        "sample", "graph:csr[g] g vertices:i8[c] c n out:i8[o] o", ConfigurationError,
        lambda a, i: GraphFormatError(f"row {a['vertices'][-2 - i]}: {_ROW}, or more arcs than "
                                      f"{a['o']}") if i < -1 else ConfigurationError(
            f"vertices and their neighbour ids must lie in [0, {a['n']}), got row {a['vertices'][i]}")),
    "census_group": Entry(
        "superstep", "parts:i8[n] n m end:i8[n] by_target:i8[c] c cut_src:i8[c] cut_pair:i8[c]"
        " starts:i8[c] group_pair:i8[c]", SimulationError, returns=True),
    "census_push": Entry(
        "superstep", "n active:b1[n] cut_src:i8[c] c starts:i8[g] group_pair:i8[g] g counts:i8[mm]",
        SimulationError),
}
#: ``_serve.c``'s context: int64 slots in its enum's order (``work``, ``seconds``: doubles' bits)
SERVE = ("edges:f8[r]? remote:i8[r]? ptr:i8[r+1]? block:i4[z]? count:i4[z]? parts:i4[n]?"
         " prev:i4[k*nb]? next:i4[k*nb]? resident:u1[k*nb]? rows:i8[k*8]? acc:i8[nb]?"
         " seen:i8[nb]? r n k nb block_size capacity work reads fetched kind:u1[r]? vertex:i8[r]?"
         " home:i8[r]? graph:csr[g]? g cost:f8[7]? cores:f8[k]? s seeds:u8[s*k*4]? visits:i8[w]?"
         " homes:i8[w]? w steps walked seconds")


@functools.cache
def _params(spec: str) -> tuple:
    return tuple(Param(name, kind, size, bool(opt), tuple(map(np.dtype, kind.split("|")))
                       if size and kind != "csr" else ())
                 for name, kind, size, opt in re.findall(r"(\w+):?([\w|]*)(?:\[(.+?)\])?(\??)", spec))


class Struct:
    """``SERVE``'s int64 slots; :meth:`set` checks arrays as :func:`call` does and holds them."""

    def __init__(self, **fields) -> None:
        self.fields = {}
        self.index = {p.name: i for i, p in enumerate(_params(SERVE))}
        self.slots = np.zeros(len(self.index), dtype=np.int64)
        self.address = self.slots.ctypes.data
        self.set(**fields)

    def set(self, **fields) -> None:
        values = _checked("serve")(**{**self.fields, **fields})
        self.tables = [v for v in values if type(v) is Table]  # built from blocks by the check
        self.slots[:] = [getattr(v, "_as_parameter_", v) or 0 for v in values]
        self.fields.update(fields)


class Table:
    """A graph's blocks as C reads them (``csr[g]``): one ``(ptr, r + 1, ids, z, wide, first)``
    row per ``(ptr, ids)`` block, each checked against ``BLOCK``, every block but the last
    holding as many rows as the first, and block 0's rows those of vertices from ``first`` on.
    It holds the arrays its rows point at; ids of another integer width (a narrow shard's) are
    widened to int64 here, once."""

    def __init__(self, blocks, error=ValueError, name: str = "csr", first: int = 0) -> None:
        bad = [b for b in (blocks if type(blocks) is list else [blocks]) if type(b) != tuple or len(b) != 2]
        if bad:  # every csr parameter of TABLE and SERVE is named graph
            got = f"a tuple of {len(bad[0])}" if type(bad[0]) is tuple else type(bad[0]).__name__
            raise error(f"{name}: graph must be a Table or a list of (ptr, ids) pairs, got {got}")
        ptr, ids = _params(BLOCK)
        self.blocks = [(a, b.astype(np.int64) if isinstance(b, np.ndarray) and b.dtype.kind in "iu"
                        and b.dtype not in ids.dtypes else b) for a, b in blocks]
        rows = [(*_buffer(error, name, ptr, a), *_buffer(error, name, ids, b), b.itemsize == 8,
                 first) for a, b in self.blocks]
        if any(r[1] != rows[0][1] for r in rows[:-1]) or rows and rows[-1][1] > rows[0][1]:
            raise error(f"{name}: every block but the last must have the first's rows")
        self.rows = np.array(rows, np.int64).reshape(-1, 6)
        self._as_parameter_, self.size = self.rows.ctypes.data, len(rows)


def call(name: str, *args):
    """``TABLE[name]`` on the given parameters, after checking them."""
    return _checked(name)(*args)


@functools.cache
def _checked(name: str):
    """:func:`call` of ``TABLE[name]`` (or, for "serve", ``SERVE``'s filler) as straight-line Python."""
    struct = name == "serve"
    params = _params(SERVE if struct else TABLE[name].params)
    given, first, code = [], {}, []  # first: each size's first array, or None
    for p in params:
        if not p.size and (p.name in first or p.name == "wide"):
            continue  # filled
        given.append(f"{p.name}={'None' if p.size else 0}" if struct else p.name)
        this = f"_E, _N, _P['{p.name}'], {p.name}"
        if p.kind == "serve":
            code.append(f"if type({p.name}) is not Struct: raise _refuse({this})")
        elif p.kind == "csr":
            code.append(f"{p.name}_ = {p.name} if {f'{p.name} is None or ' * p.optional}type({p.name}) "
                        f"is Table else Table({p.name}, _E, _N)")
            code.append(f"{p.name}_n = {p.name}_ and {p.name}_.size")
            first.setdefault(p.size, p.name)
        elif p.size:
            none = f"(None, None) if {p.name} is None else " * p.optional  # NULL
            fast = f"{p.name}.buffer_info() if type({p.name}) is array and {p.name}.typecode == 'q' else "
            code.append(f"{p.name}_, {p.name}_n = {none}{fast * (p.kind == 'i8')}_buffer({this})")
            bit = sum("|" in q.kind for q in params[:params.index(p)])  # wide: bit j, the j-th i4|i8
            code += [f"wide {'|' * bool(bit)}= int({p.name}.itemsize == 8) << {bit}"] * ("|" in p.kind)
            first.setdefault(p.size, p.name if p.size.isidentifier() else None)
        else:
            first[p.name] = None
    code += [f"{s} = {a}_n or 0" for s, a in first.items() if a]  # bound by its first array
    code += [f"if {f'{p.name}_n is not None and ' * p.optional}{p.name}_n != {p.size}: raise "
             f"_refuse(_E, _N, _P['{p.name}'], {p.name}_n, {p.size})"
             for p in params if p.size and first.get(p.size) != p.name]
    args = ", ".join(f"{p.name}.address" if p.kind == "serve" else p.name + "_" * bool(p.size)
                     for p in params)
    scope = {"_N": name, "_P": {p.name: p for p in params}, "_E": ValueError, "array": array,
             "Struct": Struct, "Table": Table, "_buffer": _buffer, "_refuse": _refuse}
    if struct:
        code.append(f"return {args},")
    else:
        entry = TABLE[name]
        scope.update(_E=entry.error, _bad=entry.bad, _fn=getattr(library(entry.library), name))
        scope["_fn"].argtypes = [ctypes.c_void_p if p.size or p.kind == "serve" else
                                 ctypes.c_double if p.kind == "f8" else ctypes.c_int64 for p in params]
        scope["_fn"].restype = ctypes.c_int64 if entry.bad or entry.returns else None
        code += [f"_r = _fn({args})", *["if _r != -1: raise _bad(locals(), _r)"] * bool(entry.bad),
                 f"return {'_r' if entry.returns else 'None'}"]
    signature = f"*, {', '.join(given)}" if struct else ", ".join(given)
    exec("\n    ".join([f"def checked({signature}):", *code]), scope)  # noqa: S102 - from TABLE
    return scope["checked"]


def _buffer(error, name: str, p, a) -> tuple:  # (address, length) of an array meeting p
    if isinstance(a, np.ndarray) and a.dtype in p.dtypes and a.flags.c_contiguous:
        return a.ctypes.data, a.size
    raise _refuse(error, name, p, a)


def _refuse(error, name: str, p, a, want=None) -> Exception:
    if want is not None:  # a wrong length
        return error(f"{name}: {a} {p.name} {'flags' if p.kind == 'b1' else 'values'}, {p.size}={want}")
    got = f"a {'C-contiguous' if a.flags.c_contiguous else 'strided'} {a.dtype} array" if (
        isinstance(a, np.ndarray)) else type(a).__name__
    want = f"a C-contiguous {p.kind} array" if p.size else "a Struct"
    return error(f"{name}: {p.name} must be {want}, got {got}")


@functools.cache
def library(key: str) -> ctypes.CDLL:
    """``LIBRARIES[key]``, built once per cache directory and loaded once per process."""
    return load(Path(__file__).parents[1] / LIBRARIES[key][0], *LIBRARIES[key][1:])


def load(source: Path, span: str, what: str) -> ctypes.CDLL:
    """Build ``source`` unless cached and load it, in the span ``span{cached}``; its cache key
    hashes ``HEADER`` too. No working compiler is a ``ConfigurationError`` naming ``what``."""
    from repro.bench.artifacts import default_cache_dir

    cmd = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_FLAGS]
    key = canon.digest({"source": source.read_text(), "header": HEADER.read_text(), "command": cmd})
    target = default_cache_dir() / "kernels" / f"{source.stem.lstrip('_')}-{key[:16]}.so"
    cached = target.is_file()
    with telemetry.active().span(span, cached=cached):
        if not cached:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
            os.close(fd)
            try:
                try:
                    run = subprocess.run([*cmd, "-o", tmp, str(source), "-lm"],
                                         capture_output=True, text=True)
                except OSError as exc:  # no such compiler
                    run = subprocess.CompletedProcess(cmd, 1, "", exc.strerror or str(exc))
                if run.returncode == 0:
                    os.replace(tmp, target)
            finally:
                Path(tmp).unlink(missing_ok=True)
            if run.returncode != 0:
                first = (run.stderr.strip().splitlines() or ["no output"])[0]
                raise ConfigurationError(
                    f"cannot build the {what} with `{shlex.join(cmd)}`: {first}")
        return ctypes.CDLL(str(target))
