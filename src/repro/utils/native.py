"""The package's C boundary: four C files, ten functions, one checked call.

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
TABLE = {
    "sample_cdf": Entry("sample", "cdf:f8[n] n guide:i8[g] g u:f8[m] m out:i8[m]", ValueError),
    "fennel_chunk": Entry(  # -2 - i: a part id not below k
        "fennel", "chunk:i8[b] b lens:i8[b] nbrs:i8[z] z parts:i4[n] n loads:f8[k] k weight:f8[n]"
        " ag:f8 gm1:f8 cap:f8 pen:f8[k] cnt:i8[k]", ValueError, lambda a, i: ValueError(
            f"need part ids below {a['k']}") if i < -1 else GraphFormatError(
            f"row {a['chunk'][i]}: neighbour ids outside [0, {a['n']})")),
    "serve_reads": Entry(  # i: batch[i]; nq + i: pos[i]; nq + nw: m
        "serve", "ctx:serve m batch:i8[nq] nq pos:i8[nw]? home:i8[nw]? nw", ConfigurationError,
        lambda a, i: ConfigurationError(
            f"machine {a['m']}, queries or vertices outside the cache's run")),
    "walk_live": Entry("superstep", "mask:b1[nw] nw pos:i8[nw] prev:i8[nw] idx:i8[k] cur:i8[k]"
                       " prv:i8[k] k", SimulationError),
    "walk_apply": Entry(
        "superstep", "idx:i8[k] k target:i8[k] term:b1[k] parts:i8[n] n load:f8[m] m max_steps"
        " pos:i8[nw] prev:i8[nw] steps:i8[nw] alive:b1[nw] counts:i8[m*m] paths:i8[nw*(max_steps+1)]?"
        " visits:i8[n]? local:b1[nw]?", SimulationError, lambda a, i: SimulationError(
            f"walker {a['idx'][i]} stepped to {a['target'][i]}, not a vertex id")),
    "uniform_slots": Entry("superstep", "indptr:i8[v] v pos:i8[k] u:f8[k] k slots:i8[k] dead:b1[k]",
                           ConfigurationError, lambda a, i: ConfigurationError(
                               f"positions must lie in [0, {a['v'] - 1}), got {a['pos'][i]}")),
    "arcs_sorted": Entry(  # -2 - i: row src[i]'s offsets
        "superstep", "start indptr:i8[v] v ids:i4|i8[z] z wide src:i8[k] tgt:i8[k] k hit:b1[k]",
        ConfigurationError, lambda a, i: GraphFormatError(
            f"row {a['src'][-2 - i]}: offsets outside [0, {a['z']}]") if i < -1 else
        ConfigurationError(f"sources must lie in [{a['start']}, {a['start'] + a['v'] - 1}), "
                           f"got {a['src'][i]}")),
    "census_scan": Entry(  # i: a row offset
        "superstep", "start ptr:i8[r] r ids:i4|i8[z] z wide parts:i8[n] n at:i8[n] by_target:i8[c]?",
        GraphFormatError, lambda a, i: GraphFormatError(
            f"rows [{a['start']}, {a['start'] + a['r'] - 1}): offsets or ids outside [0, {a['n']})")),
    "census_group": Entry(
        "superstep", "parts:i8[n] n m end:i8[n] by_target:i8[c] c cut_src:i8[c] cut_pair:i8[c]"
        " starts:i8[c] group_pair:i8[c]", SimulationError, returns=True),
    "census_push": Entry(
        "superstep", "n active:b1[n] cut_src:i8[c] cut_pair:i8[c] c starts:i8[g] group_pair:i8[g] g"
        " aggregate counts:i8[mm]", SimulationError),
}
#: ``_serve.c``'s context: int64 slots in its enum's order (``work``: a double's bits)
SERVE = ("edges:f8[r]? remote:i8[r]? ptr:i8[r+1]? block:i4[z]? count:i4[z]? parts:i4[n]?"
         " prev:i4[k*nb]? next:i4[k*nb]? resident:u1[k*nb]? rows:i8[k*8]? acc:i8[nb]?"
         " seen:i8[nb]? r n k nb block_size capacity work reads fetched")


@functools.cache
def _params(spec: str) -> tuple:
    return tuple(Param(name, kind, size, bool(opt), tuple(map(np.dtype, kind.split("|"))) if size else ())
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
        self.slots[:] = [v or 0 for v in _checked("serve")(**{**self.fields, **fields})]
        self.fields.update(fields)


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
        elif p.size:
            none = f"(None, None) if {p.name} is None else " * p.optional  # NULL
            fast = f"{p.name}.buffer_info() if type({p.name}) is array and {p.name}.typecode == 'q' else "
            code.append(f"{p.name}_, {p.name}_n = {none}{fast * (p.kind == 'i8')}_buffer({this})")
            code += [f"wide = int({p.name}.itemsize == 8)"] * ("|" in p.kind)
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
             "Struct": Struct, "_buffer": _buffer, "_refuse": _refuse}
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
    """Build ``source`` unless cached and load it, in the span ``span{cached}``;
    no working compiler is a ``ConfigurationError`` naming ``what``."""
    from repro.bench.artifacts import default_cache_dir

    cmd = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_FLAGS]
    key = canon.digest({"source": source.read_text(), "command": cmd})
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
