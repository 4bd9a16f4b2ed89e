"""Build and load the package's C files: one path for every compiled loop.

A library is compiled on first use with the interpreter's C compiler
(``sysconfig`` ``CC``, else ``cc``) into ``$REPRO_CACHE_DIR/kernels/``
under a name digesting the source and the command, so an edit rebuilds
and concurrent builds race only to one atomic ``os.replace``.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

from repro import telemetry
from repro.errors import ConfigurationError
from repro.utils import canon

# no contraction into fused multiply-adds: every rounding step matches the spec's
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


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
