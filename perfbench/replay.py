"""Traced replay of one diracdiag command.

    python3 perfbench/replay.py --src SRC --spans SPANS.json -- <cli arguments>

Runs ``diracdiag.cli.main`` in this process after wrapping, from outside the
program, every public function of the numerical modules and the numpy.linalg
entry points in timing spans.  Names that other diracdiag modules bound with
``from ... import`` are rebound to the wrappers, and numpy's own module
globals are patched too, so the SVD that ``norm(x, 2)`` reaches internally is
recorded as a child of the norm.  Spans are kept in memory and written to
SPANS.json when the command returns; the exit code is the command's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TRACED_MODULES = ("grids", "oneparticle", "series", "decoupling", "manybody", "report")


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, annotate=None):
        """Time fn under name; annotate(tracer, *args, **kwargs) records counts
        inside a 'trace.annotate' span, which no layer's self time includes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if annotate is not None:
                idx = self.open("trace.annotate")
                try:
                    annotate(self, *args, **kwargs)
                finally:
                    self.close(idx)
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced


# ---------------------------------------------------------------------------
# counts recorded at the boundaries
# ---------------------------------------------------------------------------

def _series_mul_pairs(tracer, a, b, *args, **kwargs):
    """Coefficient products of the truncated Cauchy product, and those with
    both factors nonzero (the ones series_mul actually multiplies)."""
    a_nz = [bool(c.any()) for c in a.coeffs]
    b_nz = [bool(c.any()) for c in b.coeffs]
    k = len(a_nz) - 1
    tracer.count("series.series_mul.pairs", (k + 1) * (k + 2) // 2)
    tracer.count("series.series_mul.useful_pairs",
                 sum(a_nz[m] and b_nz[n - m] for n in range(k + 1) for m in range(n + 1)))


def _batch_shape(x):
    import numpy as np

    shape = np.shape(x)
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    cplx = 4 if np.iscomplexobj(x) else 1
    return batch * cplx, shape[-2], shape[-1]


def _flops(kind):
    """Textbook LAPACK operation counts (Golub and Van Loan), from the shape
    of the argument; complex arithmetic counts four real operations."""

    def annotate(tracer, x, *args, **kwargs):
        scale, m, n = _batch_shape(x)
        if kind == "svd":
            m, n = max(m, n), min(m, n)
            compute_uv = args[1] if len(args) > 1 else kwargs.get("compute_uv", True)
            f = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3 if compute_uv else 4 * m * n * n - 4 * n ** 3 / 3
        elif kind == "eigh":
            f = 9 * n ** 3
        elif kind == "eigvalsh":
            f = 4 * n ** 3 / 3
        else:  # inv: LU plus triangular inverses
            f = 2 * n ** 3
        tracer.count("linalg.flops_computed", scale * f)

    return annotate


def _norm_name(x, ord=None, axis=None, *args, **kwargs):
    import numpy as np

    matrix = np.ndim(x) == 2 if axis is None else (isinstance(axis, tuple) and len(axis) == 2)
    return "linalg.norm2" if matrix and not isinstance(ord, str) and ord == 2 else "linalg.norm"


def install(tracer: Tracer) -> None:
    import importlib

    import numpy as np

    # numpy's own functions (norm -> svd) call the implementation module's globals
    impl = sys.modules.get("numpy.linalg._linalg") or sys.modules.get("numpy.linalg.linalg")
    linalg = {"norm": (_norm_name, None)}
    linalg.update({attr: (f"linalg.{attr}", _flops(attr)) for attr in ("svd", "eigh", "eigvalsh", "inv")})
    for attr, (name, annotate) in linalg.items():
        wrapped = tracer.wrap(name, getattr(np.linalg, attr), annotate)
        for mod in filter(None, (np.linalg, impl)):
            setattr(mod, attr, wrapped)

    for short in ("cli",) + TRACED_MODULES:
        importlib.import_module(f"diracdiag.{short}")
    replacements = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"diracdiag.{short}"]
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            annotate = _series_mul_pairs if (short, attr) == ("series", "series_mul") else None
            replacements[id(obj)] = tracer.wrap(f"{short}.{attr}", obj, annotate)
    for key, mod in list(sys.modules.items()):
        if key == "diracdiag" or key.startswith("diracdiag."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    setattr(mod, attr, replacements[id(obj)])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the diracdiag package")
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    for var in THREAD_ENV:  # before numpy loads, as the CLI itself would
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.abspath(args.src))
    tracer = Tracer()
    install(tracer)
    from diracdiag import cli

    rc = 1
    root = tracer.open("cli.main")
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.close(root)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"rc": rc, "spans": tracer.spans, "counters": tracer.counters}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
