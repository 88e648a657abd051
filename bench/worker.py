"""One ``ellr`` invocation in a fresh process, as a user would run it.

Usage: python3 bench/worker.py [--reference] --trace 0|1|setup -- <ellr arguments>
       python3 bench/worker.py [--reference] --import-only

The process imports ``elliptic_rmatrix`` from the checkout's ``src/`` (with
``--reference``, from the seed snapshot in ``bench/reference/``), calls
``cli.main(argv)`` once and exits with its return code.  The report goes to
standard output untouched; the measurement record is the last line of
standard error, prefixed with ``BENCH-RECORD``.

Untraced, the only instrumentation is a one-shot probe that stamps the first
call from ``cli`` into ``property_suite`` or ``qdet_engine`` (the end of
set-up) and then removes itself.  ``--trace setup`` stops the call there.  Traced, every public function of the six
modules is wrapped wherever it is bound, including the modules that took it
with ``from .x import y``, and each wrapper accumulates calls and self time
(its span minus its child spans).
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from pathlib import Path

RECORD_PREFIX = "BENCH-RECORD "
SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
MODULES = (
    "special_functions",
    "tensor_algebra",
    "rmatrix_builders",
    "property_suite",
    "qdet_engine",
    "cli",
)
# cli's public run_* helpers stay inside cli.main's self time, as the layer
# "parsing, row assembly and serialization"; only its __all__ is wrapped.
SETUP_END_MODULES = ("property_suite", "qdet_engine")


def _import_package(root: Path):
    sys.path.insert(0, str(root))
    from elliptic_rmatrix import cli

    package_dir = (root / "elliptic_rmatrix").resolve()
    if Path(cli.__file__).resolve().parent != package_dir:
        raise SystemExit(f"imported elliptic_rmatrix from {cli.__file__}, not {package_dir}")
    return cli


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "elliptic_rmatrix" or name.startswith("elliptic_rmatrix.")]


def public_functions(short_name: str) -> dict:
    """The functions a module defines and lists in ``__all__``."""
    module = sys.modules[f"elliptic_rmatrix.{short_name}"]
    found = {}
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[f"{short_name}.{name}"] = obj
    return found


def _rebind(originals: dict, replacements: dict) -> int:
    """Point every binding of an original function, in every package module, at its replacement."""
    by_id = {id(fn): key for key, fn in originals.items()}
    rebound = 0
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            key = by_id.get(id(value))
            if key is not None and value is originals[key]:
                setattr(module, attr, replacements[key])
                rebound += 1
    return rebound


class SetupDone(Exception):
    """Raised by the probe to end a set-up-only call."""


class SetupProbe:
    """Stamps the first call from ``cli`` into the suite or qdet layers, then unhooks."""

    def __init__(self, cli_module, stop: bool):
        self.cli = cli_module
        self.stop = stop
        self.stamp: float | None = None
        self.originals = {}
        for short in SETUP_END_MODULES:
            for key, fn in public_functions(short).items():
                name = key.split(".", 1)[1]
                if getattr(cli_module, name, None) is fn:
                    self.originals[name] = fn
        if not self.originals:
            raise SystemExit("cli binds no public function of property_suite or qdet_engine")
        for name, fn in self.originals.items():
            setattr(cli_module, name, self._probe(fn))

    def _probe(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if self.stamp is None:
                self.stamp = time.monotonic()
                for name, original in self.originals.items():
                    setattr(self.cli, name, original)
                if self.stop:
                    raise SetupDone
            return fn(*args, **kwargs)

        return probe


class Tracer:
    """Per-function calls and self time, aggregated in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []

    def install(self) -> None:
        originals = {}
        for short in MODULES:
            originals.update(public_functions(short))
        wrappers = {key: self._wrap(key, fn) for key, fn in originals.items()}
        if _rebind(originals, wrappers) < len(originals):
            raise SystemExit("a public function is bound nowhere in the package")

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _count_build(self, args: tuple, kwargs: dict) -> None:
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        self._count(f"rmatrix_builders.build_r.calls.{kind.value}", 1)

    def _count_embed(self, args: tuple, kwargs: dict) -> None:
        op = args[0] if args else kwargs["op"]
        arity = args[2] if len(args) > 2 else kwargs["arity"]
        dim = op.local_dim ** arity
        # computed, not measured: one complex128 matrix of the embedded size
        self._count("tensor_algebra.embed.bytes", 16 * dim * dim)

    def _wrap(self, key: str, fn):
        perf = time.perf_counter
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        self_s[key] = 0.0
        calls[key] = 0
        after = {
            "rmatrix_builders.build_r": self._count_build,
            "tensor_algebra.embed": self._count_embed,
        }.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf() - start
                self_s[key] += span - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += span
                if after is not None:
                    after(args, kwargs)

        return traced


def _poch_cache_info(special_functions) -> dict | None:
    """Hits and misses of the Pochhammer memo, or None once the memo is gone."""
    cached = getattr(special_functions, "_poch", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return {"hits": stats.hits, "misses": stats.misses}


def main(argv: list[str]) -> int:
    root = SRC
    if argv[:1] == ["--reference"]:
        root, argv = REFERENCE, argv[1:]
    if argv == ["--import-only"]:
        _import_package(root)
        return 0
    if len(argv) < 3 or argv[0] != "--trace" or argv[1] not in ("0", "1", "setup") \
            or argv[2] != "--":
        raise SystemExit("usage: worker.py [--reference] --trace 0|1|setup -- <ellr arguments>")
    traced = argv[1] == "1"
    ellr_argv = argv[3:]
    cli = _import_package(root)
    from elliptic_rmatrix import special_functions

    tracer = probe = None
    if traced:
        tracer = Tracer()
        tracer.install()
    else:
        probe = SetupProbe(cli, stop=argv[1] == "setup")

    t_main_start = time.monotonic()
    try:
        rc = cli.main(ellr_argv)
    except SetupDone:
        rc = 0
    sys.stdout.flush()
    t_main_end = time.monotonic()

    record = {
        "rc": rc,
        "t_setup_end": probe.stamp if probe else None,
        "t_main_start": t_main_start,
        "t_main_end": t_main_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "poch_cache": _poch_cache_info(special_functions),
    }
    if tracer:
        record["self_s"] = tracer.self_s
        record["calls"] = tracer.calls
        record["counts"] = tracer.counts
    sys.stderr.write(RECORD_PREFIX + json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
