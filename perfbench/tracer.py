"""Outside-in tracing of one omegaphase CLI process.

The program has no spans of its own, so this module wraps its functions
from outside: every public function of the traced layer modules, the
`Dyadic` constructor, `SquareEnergyModel.separation_holds`, and the
numpy/scipy eigensolvers.  A wrapper replaces the function at every
module binding, because several layers import functions by name
(`phase` calls `witness_wprime` and `interval_Im` through its own
globals, `chaitin` calls `run_bounded` the same way), so patching only
the defining module would miss those calls.

Each wrapper records the call count (keyed by the calling layer), the
inclusive time of the function, and the self time of its layer, which is
the span's duration minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "dyadic", "tm", "chaitin", "qpe", "clock", "phase")
# Eigensolver time is charged to `clock.eig_s` only when the caller is one
# of these modules; from elsewhere (the XY chain in `phase`) it stays in
# the caller's self time.
EIG_CALLERS = ("omegaphase.clock", "omegaphase.cli")
EIG_FUNCTIONS = {
    "numpy.linalg": ("eig", "eigh", "eigvals", "eigvalsh"),
    "scipy.linalg": (
        "eig", "eigh", "eigvals", "eigvalsh", "eigh_tridiagonal", "eigvalsh_tridiagonal",
    ),
    "scipy.sparse.linalg": ("eigs", "eigsh", "lobpcg"),
}
ROOT = "harness"


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.span_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[tuple[str, str]] = Counter()
        self.steps_reported = 0
        self.outcomes = 0
        self.stages: set[tuple[str, int]] = set()
        self._times = [0.0]  # time covered by child spans, one entry per open span
        self._layers = [ROOT]

    def wrap(self, fn, layer: str, key: str, observe=None):
        """A timed, counted stand-in for ``fn``; ``observe(args, result)``
        runs after each successful call."""
        times, layers = self._times, self._layers
        self_s, span_s, calls = self.self_s, self.span_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key, layers[-1]] += 1
            times.append(0.0)
            layers.append(layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                layers.pop()
                self_s[layer] += dt - times.pop()
                span_s[key] += dt
                times[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def wrap_eig(self, fn, key: str):
        timed = self.wrap(fn, "eig", key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") in EIG_CALLERS:
                return timed(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the loaded omegaphase modules; call after importing the CLI."""
        for name in EIG_FUNCTIONS:  # imported here so a lazy import in clock is still seen
            importlib.import_module(name)
        program = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "omegaphase"]
        replacements: dict[int, object] = {}
        for mod_name, names in EIG_FUNCTIONS.items():
            mod = sys.modules[mod_name]
            for fname in names:
                fn = getattr(mod, fname, None)
                if callable(fn):
                    wrapped = self.wrap_eig(fn, f"eig.{fname}")
                    replacements[id(fn)] = wrapped
                    setattr(mod, fname, wrapped)
        observers = {
            "tm.run_bounded": self._observe_run,
            "qpe.qpe_distribution": self._observe_distribution,
            "chaitin.omega_approx": self._observe_stage,
        }
        for mod in program:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not _is_function(fn) or id(fn) in replacements:
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                key = f"{layer}.{fname}"
                replacements[id(fn)] = self.wrap(fn, layer, key, observers.get(key))
        for mod in program:
            for fname, fn in list(vars(mod).items()):
                wrapped = replacements.get(id(fn))
                if wrapped is not None:
                    setattr(mod, fname, wrapped)
        self._wrap_method("omegaphase.dyadic", "Dyadic", "__init__", "dyadic", "dyadic.Dyadic")
        self._wrap_method(
            "omegaphase.phase", "SquareEnergyModel", "separation_holds",
            "phase", "phase.separation_holds",
        )

    def _wrap_method(self, mod_name, cls_name, meth, layer, key) -> None:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is not None:
            setattr(cls, meth, self.wrap(fn, layer, key))

    def _observe_run(self, args, result) -> None:
        self.steps_reported += getattr(result, "steps_used", 0)

    def _observe_distribution(self, args, result) -> None:
        self.outcomes += len(getattr(result, "probabilities", ()))

    def _observe_stage(self, args, result) -> None:
        if len(args) == 2:  # omega_approx(spec, stage), called positionally
            self.stages.add((getattr(args[0], "name", repr(args[0])), int(args[1])))

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "span_s": dict(self.span_s),
            "calls": [[k, caller, n] for (k, caller), n in sorted(self.calls.items())],
            "steps_reported": self.steps_reported,
            "outcomes": self.outcomes,
            "stages": len(self.stages),
        }


def _is_function(obj) -> bool:
    # lru_cache wrappers (phase.find_s_prime) are callables carrying __wrapped__
    return isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "__wrapped__") and not isinstance(obj, type)
    )
