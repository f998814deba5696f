"""Per-layer tracing of critgap, done from outside the package.

`Tracer.install` wraps the public functions of every package module (its
`__all__`), a few public methods, and the two LAPACK bindings `fredholm`
looks up by name, in timing spans.  Because package modules import each
other's functions by name (`from .special import gamma`), every module
attribute that holds an original function is rebound to its wrapper, so
calls made inside the package are traced as well as calls made into it.

Each span records its inclusive time and its self time (inclusive time
minus the inclusive time of the spans it opened).  Spans live on a
per-thread stack; the `mc` worker threads therefore have their own top-level
spans, whose times are thread-seconds rather than wall time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import threading
import time
import types

LAYERS = ("special", "contours", "kernels", "fredholm", "observables", "mc")

# (layer, public function) -> kind, where the kind selects a metric below;
# every other public function is traced under the kind "call".
_KINDS = {
    ("contours", "build_hairpin"): "build",
    ("contours", "build_vertical"): "build",
    ("contours", "build_closed_loop"): "build",
    ("kernels", "kernel_matrix"): "matrix",
    ("kernels", "qa_matrix"): "matrix",
    ("kernels", "ha_matrix"): "matrix",
    ("kernels", "cross_blocks"): "blocks",
    ("kernels", "finite_kernel"): "finite",
    ("fredholm", "halfline_operator"): "assembly",
    ("fredholm", "qa_operator"): "assembly",
    ("fredholm", "ha_operator"): "assembly",
    ("fredholm", "det_one_minus"): "det",
    ("mc", "ginibre_matrix"): "draw",
    ("mc", "product_log_norms"): "product",
    ("mc", "top_log_eigenvalue"): "top_eig",
}

# (module attribute holding a class, method, layer, kind)
_METHODS = (
    ("observables", "RhWorkspace", "__init__", "workspace"),
    ("observables", "RhWorkspace", "y1", "y1"),
    ("fredholm", "DiscreteOperator", "__init__", "operator"),
    ("fredholm", "DiscreteOperator", "matrix", "assembly"),
    ("fredholm", "HalfLineGrid", "__post_init__", "assembly"),
)

# scipy functions fredholm imported by name: (attribute, kind)
_LAPACK = (("lu_factor", "lu"), ("lu_solve", "solve"))


class _ThreadState:
    """Span stack and accumulators of one thread."""

    def __init__(self, main: bool):
        self.main = main
        self.stack: list[list] = []
        # (layer, kind) -> [calls, self_s, inclusive_s]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: dict[str, float] = {}
        self.grids: set[bytes] = set()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


class Tracer:
    """Collects spans; `clock` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread()
                                 is threading.main_thread())
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def wrap(self, fn, layer: str, kind: str):
        """Return `fn` wrapped in a span of the given layer and kind."""
        clock = self.clock
        on_exit = _HOOKS.get(kind)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            frame = [0.0, None]  # child inclusive time, grid sizes built
            state.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                state.stack.pop()
                acc = state.spans.get((layer, kind))
                if acc is None:
                    acc = state.spans[(layer, kind)] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += elapsed - frame[0]
                acc[2] += elapsed
                if state.stack:
                    state.stack[-1][0] += elapsed
            if on_exit is not None:
                on_exit(state, frame, args, result)
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Trace the imported critgap package until `uninstall`."""
        import critgap  # noqa: F401  (loads every package module)
        mods = {layer: sys.modules[f"critgap.{layer}"] for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    kind = _KINDS.get((layer, name), "call")
                    wrappers[id(fn)] = (fn, self.wrap(fn, layer, kind))
        for name, kind in _LAPACK:
            fn = getattr(mods["fredholm"], name)
            wrappers[id(fn)] = (fn, self.wrap(fn, "fredholm", kind))
        for modname, mod in list(sys.modules.items()):
            if modname != "critgap" and not modname.startswith("critgap."):
                continue
            for name, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, name, entry[1])
        for layer, cls_name, method, kind in _METHODS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, method,
                        self.wrap(cls.__dict__[method], layer, kind))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated so far, by metric name."""
        calls: dict[tuple[str, str], float] = {}
        self_all: dict[tuple[str, str], float] = {}
        incl: dict[tuple[str, str], float] = {}
        self_main = dict.fromkeys(LAYERS, 0.0)
        counts: dict[str, float] = {}
        grids: set[bytes] = set()
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (n, own, total) in st.spans.items():
                calls[key] = calls.get(key, 0) + n
                self_all[key] = self_all.get(key, 0.0) + own
                incl[key] = incl.get(key, 0.0) + total
                if st.main:
                    self_main[key[0]] += own
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0.0) + value
            grids |= st.grids

        def total(table, layer, *kinds):
            return sum(v for (lay, kind), v in table.items()
                       if lay == layer and (not kinds or kind in kinds))

        builds = total(calls, "contours", "build")
        out = {
            "special.calls": total(calls, "special"),
            "contours.builds": builds,
            "contours.nodes": counts.get("contours.nodes", 0.0),
            "contours.unique_ratio": len(grids) / builds if builds else 0.0,
            "kernels.matrices": counts.get("kernels.matrices", 0.0),
            "kernels.entries": counts.get("kernels.entries", 0.0),
            "fredholm.operators": total(calls, "fredholm", "operator"),
            "fredholm.assembly_self_s": total(self_all, "fredholm",
                                              "assembly", "operator"),
            "fredholm.lu_count": total(calls, "fredholm", "lu"),
            "fredholm.lu_flops": counts.get("fredholm.lu_flops", 0.0),
            "fredholm.lu_s": total(incl, "fredholm", "lu"),
            "fredholm.det_s": total(self_all, "fredholm", "det"),
            "fredholm.solve_count": total(calls, "fredholm", "solve"),
            "fredholm.solve_s": total(incl, "fredholm", "solve"),
            "observables.workspace_builds": total(calls, "observables",
                                                  "workspace"),
            "observables.workspace_s": total(incl, "observables", "workspace"),
            "observables.y1_count": total(calls, "observables", "y1"),
            "observables.y1_self_s": total(self_all, "observables", "y1"),
            "mc.trials": total(calls, "mc", "top_eig"),
            "mc.draw_s": total(incl, "mc", "draw"),
            "mc.product_self_s": total(self_all, "mc", "product"),
            "mc.top_eig_s": total(incl, "mc", "top_eig"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_main[layer]
        out["trace.self_sum_s"] = sum(self_main.values())
        return out


# -- result hooks: counts read off a span's arguments or result --------------

def _on_build(state, frame, args, grid):
    n = len(grid)
    state.add("contours.nodes", n)
    state.grids.add(hashlib.blake2b(grid.nodes.tobytes(),
                                    digest_size=16).digest())
    if state.stack:  # let the caller see the grid sizes it built
        parent = state.stack[-1]
        parent[1] = (parent[1] or []) + [n]


def _on_matrix(state, frame, args, matrix):
    state.add("kernels.matrices", 1)
    state.add("kernels.entries", matrix.size)


def _on_blocks(state, frame, args, blocks):
    for block in blocks:
        _on_matrix(state, frame, args, block)


def _on_finite(state, frame, args, value):
    # finite_kernel sums a loop x line exponent array over the two grids
    # it builds; that array is its matrix
    sizes = frame[1] or []
    state.add("kernels.matrices", 1)
    if len(sizes) >= 2:
        state.add("kernels.entries", sizes[0] * sizes[1])


def _on_lu(state, frame, args, result):
    n = args[0].shape[0]
    state.add("fredholm.lu_flops", 8.0 / 3.0 * n ** 3)


_HOOKS = {
    "build": _on_build,
    "matrix": _on_matrix,
    "blocks": _on_blocks,
    "finite": _on_finite,
    "lu": _on_lu,
}
