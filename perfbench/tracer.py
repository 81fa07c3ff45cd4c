"""Per-layer call counts and self times, measured from outside the package.

The tracer replaces public functions with timing wrappers in every loaded
``chargeqfi.*`` module namespace that binds them, so calls made through
``from .dynamics import propagate_expm`` style imports are caught as well.
``DensityMatrix`` stays a class (``isinstance`` checks depend on it); its
validation hook ``__post_init__`` is wrapped instead. No source file of the
package changes, and ``uninstall`` restores every binding.

Self time is a call's wall time minus the wall time of the wrapped calls it
made, kept on a per-thread stack. Under the interpreter lock a thread's wall
time includes time spent waiting for the lock, so self times taken on the
thread-pool path are wall shares, not CPU time.
"""

from __future__ import annotations

import sys
import threading
import time

# layer -> public names wrapped in that module. "expm" and "solve_ivp" are
# the scipy kernels as bound in chargeqfi.dynamics, so Python overhead
# around them can be told apart from the kernel itself.
TARGETS = {
    "model": ("build_hamiltonian", "bell_state_psi_plus", "DensityMatrix"),
    "dynamics": ("build_liouvillian", "propagate_expm", "propagate_rk", "lindblad_rhs",
                 "audit_analytic", "analytic_state_matrix", "expm", "solve_ivp"),
    "spectral": ("spectral_decompose",),
    "qfi": ("qfi_components", "qfi_sld", "spectral_derivative", "d_rho"),
    "sweeps": ("run_sweep", "sweep_to_csv", "figure_dataset"),
    "cli": ("cli_main",),
}

# prefix of the line a traced child process prints its counts on
TRACE_MARKER = "@@perfbench-trace "

TRACED_NAMES = tuple(f"{layer}.{name}" for layer, names in TARGETS.items() for name in names)


class Tracer:
    """Install with ``install()``, read with ``snapshot()``, undo with ``uninstall()``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        # name -> [calls, total seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}
        self._undo = []

    def _wrap(self, name, fn):
        local, lock, stat = self._local, self._lock, self.stats[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - child

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "chargeqfi" or key.startswith("chargeqfi."))]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"chargeqfi.{layer}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue  # a later version may drop the function; it then reads 0 calls
                traced = f"{layer}.{name}"
                if isinstance(original, type):
                    hook = original.__dict__.get("__post_init__")
                    if hook is not None:
                        self._undo.append((original, "__post_init__", hook))
                        setattr(original, "__post_init__", self._wrap(traced, hook))
                    continue
                wrapper = self._wrap(traced, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: list(stat) for name, stat in self.stats.items()}


def merge(total: dict, part: dict) -> None:
    """Add one snapshot (e.g. from a traced subprocess) into another."""
    for name, (calls, tot, self_s) in part.items():
        stat = total.setdefault(name, [0, 0.0, 0.0])
        stat[0] += calls
        stat[1] += tot
        stat[2] += self_s
