"""Per-layer tracing: wrap shadowlab's public functions where callers look them up.

Each wrapped function is replaced, on every shadowlab module that holds it
as an attribute (its defining module and every module that imported it by
name), with a wrapper that records calls, total time and self time (total
minus time spent in nested wrapped calls).  Some layers also count rows or
outcomes from the shape of what they return.  A name that no longer exists
is reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


def _rows(result) -> int:
    return result.shape[0] if getattr(result, "ndim", 1) == 2 else 1


# (module, function, name of the extra count or None)
LAYERS = (
    ("ensembles", "sample_haar_state", "rows"),
    ("ensembles", "sample_posterior_states", "rows"),
    ("measurement", "measure_joint_batch", "outcomes"),
    ("measurement", "measure_independent_batch", "outcomes"),
    ("observables", "random_observable", None),
    ("estimators", "affine_shadow", None),
    ("estimators", "median_estimate", None),
    ("estimators", "plan_batches", None),
    ("cli", "plan_linear_batches", None),
    ("cli", "plan_quadratic_batches", None),
    ("cli", "run_sweep", None),
    ("moments", "exact_first_moment", None),
    ("moments", "brute_first_moment", None),
    ("moments", "exact_second_moment", None),
    ("moments", "brute_second_moment", None),
    ("moments", "exact_covariance", None),
    ("moments", "covariance_bound", None),
    ("moments", "mc_covariance", None),
    ("moments", "shadow_pair_traces", None),
    ("moments", "ab_bijection_check", None),
    ("linalg", "perm_operator", None),
    ("linalg", "sym_projector", None),
    ("bhm", "gen_instance", None),
    ("bhm", "matching_observable", None),
    ("bhm", "alice_shadows", None),
    ("bhm", "bob_guess", None),
    ("bhm", "run_protocol", None),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


class Tracer:
    """Installs the wrappers; keeps per-(layer, site) statistics in memory."""

    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = {}  # (layer, site module) -> Stat
        self.absent: list[str] = []
        self.root_s = 0.0  # time inside outermost wrapped calls
        self._child_s: list[float] = []  # per open span: time in nested spans
        self._patches: list[tuple[object, str, object]] = []

    def install(self):
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "shadowlab" or name.startswith("shadowlab.")]
        for mod_name, fn_name, count in LAYERS:
            layer = f"{mod_name}.{fn_name}"
            try:
                original = getattr(importlib.import_module(f"shadowlab.{mod_name}"), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            for site in loaded:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        key = (layer, site.__name__.removeprefix("shadowlab."))
                        self.stats[key] = Stat()
                        wrapper = self._wrap(original, self.stats[key], count is not None)
                        self._patches.append((site, attr, original))
                        setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    def _wrap(self, fn, stat: Stat, counted: bool):
        child_s = self._child_s

        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = child_s.pop()
                if child_s:
                    child_s[-1] += dt
                else:
                    self.root_s += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - nested
            if counted:
                stat.count += _rows(result)
            return result

        return wrapper

    def by_layer(self) -> dict[str, Stat]:
        """Statistics summed over every site of each layer."""
        out = {f"{m}.{f}": Stat() for m, f, _ in LAYERS}
        for (layer, _), st in self.stats.items():
            agg = out[layer]
            agg.calls += st.calls
            agg.total_s += st.total_s
            agg.self_s += st.self_s
            agg.count += st.count
        return out

    def site(self, layer: str, site: str) -> Stat:
        return self.stats.get((layer, site), Stat())
