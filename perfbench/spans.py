"""Traced run: wrap the public functions of each layer, keep spans in memory,
and reduce them to per-layer metrics.

A function is wrapped everywhere it is looked up: every ``painleve_calogero``
module attribute bound to the original function object is replaced, so a
name imported with ``from .systems import canonical_field`` is covered as
well as a call through ``elliptic.weierstrass_p``.  ``EllipticContext``
constructions are counted through ``__post_init__``.  ``restore`` puts every
original back.

A span is (name, start, end, parent, op id).  A span's exclusive time is its
duration minus its direct children; a layer's self time inside a span adds
the exclusive times of the same-layer spans nested directly under it (for
example ``hamiltonian_gradients`` inside ``canonical_field``).  ``params``
functions are not wrapped: their sub-microsecond work stays in the caller's
self time.  ``reduce_to_cell`` is likewise part of ``wp`` self time.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

from painleve_calogero import cli, dynamics, elliptic, systems, transforms, verify

# span name -> (module, attribute) of the original function
TARGETS = {
    "elliptic.wp": (elliptic, "weierstrass_p"),
    "elliptic.wp_prime": (elliptic, "weierstrass_p_prime"),
    "elliptic.half_period_values": (elliptic, "half_period_values"),
    "elliptic.shifted_p": (elliptic, "shifted_p"),
    "elliptic.theta": (elliptic, "theta"),
    "elliptic.theta_du": (elliptic, "theta_du"),
    "elliptic.theta_du2": (elliptic, "theta_du2"),
    "elliptic.theta_dtau": (elliptic, "theta_dtau"),
    "elliptic.f_and_derivatives": (elliptic, "f_and_derivatives"),
    "elliptic.asymptotic_p": (elliptic, "asymptotic_p"),
    "elliptic.asymptotic_p23_sum": (elliptic, "asymptotic_p23_sum"),
    "systems.field": (systems, "canonical_field"),
    "systems.gradients": (systems, "hamiltonian_gradients"),
    "systems.hamiltonian": (systems, "hamiltonian"),
    "transforms.multi_transform": (transforms, "multi_transform"),
    "transforms.lambda_of_q": (transforms, "lambda_of_q"),
    "transforms.q_of_lambda": (transforms, "q_of_lambda"),
    "transforms.mu_of_pq": (transforms, "mu_of_pq"),
    "transforms.pq_of_lambdamu": (transforms, "pq_of_lambdamu"),
    "transforms.time_map": (transforms, "time_map_pvi"),
    "transforms.time_map_inverse": (transforms, "time_map_pvi_inverse"),
    "transforms.jacobian": (transforms, "jacobian_dtau_dt"),
    "dynamics.integrate": (dynamics, "integrate"),
    "verify.run_suite": (verify, "run_suite"),
    "verify.correspondence": (verify, "run_correspondence_suite"),
    "verify.dynamic": (verify, "run_dynamic_correspondence"),
    "verify.degeneration": (verify, "run_degeneration_suite"),
    "cli.main": (cli, "main"),
}
CONTEXT = "elliptic.context"
THETAS = ("elliptic.theta", "elliptic.theta_du", "elliptic.theta_du2", "elliptic.theta_dtau")
SERIES = ("elliptic.wp", "elliptic.wp_prime")
# multi_transform spans are named by direction
DIRECTIONS = {"to_painleve": "transforms.to_painleve", "to_calogero": "transforms.to_calogero"}


def _package_modules():
    return [(name, module) for name, module in list(sys.modules.items())
            if name == "painleve_calogero" or name.startswith("painleve_calogero.")]


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``restore`` unwraps."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # (op, n_rhs, n_accepted, n_rejected) of every trajectory integrate returned
        self.trajectories: list[tuple[int, int, int, int]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_of):
        """name_of(args, kwargs) -> span name id."""
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args, kwargs))
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(idx)
            # stamped last, so the span leaves out its own bookkeeping
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.bench_span = True
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for span_name, (module, attr) in TARGETS.items():
            fn = getattr(module, attr)
            if span_name == "transforms.multi_transform":
                ids = {d: self._id(n) for d, n in DIRECTIONS.items()}
                name_of = (lambda a, k, ids=ids:
                           ids[a[1] if len(a) > 1 else k["direction"]])
            else:
                nid = self._id(span_name)
                name_of = lambda a, k, nid=nid: nid  # noqa: E731
            wrapper = self._wrap(fn, name_of)
            if span_name == "dynamics.integrate":
                wrapper = self._record_trajectory(wrapper)
            wrappers[id(fn)] = wrapper
        for _, module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        ctx_id = self._id(CONTEXT)
        post_init = elliptic.EllipticContext.__post_init__
        self._patch(elliptic.EllipticContext, "__post_init__",
                    self._wrap(post_init, lambda a, k: ctx_id))

    def _record_trajectory(self, wrapper):
        tracer = self

        def integrate_wrapper(*args, **kwargs):
            traj = wrapper(*args, **kwargs)
            tracer.trajectories.append(
                (tracer.current_op, traj.n_rhs, traj.n_accepted, traj.n_rejected))
            return traj

        integrate_wrapper.bench_span = True
        return integrate_wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back; raise if a wrapper is still reachable."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        left = [f"{name}.{attr}" for name, module in _package_modules()
                for attr, value in vars(module).items() if getattr(value, "bench_span", False)]
        if getattr(elliptic.EllipticContext.__post_init__, "bench_span", False):
            left.append("EllipticContext.__post_init__")
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write the spans out (numpy .npz, one array per field)."""
        np.savez_compressed(path, **self.arrays())


def _nearest(parent: np.ndarray, is_target: np.ndarray) -> np.ndarray:
    """Index of each span's nearest ancestor-or-self with is_target, else -1.

    Parents precede children, so pointer jumping converges in O(log depth).
    """
    nxt = np.where(is_target, np.arange(len(parent)), parent)
    while True:
        jump = np.maximum(nxt, 0)
        new = np.where((nxt >= 0) & ~is_target[jump], nxt[jump], nxt)
        if np.array_equal(new, nxt):
            return nxt
        nxt = new


class SpanStats:
    """Reductions over one tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(a["names"])
        self.name = a["name"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        n = len(self.dur)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.excl = self.dur - child[:n]
        layers = sorted({s.split(".")[0] for s in self.names})
        layer_of_name = np.array([layers.index(s.split(".")[0]) for s in self.names] or [0])
        self.layer_names = layers
        self.layer = layer_of_name[self.name] if n else np.zeros(0, dtype=int)
        # top of each same-layer chain: that span's layer self time collects
        # the exclusive time of the chain below it
        same = has_parent & (self.layer == self.layer[np.maximum(self.parent, 0)])
        top = _nearest(np.where(same, self.parent, -1), ~same)
        self.layer_self = np.bincount(top, weights=self.excl, minlength=n)[:n] if n else self.excl

    def mask(self, *span_names) -> np.ndarray:
        ids = [self.names.index(s) for s in span_names if s in self.names]
        return np.isin(self.name, ids)

    def count(self, *span_names) -> int:
        return int(self.mask(*span_names).sum())

    def mean_excl_us(self, *span_names) -> float:
        m = self.mask(*span_names)
        return float(self.excl[m].mean() * 1e6) if m.any() else 0.0

    def mean_layer_self_us(self, span_name) -> float:
        m = self.mask(span_name)
        return float(self.layer_self[m].mean() * 1e6) if m.any() else 0.0

    def total_dur(self, span_name) -> float:
        return float(self.dur[self.mask(span_name)].sum())

    def total_excl(self, span_name) -> float:
        return float(self.excl[self.mask(span_name)].sum())

    def layer_excl(self, layer: str) -> float:
        if layer not in self.layer_names:
            return 0.0
        return float(self.excl[self.layer == self.layer_names.index(layer)].sum())

    def per_ancestor(self, ancestor: str, *span_names) -> np.ndarray:
        """For each ``ancestor`` span, how many ``span_names`` spans lie under it."""
        is_anc = self.mask(ancestor)
        owner = _nearest(self.parent, is_anc)
        hit = self.mask(*span_names) & (owner >= 0) & ~is_anc
        counts = np.bincount(owner[hit], minlength=len(self.dur))
        return counts[is_anc]
