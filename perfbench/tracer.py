"""Per-layer tracing of dhtsim from outside the program.

Each traced function is replaced by a wrapper that counts its calls and
its self time: the wall time inside it minus the time spent in traced
functions it called.  A function is rebound under every name that holds
it in any dhtsim module, because modules import each other's functions
(kadnet binds xor_closest, sharedrep binds knuckles, analysis binds
aggregate, oscillation_decision, selection_prob and ewma_update), so
patching only the defining module would miss those calls.
"""

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, qualified name) of every traced function: one layer per module
TARGETS = (
    ("idspace", "Ring.owner"),
    ("idspace", "Ring.predecessor"),
    ("idspace", "Ring.successors"),
    ("idspace", "Ring.finger"),
    ("idspace", "xor_closest"),
    ("halonet", "halo_lookup"),
    ("halonet", "chord_next_hop"),
    ("halonet", "reds_next_hop"),
    ("halonet", "knuckle_exists"),
    ("halonet", "HaloNetwork.finger_bucket"),
    ("halonet", "HaloNetwork.contact_score"),
    ("halonet", "HaloNetwork.join"),
    ("halonet", "HaloNetwork.leave"),
    ("reputation", "ReputationStore.score"),
    ("reputation", "ReputationStore.select_max"),
    ("reputation", "ReputationStore.record"),
    ("reputation", "ReputationStore.record_path"),
    ("reputation", "selection_prob"),
    ("reputation", "ewma_update"),
    ("kadnet", "kad_lookup"),
    ("kadnet", "bucket_insert"),
    ("kadnet", "credit_reputation"),
    ("kadnet", "KadNetwork.replica_roots"),
    ("kadnet", "KadNetwork.colluders_within"),
    ("kadnet", "KadNetwork.join"),
    ("sharedrep", "SharedExchange.run_epoch"),
    ("sharedrep", "SharedExchange.finger_holders"),
    ("sharedrep", "adversarial_report"),
    ("sharedrep", "expected_dropoff"),
    ("sharedrep", "aggregate"),
    ("adversary", "AttackPolicy.should_attack"),
    ("adversary", "oscillation_decision"),
    ("analysis", "simulate_oscillation"),
    ("analysis", "sweep"),
    ("analysis", "use_based_sim"),
)

NAMES = tuple("%s.%s" % target for target in TARGETS)


class Tracer:
    """Call counts and self time per traced function, in this process."""

    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self._inner = [0.0]   # traced time of the children of each open call
        self._active = True

    def install(self):
        """Wrap every target that exists; a missing one stays at zero."""
        modules = [m for name, m in sys.modules.items()
                   if name == "dhtsim" or name.startswith("dhtsim.")]
        for (modname, qualname), name in zip(TARGETS, NAMES):
            module = sys.modules.get("dhtsim." + modname)
            if module is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = inspect.getattr_static(owner, attr, None)
            if not inspect.isfunction(fn):
                continue
            traced = self._wrap(name, fn)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without charging any layer."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _wrap(self, name, fn):
        inner = self._inner
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            inner.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                calls[name] += 1
                self_s[name] += elapsed - inner.pop()
                inner[-1] += elapsed

        return traced
