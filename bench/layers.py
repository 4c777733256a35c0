"""Per-layer split of a cProfile run of the simulator.

Every profiled function belongs to the layer of the ``repro`` module that
defines it.  Builtins, the standard library and numpy belong to no layer:
their self time is charged to the nearest calling ``repro`` function,
following the caller edges pstats records.  The shares of all layers
therefore sum to 1.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, FrozenSet, Optional, Tuple

#: Layers in report order; ``other`` holds the rest of ``repro`` and time
#: that no ``repro`` function called.
LAYERS: Tuple[str, ...] = (
    "core",
    "cluster",
    "node",
    "cache",
    "intervals",
    "tertiary",
    "sched",
    "topo",
    "faults",
    "workload",
    "sim",
    "obs",
    "exec",
    "other",
)

#: Modules whose layer differs from their package's.
_MODULE_LAYER = {
    "cluster/cluster.py": "cluster",
    "cluster/access.py": "cluster",
    "cluster/costmodel.py": "cluster",
    "cluster/node.py": "node",
    "data/cache.py": "cache",
    "data/intervals.py": "intervals",
    "data/dataspace.py": "intervals",
    "data/tertiary.py": "tertiary",
}
_PACKAGE_LAYER = {
    name: name
    for name in ("core", "sched", "topo", "faults", "workload", "sim", "obs", "exec")
}

#: Functions whose exact call counts name the known hotspots:
#: metric -> (module under ``repro/``, function name).
HOT_FUNCTIONS: Dict[str, Tuple[str, str]] = {
    "cluster.idle_nodes.calls": ("cluster/cluster.py", "idle_nodes"),
    "node.idle.calls": ("cluster/node.py", "idle"),
    "cluster.best_cache_owner.calls": ("cluster/cluster.py", "best_cache_owner"),
    "cache.cached_prefix.calls": ("data/cache.py", "cached_prefix"),
    "tertiary.read.calls": ("data/tertiary.py", "read"),
    "engine.call_at.calls": ("core/engine.py", "call_at"),
}

# pstats entry: (primitive calls, calls, self s, cumulative s, callers);
# each caller edge is (primitive calls, calls, self s, cumulative s).
_CALLS, _SELF, _CUMULATIVE, _CALLERS = 1, 2, 3, 4
Key = Tuple[str, int, str]


def module_of(filename: str, package_dir: str) -> Optional[str]:
    """``cluster/node.py`` for a file of the ``repro`` package, else ``None``."""
    path = os.path.abspath(filename)
    if not path.startswith(package_dir + os.sep):
        return None
    return path[len(package_dir) + 1 :].replace(os.sep, "/")


def layer_of_module(module: str) -> str:
    if module in _MODULE_LAYER:
        return _MODULE_LAYER[module]
    return _PACKAGE_LAYER.get(module.split("/", 1)[0], "other")


class Attribution:
    """Layer split of one pstats table (``pstats.Stats(...).stats``)."""

    def __init__(self, stats: Dict[Key, tuple], package_dir: str) -> None:
        self.stats = stats
        self.modules = {key: module_of(key[0], package_dir) for key in stats}
        self._charged: Dict[Tuple[Key, int], Dict[str, float]] = {}

    def own_layer(self, key: Key) -> Optional[str]:
        """The layer of a ``repro`` function; ``None`` for any other."""
        module = self.modules.get(key)
        return None if module is None else layer_of_module(module)

    def charged(
        self, key: Key, weight: int = _SELF, seen: FrozenSet[Key] = frozenset()
    ) -> Dict[str, float]:
        """Fractions of ``key``'s time that each layer is charged.

        A ``repro`` function is charged wholly to its own layer.  Any other
        function is split over its callers in proportion to the time each
        edge carries: its self time along each edge for the function
        itself, cumulative time further up, where the callee's time is
        part of the caller's.
        """
        layer = self.own_layer(key)
        if layer is not None:
            return {layer: 1.0}
        memo = (key, weight)
        if memo in self._charged:
            return self._charged[memo]
        all_callers = self.stats[key][_CALLERS] if key in self.stats else {}
        callers = {c: edge for c, edge in all_callers.items() if c not in seen}
        total = sum(edge[weight] for edge in callers.values())
        column = weight if total > 0 else _CALLS
        total = total if total > 0 else sum(e[_CALLS] for e in callers.values())
        if total <= 0:
            return {"other": 1.0}
        out: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            share = edge[column] / total
            for name, part in self.charged(caller, _CUMULATIVE, seen | {key}).items():
                out[name] += share * part
        if len(callers) == len(all_callers):
            # A split that skipped a caller already on the path (recursion
            # outside repro) holds for this path only.
            self._charged[memo] = dict(out)
        return dict(out)

    def caller_layer(self, key: Key) -> str:
        """The layer a call made by ``key`` comes from."""
        charged = self.charged(key, _CUMULATIVE)
        return max(sorted(charged), key=charged.__getitem__)

    def table(self) -> Dict[str, object]:
        """Self time and share per layer, calls into each layer from
        another, the cross-layer edge matrix and the hotspot call counts."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls_in = dict.fromkeys(LAYERS, 0)
        edges: Dict[str, Dict[str, float]] = {}
        calls = dict.fromkeys(HOT_FUNCTIONS, 0)
        hot = {target: metric for metric, target in HOT_FUNCTIONS.items()}
        for key, entry in self.stats.items():
            for name, part in self.charged(key).items():
                self_s[name] += part * entry[_SELF]
            layer = self.own_layer(key)
            if layer is None:
                continue
            metric = hot.get((self.modules[key], key[2]))
            if metric is not None:
                calls[metric] += entry[_CALLS]
            for caller, edge in entry[_CALLERS].items():
                source = self.caller_layer(caller)
                if source == layer:
                    continue
                calls_in[layer] += edge[_CALLS]
                pair = edges.setdefault(f"{source}->{layer}", {"calls": 0, "seconds": 0.0})
                pair["calls"] += edge[_CALLS]
                pair["seconds"] += edge[_CUMULATIVE]
        total = sum(self_s.values())
        return {
            "total_self_s": total,
            "layers": {
                name: {
                    "self_s": self_s[name],
                    "self_share": self_s[name] / total if total > 0 else 0.0,
                    "calls_in": calls_in[name],
                }
                for name in LAYERS
            },
            "edges": dict(sorted(edges.items())),
            "calls": calls,
        }
