"""Declarative topology specification with validation and presets.

A :class:`TopologySpec` is a frozen value (like
:class:`~repro.sim.config.SimulationConfig`, whose optional ``topology``
field carries one): a tuple of :class:`TierSpec` tiers forming a rooted
tree, plus the replica-placement policy the run applies at interior
caches.  Validation happens in ``__post_init__`` and raises
:class:`~repro.core.errors.ConfigurationError` with actionable messages
(bad parent references, cycles, zero-bandwidth links) so a malformed
topology never reaches the simulator.

Tree shape conventions:

* exactly one tier has ``parent=None`` — the **root**, which hosts the
  tertiary storage system; it has no uplink (``link_bandwidth`` must be 0);
* every other tier's ``link_bandwidth`` is the bytes/second of its uplink
  to its parent and must be > 0 (a zero-bandwidth link would make the
  tier unreachable — that is a spec error, not an infinitely slow link);
* compute nodes attach to the **leaf** tiers (tiers with no children),
  distributed in declaration order as contiguous id blocks;
* ``depth`` counts tiers along the longest root-to-leaf path; depth 1
  (root only, no tier cache) is the paper's flat cluster and is
  guaranteed observationally identical to running without a topology.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core import units
from ..core.errors import ConfigurationError

#: Replica-placement policies applied when a chunk misses every tier
#: cache and streams from the root tertiary store:
#:
#: * ``none`` — tier caches are never populated (the paper's implicit
#:   baseline: only node-local disk caches exist);
#: * ``root-only`` — the highest cache on the node's path (the site
#:   replica store) absorbs every tertiary read;
#: * ``lru-rack`` — pull-through: every cache on the path absorbs the
#:   read, so data migrates down to the rack on first access and ages
#:   out LRU;
#: * ``proactive-site`` — an extent is promoted into every cache on the
#:   path once it has been fetched ``promote_threshold`` times (the
#:   §4.2 "replicate on the 3rd access" rule, lifted to tiers).
PLACEMENTS: Tuple[str, ...] = ("none", "root-only", "lru-rack", "proactive-site")


@dataclass(frozen=True)
class TierSpec:
    """One tier of the grid: a named tree vertex with an uplink and an
    optional cache.

    ``cache_bytes`` is the tier cache capacity (0 = no cache at this
    tier).  ``link_bandwidth`` is the uplink to ``parent`` in
    bytes/second; ``link_capacity_streams`` is the number of full-rate
    concurrent streams the uplink carries before queueing sets in (0 =
    uncontended: the link never saturates).
    """

    name: str
    parent: Optional[str] = None
    cache_bytes: int = 0
    link_bandwidth: float = 0.0
    link_capacity_streams: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tier name must be a non-empty string")
        if self.cache_bytes < 0:
            raise ConfigurationError(
                f"tier {self.name!r}: cache_bytes must be >= 0, "
                f"got {self.cache_bytes}"
            )
        if self.link_capacity_streams < 0:
            raise ConfigurationError(
                f"tier {self.name!r}: link_capacity_streams must be >= 0, "
                f"got {self.link_capacity_streams}"
            )
        if self.parent is None:
            if self.link_bandwidth != 0.0:
                raise ConfigurationError(
                    f"root tier {self.name!r} must not declare an uplink "
                    f"(link_bandwidth={self.link_bandwidth}); the root hosts "
                    "tertiary storage directly"
                )
        elif self.link_bandwidth <= 0.0:
            raise ConfigurationError(
                f"tier {self.name!r}: zero-bandwidth uplink to "
                f"{self.parent!r}; every non-root tier needs "
                "link_bandwidth > 0 (bytes/second)"
            )


@dataclass(frozen=True)
class TopologySpec:
    """A validated tier tree plus the run's replica-placement policy."""

    tiers: Tuple[TierSpec, ...]
    placement: str = "none"
    #: Fetch count after which ``proactive-site`` promotes an extent.
    promote_threshold: int = 3

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ConfigurationError("topology needs at least one tier")
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; "
                f"choose one of {', '.join(PLACEMENTS)}"
            )
        if self.promote_threshold < 1:
            raise ConfigurationError(
                f"promote_threshold must be >= 1, got {self.promote_threshold}"
            )
        names = [tier.name for tier in self.tiers]
        seen: Set[str] = set()
        for name in names:
            if name in seen:
                raise ConfigurationError(f"duplicate tier name {name!r}")
            seen.add(name)
        roots = [tier.name for tier in self.tiers if tier.parent is None]
        if len(roots) != 1:
            raise ConfigurationError(
                "topology needs exactly one root tier (parent=None), got "
                f"{len(roots)}: {roots or 'none'}"
            )
        by_name = {tier.name: tier for tier in self.tiers}
        for tier in self.tiers:
            if tier.parent is not None and tier.parent not in by_name:
                raise ConfigurationError(
                    f"unknown parent {tier.parent!r} of tier {tier.name!r}; "
                    f"known tiers: {', '.join(sorted(by_name))}"
                )
        # Cycle check: walking up from any tier must reach the root.
        for tier in self.tiers:
            trail: List[str] = [tier.name]
            visited = {tier.name}
            current = tier
            while current.parent is not None:
                current = by_name[current.parent]
                trail.append(current.name)
                if current.name in visited:
                    raise ConfigurationError(
                        "tier parent chain contains a cycle: "
                        + " -> ".join(trail)
                    )
                visited.add(current.name)

    # -- tree queries ------------------------------------------------------

    @property
    def root(self) -> TierSpec:
        for tier in self.tiers:
            if tier.parent is None:
                return tier
        raise ConfigurationError("topology has no root tier")  # unreachable

    @property
    def leaves(self) -> Tuple[TierSpec, ...]:
        """Tiers with no children, in declaration order (the compute
        nodes attach here)."""
        parents = {tier.parent for tier in self.tiers if tier.parent}
        return tuple(tier for tier in self.tiers if tier.name not in parents)

    def path_to_root(self, name: str) -> Tuple[TierSpec, ...]:
        """The tier chain from ``name`` (inclusive) up to the root."""
        by_name = {tier.name: tier for tier in self.tiers}
        if name not in by_name:
            raise ConfigurationError(f"unknown tier {name!r}")
        path: List[TierSpec] = [by_name[name]]
        while path[-1].parent is not None:
            path.append(by_name[path[-1].parent])
        return tuple(path)

    @property
    def depth(self) -> int:
        """Tiers along the longest root-to-leaf path (1 = flat)."""
        return max(len(self.path_to_root(leaf.name)) for leaf in self.leaves)

    @property
    def is_trivial(self) -> bool:
        """True when the topology is the paper's flat cluster in
        disguise: one root tier, no uplinks, no tier cache.  The
        simulator skips the tiered data path entirely for trivial specs,
        which is what makes the depth-1 bit-identity guarantee exact.
        """
        return self.depth == 1 and self.root.cache_bytes == 0

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TopologySpec":
        try:
            raw_tiers = payload["tiers"]
        except KeyError:
            raise ConfigurationError(
                "topology payload is missing the 'tiers' list"
            ) from None
        if not isinstance(raw_tiers, (list, tuple)):
            raise ConfigurationError(
                f"topology 'tiers' must be a list, got {type(raw_tiers).__name__}"
            )
        tiers: List[TierSpec] = []
        for entry in raw_tiers:
            if not isinstance(entry, Mapping):
                raise ConfigurationError(
                    f"each tier must be an object, got {type(entry).__name__}"
                )
            unknown = set(entry) - {
                "name", "parent", "cache_bytes",
                "link_bandwidth", "link_capacity_streams",
            }
            if unknown:
                raise ConfigurationError(
                    f"unknown tier keys {sorted(unknown)}"
                )
            tiers.append(TierSpec(**entry))  # type: ignore[arg-type]
        placement = payload.get("placement", "none")
        threshold = payload.get("promote_threshold", 3)
        if not isinstance(placement, str):
            raise ConfigurationError("placement must be a string")
        if not isinstance(threshold, int) or isinstance(threshold, bool):
            raise ConfigurationError("promote_threshold must be an integer")
        return cls(
            tiers=tuple(tiers),
            placement=placement,
            promote_threshold=threshold,
        )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Default uplink rates: rack->site is a shared LAN trunk, site->grid a
#: WAN line — both far below the 10 MB/s node disks, so tier locality
#: actually matters (at 600 KB/event: 0.006 s and 0.03 s per event).
_RACK_UPLINK = 100 * units.MB
_SITE_UPLINK = 20 * units.MB


def _flat(placement: str = "none") -> TopologySpec:
    """Depth 1: the paper's cluster — observationally a no-op."""
    return TopologySpec(tiers=(TierSpec(name="root"),), placement=placement)


def _depth2(placement: str = "none") -> TopologySpec:
    """One site hosting two racks with disk-pool caches."""
    return TopologySpec(
        tiers=(
            TierSpec(name="site", cache_bytes=40 * units.GB),
            TierSpec(
                name="rack0", parent="site", cache_bytes=10 * units.GB,
                link_bandwidth=_RACK_UPLINK, link_capacity_streams=4,
            ),
            TierSpec(
                name="rack1", parent="site", cache_bytes=10 * units.GB,
                link_bandwidth=_RACK_UPLINK, link_capacity_streams=4,
            ),
        ),
        placement=placement,
    )


def _depth3(placement: str = "none") -> TopologySpec:
    """A grid root over two WAN-attached sites of two racks each."""
    tiers: List[TierSpec] = [TierSpec(name="grid")]
    for site in range(2):
        tiers.append(
            TierSpec(
                name=f"site{site}", parent="grid",
                cache_bytes=40 * units.GB,
                link_bandwidth=_SITE_UPLINK, link_capacity_streams=2,
            )
        )
        for rack in range(2):
            tiers.append(
                TierSpec(
                    name=f"site{site}.rack{rack}", parent=f"site{site}",
                    cache_bytes=10 * units.GB,
                    link_bandwidth=_RACK_UPLINK, link_capacity_streams=4,
                )
            )
    return TopologySpec(tiers=tuple(tiers), placement=placement)


#: Named preset factories (each takes the placement policy).
TOPOLOGY_PRESETS: Dict[str, object] = {
    "flat": _flat,
    "depth2": _depth2,
    "depth3": _depth3,
}


def topology_preset(name: str, placement: str = "none") -> TopologySpec:
    """Build a named preset topology (did-you-mean on misses)."""
    factory = TOPOLOGY_PRESETS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown topology preset {name!r}; "
            f"available: {', '.join(sorted(TOPOLOGY_PRESETS))}"
        )
    assert callable(factory)
    spec = factory(placement)
    assert isinstance(spec, TopologySpec)
    return spec
