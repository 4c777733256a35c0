"""The content-addressed result store (``.repro-cache/``).

Results are pickled under ``<root>/v<schema>/<fp[:2]>/<fp>.pkl`` where
``fp`` is the spec fingerprint — re-rendering a figure or re-running a
sweep at the same scale finds every already-computed point by content,
not by sweep identity.  The schema version is part of the layout so a
results-schema bump naturally starts a fresh namespace instead of
serving incompatible pickles.

Writes are atomic (temp file + :func:`os.replace`) so a killed sweep can
never leave a truncated pickle behind; reads treat any unreadable or
corrupt entry as a miss and fall through to recomputation.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Any, Optional, Union

#: Default store location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment override for the store location (CLI ``--cache-dir`` wins).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def resolve_cache_dir(explicit: Optional[Union[str, Path]] = None) -> Path:
    """Cache root: explicit argument > ``$REPRO_CACHE_DIR`` > default."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(env) if env else Path(DEFAULT_CACHE_DIR)


class ResultCache:
    """Content-addressed pickle store for simulation results."""

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        schema_version: int = 0,
    ) -> None:
        self.root = resolve_cache_dir(root)
        self.schema_version = schema_version

    @property
    def store_dir(self) -> Path:
        return self.root / f"v{self.schema_version}"

    def path_for(self, fingerprint: str) -> Path:
        """Where ``fingerprint``'s pickle lives (two-level fan-out)."""
        return self.store_dir / fingerprint[:2] / f"{fingerprint}.pkl"

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).is_file()

    def get(self, fingerprint: str) -> Optional[Any]:
        """The stored result, or ``None`` on a miss or a corrupt entry."""
        path = self.path_for(fingerprint)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Missing file, torn write from an older tool, or a pickle
            # referencing since-renamed classes: all are plain misses.
            return None

    def put(self, fingerprint: str, result: Any) -> Path:
        """Atomically store ``result`` under ``fingerprint``."""
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(root={str(self.root)!r}, v{self.schema_version})"
