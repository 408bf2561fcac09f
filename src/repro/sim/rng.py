"""Seeded, named random-number streams.

Every stochastic component of the simulation (arrival processes, link
jitter, churn, gossip peer selection, ...) draws from its *own* named
substream derived from a single root seed.  This gives two properties the
experiments rely on:

* **Reproducibility** — a run is a pure function of (config, seed).
* **Variance reduction** — changing one component (say, the allocation
  policy) does not perturb the random draws of unrelated components, so
  paired comparisons across policies see identical workloads.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class RandomStreams:
    """A factory of independent named :class:`numpy.random.Generator` s.

    Parameters
    ----------
    seed:
        Root seed. Two :class:`RandomStreams` built from the same seed
        return identical generators for identical names.

    Examples
    --------
    >>> streams = RandomStreams(7)
    >>> a = streams.get("arrivals")
    >>> b = streams.get("churn")
    >>> a is streams.get("arrivals")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed deterministically from (root, name).
            ss = np.random.SeedSequence(
                self.seed, spawn_key=tuple(name.encode("utf-8"))
            )
            gen = np.random.Generator(np.random.Philox(ss))
            self._streams[name] = gen
        return gen

    def spawn(self, index: int) -> "RandomStreams":
        """Derive an independent child stream set (for replications)."""
        child = np.random.SeedSequence(self.seed, spawn_key=(0x5EED, index))
        return RandomStreams(int(child.generate_state(1)[0]))

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"


#: The ambient stream set of the scenario currently being built/run.
#: ``build_scenario`` installs its :class:`RandomStreams` here so that
#: components constructed *without* an explicit ``rng`` still derive
#: from the scenario seed instead of OS entropy — without it, any
#: stressor or helper wired up outside the builder would silently
#: break end-to-end reproducibility.
_ambient: Optional[RandomStreams] = None


def set_ambient_streams(streams: Optional[RandomStreams]) -> None:
    """Install (or clear, with ``None``) the ambient stream set.

    Called by ``build_scenario``; the ambient set stays installed for
    the lifetime of the run so components created mid-run (rebuilt
    gossip agents, scripted fault processes, ...) keep drawing from the
    scenario seed.  Building a new scenario replaces it.
    """
    global _ambient
    _ambient = streams


def fallback_rng(name: str) -> np.random.Generator:
    """A generator for a component constructed without an explicit rng.

    When an ambient stream set is installed the generator is derived
    from the scenario seed under ``fallback:<name>`` (distinct from the
    explicitly plumbed streams, so legacy draw sequences are never
    perturbed); otherwise this falls back to OS entropy, preserving the
    historic "unseeded fallback" behavior for bare component use.
    """
    if _ambient is not None:
        return _ambient.get(f"fallback:{name}")
    return np.random.default_rng()
