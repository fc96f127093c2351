"""Developer tooling that keeps the repo's invariants true by construction.

The reproduction rests on two guarantees that ordinary tests only probe
after the fact:

* **bit-identical replay** — the replay engine
  (:mod:`repro.analysis.fastreplay`) must produce the same metrics for
  every chunking of a trace, and the same as the frozen reference replay
  the tests keep, which requires every analysis path to be deterministic
  (no wall clock, no global RNG, no id()/set-order dependence);
* **deadlock- and leak-free wiring** — the threaded wire stack must never
  block on I/O while holding an engine lock, must acquire locks in one
  global order, and must close/join every socket, file, and thread.

:mod:`repro.devtools.lint` enforces both statically with an AST-walking
rule engine (``repro lint``); :mod:`repro.devtools.lockorder` enforces the
lock-ordering half dynamically by instrumenting the stack's locks during
stress tests (``REPRO_LOCKORDER=1``).  :mod:`repro.devtools.chaos` is the
SIGKILL switch the crash-recovery tests drive through every durable
writer (``REPRO_DURABILITY_KILL``).
"""

from __future__ import annotations

__all__ = ["chaos", "lint", "lockorder"]
