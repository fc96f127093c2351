"""Per-path policy scoping: which rule family applies where.

Each family guards a different architectural property, so each is scoped
to the subtree where that property must hold:

* ``determinism`` — the replay substrate (analysis/traces/volumes) and
  the seeded workload generators that back the bit-identical
  fast-vs-reference guarantee;
* ``locks`` — the threaded wire stack (httpwire/proxy/server) whose
  contract is "no blocking I/O under an engine lock, one global order";
* ``resources`` — everything that creates sockets, files, or threads,
  including the benchmarks;
* ``api`` — cross-file invariants (metrics parity, codec parity) over the
  library source;
* ``telemetry`` — metric-registration hygiene everywhere instruments are
  registered (library source and benchmarks);
* ``aio`` — event-loop hygiene (no blocking calls in coroutines) for the
  asyncio wire stack;
* ``flow`` — whole-program interprocedural passes (transitive blocking
  reachability, lock-held-across-blocking, determinism taint) over the
  library source; these see every file so call chains resolve across
  package boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Policy", "DEFAULT_POLICY", "FAMILIES"]

FAMILIES = ("determinism", "locks", "resources", "api", "telemetry", "aio", "flow")


@dataclass(frozen=True, slots=True)
class Policy:
    """Maps rule families to repo-relative path prefixes (POSIX)."""

    scopes: tuple[tuple[str, tuple[str, ...]], ...]

    def applies(self, family: str, relpath: str) -> bool:
        for name, prefixes in self.scopes:
            if name != family:
                continue
            for prefix in prefixes:
                if not prefix or relpath == prefix or relpath.startswith(prefix + "/"):
                    return True
        return False

    def families(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.scopes)

    @classmethod
    def everywhere(cls, families: tuple[str, ...] = FAMILIES) -> "Policy":
        """A policy applying the given families to every linted file."""
        return cls(scopes=tuple((family, ("",)) for family in families))


DEFAULT_POLICY = Policy(
    scopes=(
        (
            "determinism",
            (
                "src/repro/analysis",
                "src/repro/traces",
                "src/repro/volumes",
                "src/repro/workloads",
            ),
        ),
        (
            "locks",
            (
                "src/repro/httpwire",
                "src/repro/proxy",
                "src/repro/server",
                "src/repro/lb",
            ),
        ),
        ("resources", ("src/repro", "benchmarks")),
        ("api", ("src/repro",)),
        ("telemetry", ("src/repro", "benchmarks")),
        ("aio", ("src/repro/httpwire/aio",)),
        ("flow", ("src/repro",)),
    )
)
