"""Server-side resource metadata store.

The server knows, for each resource it hosts, the size, content type, and
Last-Modified time — the attributes piggyback elements carry.  The store
can be populated explicitly, loaded from a synthetic site, and optionally
wired to a :class:`~repro.workloads.modifications.ModificationProcess` so
Last-Modified times evolve over simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import urls
from ..workloads.modifications import ModificationProcess
from ..workloads.sitegen import SyntheticSite

__all__ = ["ResourceRecord", "ResourceStore"]


@dataclass(slots=True)
class ResourceRecord:
    """Metadata for one hosted resource."""

    url: str
    size: int
    content_type: str
    last_modified: float = 0.0


class ResourceStore:
    """All resources a server can answer for."""

    def __init__(self, changes: ModificationProcess | None = None):
        self._records: dict[str, ResourceRecord] = {}
        self._changes = changes
        self._epoch = 0

    @property
    def version(self) -> int | None:
        """Metadata epoch for cache keys; None when mtimes are dynamic.

        Bumped by :meth:`add` and :meth:`set_modified`.  With a
        :class:`ModificationProcess` attached, Last-Modified values vary
        with the *request* time rather than store mutations, so no epoch
        can version them — callers must treat every read as fresh.
        """
        if self._changes is not None:
            return None
        return self._epoch

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, url: str) -> bool:
        return url in self._records

    def add(
        self,
        url: str,
        size: int = 0,
        content_type: str | None = None,
        last_modified: float = 0.0,
    ) -> ResourceRecord:
        """Register (or replace) a resource."""
        record = ResourceRecord(
            url=url,
            size=size,
            content_type=content_type or urls.content_type_of(url),
            last_modified=last_modified,
        )
        self._records[url] = record
        self._epoch += 1
        return record

    def copy(self) -> "ResourceStore":
        twin = ResourceStore(self._changes)
        twin._records = {url: replace(record) for url, record in self._records.items()}
        twin._epoch = self._epoch
        return twin

    def adopt(self, other: "ResourceStore") -> None:
        """Serve *other*'s records: a concurrent reader sees the old table
        or the new one, never a half-filled one."""
        self._records, self._epoch = other._records, other._epoch

    def get(self, url: str) -> ResourceRecord | None:
        return self._records.get(url)

    def urls(self) -> set[str]:
        return set(self._records)

    def last_modified(self, url: str, at_time: float) -> float:
        """Last-Modified of *url* at simulated time *at_time*.

        Uses the attached modification process when present, otherwise the
        static value recorded at :meth:`add` time.
        """
        record = self._records.get(url)
        if record is None:
            raise KeyError(f"unknown resource {url!r}")
        if self._changes is not None:
            return self._changes.last_modified(url, at_time)
        return record.last_modified

    def set_modified(self, url: str, when: float) -> None:
        """Mark *url* as modified at *when* (static mode only)."""
        record = self._records.get(url)
        if record is None:
            raise KeyError(f"unknown resource {url!r}")
        record.last_modified = when
        self._epoch += 1

    @classmethod
    def from_site(
        cls, site: SyntheticSite, changes: ModificationProcess | None = None
    ) -> "ResourceStore":
        """Build a store covering every resource of a synthetic site."""
        store = cls(changes=changes)
        for resource in site.resources.values():
            store.add(resource.url, size=resource.size, content_type=resource.content_type)
        return store
