"""Wire codecs for the ``Piggy-filter`` and ``P-volume`` header fields.

Section 2.3 embeds the protocol in HTTP/1.1: the proxy adds a
``Piggy-filter`` request header describing its filter, and a cooperating
server answers with a ``P-volume`` field in the trailer of a chunked
response.  The paper sketches the syntax (``maxpiggy=10; rpv="3,4"``);
this module pins down a complete, round-trippable grammar:

``Piggy-filter``::

    maxpiggy=10; rpv="3,4"; pthresh=0.25; minaccess=5; maxsize=65536; notype="image,video"

``P-volume``::

    id=7; e=/a/b.html|866362345|1530; e=/c.gif|866362000|4096

URLs are percent-encoded so ``|``, ``;`` and whitespace never collide with
the delimiters.
"""

from __future__ import annotations

from functools import lru_cache
from urllib.parse import quote, unquote

from ..core.filters import ProxyFilter
from ..core.piggyback import PiggybackElement, PiggybackMessage

__all__ = [
    "PIGGY_FILTER_HEADER",
    "P_VOLUME_HEADER",
    "PIGGY_REPORT_HEADER",
    "format_piggy_filter",
    "parse_piggy_filter",
    "format_p_volume",
    "parse_p_volume",
    "format_piggy_report",
    "parse_piggy_report",
    "PiggyCodecError",
]

PIGGY_FILTER_HEADER = "Piggy-filter"
P_VOLUME_HEADER = "P-volume"
PIGGY_REPORT_HEADER = "Piggy-report"

_URL_SAFE = "/:._-~"


class PiggyCodecError(ValueError):
    """Raised when a piggyback header value cannot be parsed."""


def format_piggy_filter(piggy_filter: ProxyFilter) -> str | None:
    """Render a filter as a ``Piggy-filter`` value; None when disabled.

    A disabled filter produces no header at all — to the server this is
    indistinguishable from a proxy that does not speak the extension,
    which is exactly the intended behaviour.
    """
    if not piggy_filter.enabled:
        return None
    parts: list[str] = []
    if piggy_filter.max_elements is not None:
        parts.append(f"maxpiggy={piggy_filter.max_elements}")
    if piggy_filter.recently_piggybacked:
        ids = ",".join(str(v) for v in sorted(piggy_filter.recently_piggybacked))
        parts.append(f'rpv="{ids}"')
    if piggy_filter.probability_threshold > 0.0:
        parts.append(f"pthresh={piggy_filter.probability_threshold:g}")
    if piggy_filter.min_access_count > 0:
        parts.append(f"minaccess={piggy_filter.min_access_count}")
    if piggy_filter.max_resource_size is not None:
        parts.append(f"maxsize={piggy_filter.max_resource_size}")
    if piggy_filter.excluded_content_types:
        types = ",".join(sorted(piggy_filter.excluded_content_types))
        parts.append(f'notype="{types}"')
    return "; ".join(parts) if parts else "maxpiggy=2147483647"


def parse_piggy_filter(value: str | None) -> ProxyFilter:
    """Parse a ``Piggy-filter`` value; None (no header) means disabled."""
    if value is None:
        return ProxyFilter.disabled()
    max_elements: int | None = None
    rpv: frozenset[int] = frozenset()
    pthresh = 0.0
    minaccess = 0
    maxsize: int | None = None
    notype: frozenset[str] = frozenset()
    for raw_part in value.split(";"):
        part = raw_part.strip()
        if not part:
            continue
        key, sep, token = part.partition("=")
        if not sep:
            raise PiggyCodecError(f"malformed Piggy-filter attribute: {part!r}")
        key = key.strip().lower()
        token = token.strip().strip('"')
        try:
            if key == "maxpiggy":
                max_elements = int(token)
            elif key == "rpv":
                rpv = frozenset(int(v) for v in token.split(",") if v)
            elif key == "pthresh":
                pthresh = float(token)
            elif key == "minaccess":
                minaccess = int(token)
            elif key == "maxsize":
                maxsize = int(token)
            elif key == "notype":
                notype = frozenset(t for t in token.split(",") if t)
            else:
                continue  # forward compatibility: ignore unknown attributes
        except ValueError as exc:
            raise PiggyCodecError(f"bad value in Piggy-filter: {part!r}") from exc
    if max_elements is not None and max_elements >= 2147483647:
        max_elements = None
    return ProxyFilter(
        enabled=True,
        max_elements=max_elements,
        recently_piggybacked=rpv,
        probability_threshold=pthresh,
        min_access_count=minaccess,
        max_resource_size=maxsize,
        excluded_content_types=notype,
    )


def format_piggy_report(report: tuple[tuple[str, int], ...]) -> str | None:
    """Render a cache-hit report as a ``Piggy-report`` value; None if empty.

    Grammar mirrors ``P-volume``: ``r=<url>|<count>`` attributes, with the
    URL percent-encoded.
    """
    if not report:
        return None
    parts = [f"r={quote(url, safe=_URL_SAFE)}|{count}" for url, count in report]
    return "; ".join(parts)


def parse_piggy_report(value: str | None) -> tuple[tuple[str, int], ...]:
    """Parse a ``Piggy-report`` value; None (no header) means no report."""
    if value is None:
        return ()
    entries: list[tuple[str, int]] = []
    for raw_part in value.split(";"):
        part = raw_part.strip()
        if not part:
            continue
        key, sep, token = part.partition("=")
        if not sep or key.strip().lower() != "r":
            raise PiggyCodecError(f"malformed Piggy-report attribute: {part!r}")
        fields = token.strip().split("|")
        if len(fields) != 2:
            raise PiggyCodecError(f"malformed Piggy-report entry: {token!r}")
        url, count = fields
        try:
            entries.append((unquote(url), int(count)))
        except ValueError as exc:
            raise PiggyCodecError(f"bad Piggy-report count {count!r}") from exc
    return tuple(entries)


@lru_cache(maxsize=1 << 17)
def _element_value(url: str, last_modified: int, size: int) -> str:
    """The value of one ``e=`` attribute (cached; hot elements repeat)."""
    return f"{quote(url, safe=_URL_SAFE)}|{last_modified}|{size}"


def format_p_volume(message: PiggybackMessage) -> str:
    """Render a piggyback message as a ``P-volume`` trailer value."""
    parts = [f"id={message.volume_id}"]
    parts.extend(
        _element_value(element.url, int(element.last_modified), element.size)
        for element in message.elements
    )
    # The ``e=`` key stays spelled here, where the api-codec-parity lint
    # rule pairs it with parse_p_volume.
    return "; e=".join(parts)


def parse_p_volume(value: str) -> PiggybackMessage:
    """Parse a ``P-volume`` trailer value back into a message."""
    volume_id: int | None = None
    elements: list[PiggybackElement] = []
    for raw_part in value.split(";"):
        part = raw_part.strip()
        if not part:
            continue
        key, sep, token = part.partition("=")
        if not sep:
            raise PiggyCodecError(f"malformed P-volume attribute: {part!r}")
        key = key.strip().lower()
        token = token.strip()
        if key == "id":
            try:
                volume_id = int(token)
            except ValueError as exc:
                raise PiggyCodecError(f"bad volume id {token!r}") from exc
        elif key == "e":
            fields = token.split("|")
            if len(fields) != 3:
                raise PiggyCodecError(f"malformed P-volume element: {token!r}")
            url, mtime, size = fields
            try:
                elements.append(
                    PiggybackElement(
                        url=unquote(url),
                        last_modified=float(int(mtime)),
                        size=int(size),
                    )
                )
            except ValueError as exc:
                raise PiggyCodecError(f"bad P-volume element {token!r}") from exc
    if volume_id is None:
        raise PiggyCodecError("P-volume value missing id attribute")
    return PiggybackMessage(volume_id=volume_id, elements=tuple(elements))
