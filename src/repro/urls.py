"""URL and pathname utilities shared across the library.

The paper groups resources by *directory prefix* (Section 3.2): a level-``k``
prefix of ``www.foo.com/a/b/c.html`` keeps the server name plus the first
``k`` directory components of the path.  Level 0 is the server itself, so a
0-level volume spans the whole site.

All functions operate on the canonical form produced by
:func:`canonicalize`: ``host/path`` with no scheme, no default port, no
trailing slash (except the bare root), and no query string.
"""

from __future__ import annotations

__all__ = [
    "canonicalize",
    "request_url",
    "split_host_path",
    "directory_prefix",
    "directory_levels",
    "path_components",
    "is_query_url",
    "looks_uncachable",
    "content_type_of",
]

_SCHEME_PREFIXES = ("http://", "https://")

# Extension -> coarse content type, mirroring the typed resources the paper
# mentions (text, inline images, applets, ...).
_EXTENSION_TYPES = {
    "html": "text",
    "htm": "text",
    "txt": "text",
    "ps": "text",
    "pdf": "text",
    "xml": "text",
    "css": "text",
    "gif": "image",
    "jpg": "image",
    "jpeg": "image",
    "png": "image",
    "bmp": "image",
    "xbm": "image",
    "ico": "image",
    "class": "applet",
    "jar": "applet",
    "js": "applet",
    "mpg": "video",
    "mpeg": "video",
    "avi": "video",
    "mov": "video",
    "au": "audio",
    "wav": "audio",
    "mp3": "audio",
    "zip": "binary",
    "gz": "binary",
    "tar": "binary",
    "exe": "binary",
    "z": "binary",
}


def canonicalize(url: str) -> str:
    """Return the canonical ``host/path`` form of *url*.

    Strips the scheme, lowercases the host, removes a default port, drops
    fragments, and folds ``http://www.foo.com/`` and ``http://www.foo.com``
    into the same resource as Appendix A prescribes.  Query strings are kept
    (use :func:`is_query_url` to filter them out during cleaning).
    """
    url = url.strip()
    for prefix in _SCHEME_PREFIXES:
        if url.lower().startswith(prefix):
            url = url[len(prefix):]
            break
    fragment = url.find("#")
    if fragment >= 0:
        url = url[:fragment]
    host, _, path = url.partition("/")
    host = host.lower()
    if host.endswith(":80"):
        host = host[:-3]
    elif host.endswith(":443"):
        host = host[:-4]
    path = path.rstrip("/")
    if not path:
        return host
    return f"{host}/{path}"


def request_url(target: str, host: str | None, default_host: str) -> str:
    """The canonical ``host/path`` an origin files a request under.

    *target* is the request-target, origin-form (``/a/b.html``) or
    absolute-URI (``http://h/a/b.html``, whose host is ignored); *host* is
    the ``Host`` header, and *default_host* stands in when it is missing or
    empty.  The host is lower-cased and one trailing slash dropped; a bare
    ``/`` names the host itself.  The origin files volumes under this URL
    and the load balancer partitions on it, so both call this one function.
    """
    if target.lower().startswith("http://"):
        _, _, path = target[len("http://"):].partition("/")
        target = "/" + path
    host = (host or default_host).lower()
    return f"{host}{target}".rstrip("/") if target != "/" else host


def split_host_path(url: str) -> tuple[str, str]:
    """Split a canonical URL into ``(host, path)``; path has no leading /."""
    host, _, path = url.partition("/")
    return host, path


def path_components(url: str) -> list[str]:
    """Return the path components of a canonical URL (excluding the host)."""
    _, path = split_host_path(url)
    if not path:
        return []
    return path.split("/")


def directory_prefix(url: str, level: int) -> str:
    """Return the level-*level* directory prefix of a canonical URL.

    Level 0 is the host alone; level ``k`` keeps the host plus the first
    ``k`` directory components of the path.  The final component (the
    resource name itself) never counts toward the prefix, so
    ``directory_prefix("foo.com/a/b.html", 1)`` is ``"foo.com/a"`` and
    ``directory_prefix("foo.com/b.html", 1)`` is ``"foo.com"``.
    """
    if level < 0:
        raise ValueError(f"directory level must be >= 0, got {level}")
    host, path = split_host_path(url)
    if level == 0 or not path:
        return host
    directories = path.split("/")[:-1]
    kept = directories[:level]
    if not kept:
        return host
    return host + "/" + "/".join(kept)


def directory_levels(url: str) -> int:
    """Return the number of directory levels available in a canonical URL."""
    return max(len(path_components(url)) - 1, 0)


def is_query_url(url: str) -> bool:
    """True if the URL carries a query string (``?`` in the path)."""
    return "?" in url


def looks_uncachable(url: str) -> bool:
    """Apply the paper's Appendix-A uncachability heuristic.

    Resources whose URL contains the string ``cgi`` or a query ``?`` are
    treated as uncachable responses and removed during log cleaning.
    """
    return "cgi" in url.lower() or is_query_url(url)


def content_type_of(url: str) -> str:
    """Infer a coarse content type (text/image/applet/...) from the URL.

    Unknown or missing extensions map to ``"text"``: directory indexes and
    extension-less resources are overwhelmingly HTML in Web server logs.
    """
    _, path = split_host_path(url)
    name = path.rsplit("/", 1)[-1]
    if "." not in name:
        return "text"
    extension = name.rsplit(".", 1)[-1].lower()
    return _EXTENSION_TYPES.get(extension, "text")
