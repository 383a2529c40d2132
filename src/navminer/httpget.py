"""The HTTP client of HTTP mode: one plain HTTP/1.0 GET per request.

Each request is one GET (RFC 1945) on a connection of its own, which
``Client.connect`` opens, sending ``Host`` and ``Accept-Encoding:
identity`` alone.  The answer is read within ``http.client``'s limits: a
status, header or chunk-size line of at most 64 KiB and at most 100
header lines (the blank line that ends them counted); the body by
chunks, by its ``Content-Length`` (a short read is an error) or up to
the end of the connection.  Headers are read as the email parser that
``http.client`` hands them to reads them.  ``Client.get`` follows a
page's redirects by the rules of urllib's redirect handler, on the site
alone, and takes proxies from the environment as urllib takes them: an
``http`` URL is asked of the proxy whole, an ``https`` one goes through
a CONNECT tunnel.

``corpus`` imports this module when an HTTP crawl fetches its first
page, so a filesystem run neither compiles nor imports it.
"""

from __future__ import annotations

import itertools
import re
import socket
import string
from urllib.parse import quote, unquote, urljoin, urlparse, urlsplit, urlunparse
from urllib.request import getproxies, proxy_bypass

from .corpus import _DEFAULT_PORTS, PageReadError, _authority

# a fetch follows at most this many redirects, and requests one URL at
# most ``_MAX_REPEATS`` times more after the first, as urllib's redirect
# handler does
DEFAULT_REDIRECT_LIMIT = 30
_MAX_REPEATS = 4
_REDIRECTS = (301, 302, 303, 307, 308)

# the limits of ``http.client``: the longest status, header or chunk-size
# line, the most header lines (the blank one that ends them counted), and
# the most bytes a body is read in at once, so that a bogus length cannot
# make the read allocate it
_MAX_LINE = 65536
_MAX_HEADERS = 100
_READ_PIECE = 1 << 20

# seconds a connection may wait on its peer at any one step
_TIMEOUT = 30


def _host_port(host: str, scheme: str) -> tuple[str, int]:
    """The name and port to connect to for ``host`` (``name[:port]``, an
    IPv6 address in brackets) of a ``scheme`` URL, as ``http.client``
    reads it."""
    name, colon, port = host.rpartition(":")
    if not colon or "]" in port:
        name, port = host, ""
    return name.removeprefix("[").removesuffix("]"), int(port or _DEFAULT_PORTS[scheme][1:])


# a header line as the email parser reads one: a name of printable ASCII
# and a colon, or a folded line, which continues the last value
_HEADER_LINE = re.compile(r"[\x21-\x39\x3b-\x7e]*:|[ \t]")


def _read_line(stream, what: str) -> bytes:
    line = stream.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise PageReadError(f"got more than {_MAX_LINE} bytes in a {what}")
    return line


def _read_head(stream) -> tuple[int, str, dict[str, str]]:
    """The status, reason and headers of a response, each header under its
    lowercased name and first value, as ``http.client`` and the email
    parser it hands the headers to read them; ``100`` answers skipped."""
    while True:
        line = _read_line(stream, "status line")
        if not line:
            raise PageReadError("the server closed the connection without a response")
        parts = line.decode("iso-8859-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise PageReadError(f"bad status line {line!r}")
        version, status = parts[0], int(parts[1])
        if not 100 <= status <= 999:
            raise PageReadError(f"bad status line {line!r}")
        fields: list[list[str]] = []  # [name, value] in order
        ended = False  # a line that is no header ends them; the rest is read unparsed
        for count in itertools.count(1):
            line = _read_line(stream, "header line")
            if count > _MAX_HEADERS:  # the blank line that ends them counted
                raise PageReadError(f"got more than {_MAX_HEADERS} header lines")
            if line in (b"\r\n", b"\n", b""):
                break
            text = line.decode("iso-8859-1")
            field = None if ended else _HEADER_LINE.match(text)
            if field is None:
                ended = True
            elif text[0] in " \t":  # a folded line continues the last value
                if fields:
                    fields[-1][1] += text
            else:
                fields.append([text[:field.end() - 1].lower(),
                               text[field.end():].lstrip(" \t")])
        if status != 100:
            break
    if not (version in ("HTTP/1.0", "HTTP/0.9") or version.startswith("HTTP/1.")):
        raise PageReadError(f"unknown protocol {version}")
    headers = {name: value.rstrip("\r\n") for name, value in reversed(fields)}
    return status, parts[2].strip() if len(parts) > 2 else "", headers


def _read_exactly(stream, size: int) -> bytes:
    """The next ``size`` bytes of ``stream``; fewer are an error."""
    pieces = []
    while size > 0 and (piece := stream.read(min(size, _READ_PIECE))):
        pieces.append(piece)
        size -= len(piece)
    if size > 0:
        raise PageReadError(f"incomplete read: {size} more bytes expected")
    return b"".join(pieces)


def _read_body(stream, status: int, headers: dict[str, str]) -> bytes:
    """The body of a response: in chunks, by its ``Content-Length`` or up
    to the end of the connection, as ``http.client`` reads it."""
    if headers.get("transfer-encoding", "").lower() == "chunked":
        chunks = []
        while size := int(_read_line(stream, "chunk size").partition(b";")[0], 16):
            if size < 0:
                raise PageReadError(f"negative chunk size {size}")
            chunks.append(_read_exactly(stream, size))
            _read_exactly(stream, 2)  # the line end after the chunk
        while _read_line(stream, "trailer line") not in (b"\r\n", b"\n", b""):
            pass
        return b"".join(chunks)
    if status == 204:  # no content, whatever the headers say
        return b""
    try:
        length = int(headers.get("content-length") or "-1")
    except ValueError:
        length = -1
    return stream.read() if length < 0 else _read_exactly(stream, length)


def _http_error(status: int, reason: str) -> PageReadError:
    return PageReadError(f"HTTP Error {status}: {reason}")


def _parse_proxy(proxy: str, scheme: str) -> tuple[str, str, str]:
    """The scheme (``scheme`` when it names none), the Basic credentials
    (or "") and the ``host[:port]`` of a proxy setting, a URL or a bare
    ``host:port``, as urllib reads it."""
    parts = urlsplit(proxy if "://" in proxy else "//" + proxy)
    userinfo, _, host = parts.netloc.rpartition("@")
    user, _, password = userinfo.partition(":")
    credentials = ""
    if user and password:
        import base64

        credentials = base64.b64encode(
            f"{unquote(user)}:{unquote(password)}".encode()).decode("ascii")
    return parts.scheme or scheme, credentials, unquote(host)


class Client:
    """GETs of the pages of the site at ``netloc`` (as ``corpus._authority``
    writes it).  Proxies come from the ``*_proxy`` environment variables,
    read by urllib at the first request."""

    def __init__(self, netloc: str):
        self.netloc = netloc
        self._proxies: dict[str, str] | None = None  # scheme -> proxy
        # the TLS context of every https connection, made at the first:
        # each context loads the CA store anew (41.6 ms on a 2-core
        # x86-64 Linux machine, CPython 3.11.7)
        self._context = None

    def connect(self, scheme: str, host: str, port: int):
        """A socket connected to ``host`` on ``port``, wrapped in TLS for
        ``https``: every connection of a fetch is opened here."""
        sock = socket.create_connection((host, port), _TIMEOUT)
        return self._tls(sock, host) if scheme == "https" else sock

    def _tls(self, sock, host: str):
        """``sock`` wrapped in TLS to ``host``, its certificate checked
        against the system store or ``SSL_CERT_FILE``; closed on failure."""
        try:
            if self._context is None:
                import ssl  # an https page alone loads it

                self._context = ssl.create_default_context()
            return self._context.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise

    def _tunnel(self, proxy: tuple[str, int], host: str, port: int, extra: str):
        """A TLS connection to ``host`` on ``port`` through a CONNECT tunnel
        of the proxy at ``proxy``, sending it the ``extra`` header lines."""
        authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        sock = self.connect("http", *proxy)
        try:
            sock.sendall(f"CONNECT {authority} HTTP/1.0\r\nHost: {authority}\r\n{extra}\r\n"
                         .encode("ascii"))
            with sock.makefile("rb") as stream:
                status, reason, _ = _read_head(stream)
            if status != 200:
                raise PageReadError(f"tunnel connection failed: {status} {reason}")
        except BaseException:
            sock.close()
            raise
        return self._tls(sock, host)

    def get(self, url: str) -> tuple[str, bytes]:
        """The URL ``url``'s redirects end at and the body found there; any
        final status outside 2xx is an error."""
        visited: dict[str, int] = {}  # redirect target -> times followed
        while True:
            with self._send(url) as sock, sock.makefile("rb") as stream:
                status, reason, headers = _read_head(stream)
                if 200 <= status < 300:
                    return url, _read_body(stream, status, headers)
                target = self._redirect(url, status, reason, headers, visited)
                _read_body(stream, status, headers)  # as urllib reads it before following
            url = target

    def _redirect(self, url: str, status: int, reason: str, headers: dict[str, str],
                  visited: dict[str, int]) -> str:
        """Where a response to ``url`` that is not 2xx leads, by the rules
        of urllib's redirect handler and on the site; an error when the
        fetch ends there."""
        location = headers.get("location", headers.get("uri"))
        if status not in _REDIRECTS or location is None:
            raise _http_error(status, reason)
        parts = urlparse(location)
        if parts.scheme not in ("http", "https", "ftp", ""):
            raise _http_error(status, f"redirection to {location} is not allowed")
        if not parts.path and parts.netloc:
            parts = parts._replace(path="/")
        # a header is read as Latin-1: its own bytes, percent-encoded
        target = urljoin(url, quote(urlunparse(parts), encoding="iso-8859-1",
                                    safe=string.punctuation))
        scheme, netloc = urlsplit(target)[:2]
        if scheme not in ("http", "https") or _authority(scheme, netloc) != self.netloc:
            raise _http_error(status, f"redirected off the site to {target}")
        if visited.get(target, 0) >= _MAX_REPEATS or len(visited) >= DEFAULT_REDIRECT_LIMIT:
            raise _http_error(status, f"{reason}; the redirects would lead to an infinite loop")
        visited[target] = visited.get(target, 0) + 1
        return target

    def _send(self, url: str):
        """A connection on which a GET of ``url`` has been sent, through
        the environment's proxy for its scheme unless ``no_proxy`` names
        the host."""
        if self._proxies is None:
            self._proxies = getproxies()
        scheme, netloc, path, query = urlsplit(url)[:4]
        host = unquote(netloc)
        ascii_host = host if host.isascii() else host.encode("idna").decode("ascii")
        target = (path or "/") + (f"?{query}" if query else "")
        extra = ""  # header lines for the proxy
        proxy = self._proxies.get(scheme)
        if not proxy or proxy_bypass(host):
            sock = self.connect(scheme, *_host_port(host, scheme))
        else:
            proxy_scheme, credentials, proxy_host = _parse_proxy(proxy, scheme)
            if credentials:
                extra = f"Proxy-Authorization: Basic {credentials}\r\n"
            if scheme == "https":  # a tunnel, whatever the proxy's scheme
                sock = self._tunnel(_host_port(proxy_host, scheme),
                                    *_host_port(host, scheme), extra)
                extra = ""
            elif proxy_scheme in ("http", "https"):  # the proxy is asked for the whole URL
                sock = self.connect(proxy_scheme, *_host_port(proxy_host, proxy_scheme))
                target = f"{scheme}://{ascii_host}{target}"
            else:
                raise PageReadError(f"unknown proxy type {proxy_scheme}")
        try:
            sock.sendall(f"GET {target} HTTP/1.0\r\nHost: {ascii_host}\r\n"
                         f"Accept-Encoding: identity\r\n{extra}\r\n".encode("ascii"))
        except BaseException:
            sock.close()
            raise
        return sock
