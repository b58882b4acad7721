"""The wire side of :class:`fasttog.gateway.ChatEndpoint`.

The endpoint imports this module on its first call, so a run that never
posts to an endpoint never loads the stdlib HTTP, TLS and proxy modules.

``http.client`` opens each connection, through a proxy's CONNECT tunnel and
TLS where the URL asks for them; over its socket this module speaks HTTP/1.1
itself. A request goes out in one write, with the head ``http.client`` would
send, and its reply is read by the short reader below, which builds no
``HTTPResponse`` and runs no header parser. Every failure to read a reply
raises an ``http.client.HTTPException`` or an ``OSError``, as the stdlib
client does, so a caller retries the same failures.
"""

from __future__ import annotations

import base64
import functools
import http.client
import re
import select
import ssl
import urllib.parse
import urllib.request
from dataclasses import dataclass, field

# what a failed attempt raises that is worth retrying
TRANSIENT = (OSError, http.client.HTTPException)
# an OSError that fails every attempt alike, so it is not retried
UNTRUSTED = ssl.SSLCertVerificationError

# http.client's limits on a reply's head
_MAX_LINE = 65536
_MAX_HEADERS = 100
# a status line as http.client reads it: its minor version and its code
_STATUS = re.compile(rb"HTTP/1\.(\S*)\s+([1-9]\d\d)(?:\s|$)")


@dataclass
class Link:
    """One thread's connection, closed when the thread or the endpoint goes."""

    conn: http.client.HTTPConnection
    target: str
    host: str
    # the header lines, encoded, that every request over the link sends after
    # its Content-Length
    tail: bytes
    # the request line and the header lines that every request sends before it
    head: bytes = field(init=False, repr=False)

    def __post_init__(self):
        self.head = b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (
            self.target.encode("ascii"),
            _host_bytes(self.host),
        )

    def __del__(self):
        self.conn.close()


def open_link(
    u: urllib.parse.SplitResult, port: int, timeout: float, headers: bytes = b""
) -> Link:
    """A connection to ``u``, with its request target and Host. Each request
    over it sends ``headers``, header lines already encoded, after its
    Content-Length.

    An http URL goes to its proxy in absolute form, with the proxy's
    credentials in a header line after ``headers``; an https one goes through
    a CONNECT tunnel. TLS is verified against the system's CAs.
    """
    https = u.scheme == "https"
    path = urllib.parse.urlunsplit(("", "", u.path or "/", u.query, ""))
    host = f"[{u.hostname}]" if ":" in u.hostname else u.hostname
    if port != (443 if https else 80):
        host = f"{host}:{port}"
    proxies = {} if urllib.request.proxy_bypass(u.hostname) else urllib.request.getproxies()
    proxy = proxies.get(u.scheme) or proxies.get("all")
    if https:
        ctx = ssl.create_default_context()
        make = functools.partial(http.client.HTTPSConnection, context=ctx)
    else:
        make = http.client.HTTPConnection
    if not proxy:
        return Link(make(u.hostname, port, timeout=timeout), path, host, headers)
    p = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
    auth = {}
    if p.username is not None:
        cred = f"{urllib.parse.unquote(p.username)}:{urllib.parse.unquote(p.password or '')}"
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(cred.encode()).decode()
    conn = make(p.hostname, p.port or 80, timeout=timeout)
    if https:
        conn.set_tunnel(u.hostname, port, headers=auth)
        return Link(conn, path, host, headers)
    # the absolute form names the target's netloc, which is then its Host
    lines = "".join(f"{name}: {value}\r\n" for name, value in auth.items())  # base64 is ASCII
    return Link(conn, f"{u.scheme}://{u.netloc}{path}", u.netloc, headers + lines.encode("ascii"))


def post(link: Link, body: bytes) -> tuple[int, bytes]:
    """POST ``body`` over ``link`` in one write; the status and raw reply."""
    conn = link.conn
    if conn.sock is not None and _readable(conn.sock):
        # an idle kept-alive socket with something to read was closed by
        # the peer; drop it, and the request below reconnects
        conn.close()
    request = b"%sContent-Length: %d\r\n%s\r\n%s" % (link.head, len(body), link.tail, body)
    try:
        if conn.sock is None:
            conn.connect()
        conn.sock.sendall(request)
        with conn.sock.makefile("rb") as fp:
            status, raw, keep = _read_reply(fp)
        if not keep:
            conn.close()
        return status, raw
    except BaseException:
        conn.close()
        raise


def _read_reply(fp) -> tuple[int, bytes, bool]:
    """The status and body of the reply read off ``fp``, and whether the
    connection may carry another request."""
    while True:
        line = fp.readline(_MAX_LINE + 1)
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("status line")
        match = _STATUS.match(line)
        if match is None:
            raise http.client.BadStatusLine(str(line, "iso-8859-1"))
        status = int(match[2])
        fields = _read_fields(fp, "header line")
        if status >= 200:  # skip interim replies
            break
    keep = match[1] != b"0" and b"close" not in fields.get(b"connection", b"").lower()
    if status in (204, 304):
        return status, b"", keep
    if fields.get(b"transfer-encoding", b"").strip().lower() == b"chunked":
        return status, _read_chunked(fp), keep
    try:
        length = int(fields[b"content-length"])
    except (KeyError, ValueError):
        length = -1
    if length < 0:  # the body runs to EOF, so the connection ends with it
        return status, fp.read(), False
    return status, _read_exact(fp, length), keep


def _read_fields(fp, what: str) -> dict[bytes, bytes]:
    """The header (or trailer) lines up to the blank line, by lowercase name,
    each value unstripped; the first line of each name wins."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS):  # the blank line counts, as in http.client
        line = fp.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong(what)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields.setdefault(name.lower(), value)
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_chunked(fp) -> bytes:
    """A chunked body; chunk extensions and trailers are read and dropped."""
    chunks = []
    while True:
        line = fp.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("chunk size")
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise http.client.IncompleteRead(b"".join(chunks))
        if size == 0:
            _read_fields(fp, "trailer line")
            return b"".join(chunks)
        chunks.append(_read_exact(fp, size))
        _read_exact(fp, 2)  # the CRLF that ends the chunk


def _read_exact(fp, n: int) -> bytes:
    data = fp.read(n)
    if len(data) < n:
        raise http.client.IncompleteRead(data, n - len(data))
    return data


def _host_bytes(host: str) -> bytes:
    """A Host value in ASCII, or in IDNA when it is not ASCII, as ``http.client`` sends it."""
    try:
        return host.encode("ascii")
    except UnicodeEncodeError:
        return host.encode("idna")


def _readable(sock) -> bool:
    """Whether ``sock`` has data or EOF waiting, checked without blocking."""
    if hasattr(select, "poll"):  # select() cannot take descriptors >= FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])
