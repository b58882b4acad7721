"""The wire side of :class:`fasttog.gateway.ChatEndpoint`.

The endpoint imports this module on its first call, so a run that never
posts to an endpoint never loads the stdlib HTTP, TLS and proxy modules.
"""

from __future__ import annotations

import base64
import functools
import http.client
import select
import ssl
import urllib.parse
import urllib.request
from dataclasses import dataclass

# what a failed attempt raises that is worth retrying
TRANSIENT = (OSError, http.client.HTTPException)


@dataclass
class Link:
    """One thread's connection, closed when the thread or the endpoint goes."""

    conn: http.client.HTTPConnection
    target: str
    proxy_headers: dict[str, str]

    def __del__(self):
        self.conn.close()


def open_link(u: urllib.parse.SplitResult, port: int, timeout: float) -> Link:
    """A connection to ``u``, with its request target and proxy headers.

    An http URL goes to its proxy in absolute form, an https one through
    a CONNECT tunnel; TLS is verified against the system's CAs.
    """
    https = u.scheme == "https"
    path = urllib.parse.urlunsplit(("", "", u.path or "/", u.query, ""))
    proxies = {} if urllib.request.proxy_bypass(u.hostname) else urllib.request.getproxies()
    proxy = proxies.get(u.scheme) or proxies.get("all")
    if https:
        ctx = ssl.create_default_context()
        make = functools.partial(http.client.HTTPSConnection, context=ctx)
    else:
        make = http.client.HTTPConnection
    if not proxy:
        return Link(make(u.hostname, port, timeout=timeout), path, {})
    p = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
    auth = {}
    if p.username is not None:
        cred = f"{urllib.parse.unquote(p.username)}:{urllib.parse.unquote(p.password or '')}"
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(cred.encode()).decode()
    conn = make(p.hostname, p.port or 80, timeout=timeout)
    if https:
        conn.set_tunnel(u.hostname, port, headers=auth)
        return Link(conn, path, {})
    return Link(conn, f"{u.scheme}://{u.netloc}{path}", auth)


def post(link: Link, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
    """POST ``body`` over ``link``; the status and raw reply."""
    conn = link.conn
    if conn.sock is not None and _readable(conn.sock):
        # an idle kept-alive socket with something to read was closed by
        # the peer; drop it, and the request below reconnects
        conn.close()
    try:
        conn.request("POST", link.target, body, headers | link.proxy_headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    except BaseException:
        conn.close()
        raise


def _readable(sock) -> bool:
    """Whether ``sock`` has data or EOF waiting, checked without blocking."""
    if hasattr(select, "poll"):  # select() cannot take descriptors >= FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])
