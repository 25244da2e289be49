"""HTTP helper shared by the live-server tests."""

import http.client
import json


def request(server, method, path, body=None, headers=None):
    """One request on a fresh connection: ``(status, body, headers)``."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        all_headers = dict(headers or {})
        if payload:
            all_headers.setdefault("Content-Type", "application/json")
        conn.request(method, path, body=payload, headers=all_headers)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, data, dict(resp.getheaders())
    finally:
        conn.close()
