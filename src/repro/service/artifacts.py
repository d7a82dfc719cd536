"""Content-addressed artifact store, rooted inside the engine cache.

Completed jobs render human-facing artifacts (the Table 5 text, the
Figure 6/7 wafer maps, machine-readable JSON mirrors).  Each one is
stored once under the SHA-256 of its bytes, next to the engine's
result cache, so:

- identical resubmissions (which the engine answers from cache) map to
  the *same* artifact digests without re-rendering costs mattering;
- ``GET /v1/artifacts/{digest}`` serves straight from disk with no job
  bookkeeping in the path;
- clearing the cache clears the artifacts with it (both are derived
  data).

Layout: ``<cache root>/artifacts/<digest[:2]>/<digest>`` plus a
``.json`` sidecar with name/content-type metadata.
"""

import hashlib
import json
from pathlib import Path

from repro.obs.state import atomic_write

#: Subdirectory of the engine cache root holding artifacts.  The engine
#: GC only touches ``*.pkl`` entries, so artifacts survive a cache GC
#: (they are typically tiny next to pickled wafers).
ARTIFACTS_DIRNAME = "artifacts"


class ArtifactStore:
    """Digest-addressed blob store with JSON sidecar metadata."""

    def __init__(self, root):
        self.root = Path(root)

    def _paths(self, digest):
        directory = self.root / digest[:2]
        return directory / digest, directory / f"{digest}.json"

    def put(self, name, data, content_type="text/plain; charset=utf-8"):
        """Store ``data``; returns the artifact descriptor dict."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        data_path, meta_path = self._paths(digest)
        descriptor = {
            "name": name,
            "digest": digest,
            "content_type": content_type,
            "bytes": len(data),
            "url": f"/v1/artifacts/{digest}",
        }
        if data_path.exists():
            return descriptor
        data_path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(data_path, "wb") as handle:
            handle.write(data)
        with atomic_write(meta_path) as handle:
            json.dump(descriptor, handle, indent=2)
        return descriptor

    def get(self, digest):
        """(descriptor, bytes) for ``digest``; KeyError when absent.

        The digest is validated as lowercase hex before touching the
        filesystem, so a request path can never traverse outside the
        store.
        """
        if len(digest) != 64 or any(
            c not in "0123456789abcdef" for c in digest
        ):
            raise KeyError(f"not an artifact digest: {digest!r}")
        data_path, meta_path = self._paths(digest)
        try:
            with open(data_path, "rb") as handle:
                data = handle.read()
        except OSError:
            raise KeyError(f"unknown artifact {digest!r}") from None
        try:
            with open(meta_path) as handle:
                descriptor = json.load(handle)
        except (OSError, json.JSONDecodeError):
            descriptor = {
                "name": digest, "digest": digest,
                "content_type": "application/octet-stream",
                "bytes": len(data),
                "url": f"/v1/artifacts/{digest}",
            }
        return descriptor, data
