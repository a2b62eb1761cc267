# reprolint: module=repro.core.fixture_imp
"""IMP001 good: module-scope imports, and one justified lazy import."""

import zlib
from json import dumps
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # a module-level guard, not a function body
    from base64 import b64decode


class Relay:
    def on_message(self, payload):
        return dumps(payload)

    def checksum(self, payload):
        return zlib.crc32(payload)


def decode(data):
    # reprolint: disable=IMP001 -- fixture: a cold-path layering guard
    from base64 import b64decode
    return b64decode(data)
