# reprolint: module=repro.core.fixture_imp
"""IMP001 bad: imports that run on every call of a handler."""


class Relay:
    def on_message(self, payload):
        from json import dumps
        return dumps(payload)

    def on_batch(self, payloads):
        def one(payload):
            import zlib
            return zlib.crc32(payload)

        return [one(p) for p in payloads]


def decode(data):
    from base64 import b64decode
    return b64decode(data)
