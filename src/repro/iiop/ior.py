"""Interoperable Object References (IORs) with multi-profile support.

An IOR carries a repository type id plus a list of tagged profiles;
each ``TAG_INTERNET_IOP`` profile names one {host, port, object_key}
endpoint.  Two paper mechanisms live here:

* **Address interposition** (section 3.1): Eternal publishes IORs whose
  profile addresses are the *gateway's* {host, port}, so unreplicated
  clients connect to the gateway while believing they talk to the
  server.  :func:`replace_addresses` performs the substitution.
* **Multi-profile stitching** (section 3.5): the Eternal Interceptor
  "stitches" one profile per redundant gateway into a single IOR that an
  enhanced client layer can traverse on failure.  :func:`stitch_profiles`
  builds such IORs; plain ORBs use only the first profile.

``IOR:`` stringification uses the standard hex-of-CDR-encapsulation
form, so references can be passed around as opaque strings exactly as
CORBA applications do.

A domain publishes only a handful of distinct profiles (one per gateway
per object group), while references are handed out per client and
requests are sent per invocation.  Profiles are immutable values, so
:meth:`IiopProfile.encode` and :meth:`IiopProfile.decode` memoise them
in bounded tables: each distinct profile is marshalled once.  A failed
decode raises before anything is stored, so malformed bytes fail on
every call.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, TypeVar

from ..errors import MarshalError
from .cdr import CdrInputStream, CdrOutputStream, decapsulate, encapsulate

TAG_INTERNET_IOP = 0
TAG_MULTIPLE_COMPONENTS = 1

#: Entry cap of each profile memo table; the oldest entry is evicted
#: first once a table is full.
PROFILE_MEMO_CAP = 1024

_K = TypeVar("_K")
_V = TypeVar("_V")


@dataclass(frozen=True)
class IiopProfile:
    """One IIOP endpoint: protocol version, host, port, object key."""

    host: str
    port: int
    object_key: bytes
    version: Tuple[int, int] = (1, 0)

    def encode(self) -> bytes:
        """Encode as the CDR encapsulation body of a TAG_INTERNET_IOP."""
        data = _encoded.get(self)
        if data is not None:
            return data

        def build(out: CdrOutputStream) -> None:
            out.write_octet(self.version[0])
            out.write_octet(self.version[1])
            out.write_string(self.host)
            out.write_ushort(self.port)
            out.write_octets(self.object_key)

        data = encapsulate(build)
        _remember(_encoded, self, data)
        return data

    @staticmethod
    def decode(data: bytes) -> "IiopProfile":
        profile = _decoded.get(data)
        if profile is not None:
            return profile
        stream = decapsulate(data)
        major = stream.read_octet()
        minor = stream.read_octet()
        host = stream.read_string()
        port = stream.read_ushort()
        object_key = stream.read_octets()
        profile = IiopProfile(host=host, port=port, object_key=object_key,
                              version=(major, minor))
        _remember(_decoded, data, profile)
        return profile

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)


_encoded: Dict[IiopProfile, bytes] = {}
_decoded: Dict[bytes, IiopProfile] = {}


def _remember(table: Dict[_K, _V], key: _K, value: _V) -> None:
    """Store one memo entry, evicting the oldest if at the cap."""
    if len(table) >= PROFILE_MEMO_CAP:
        del table[next(iter(table))]
    table[key] = value


@dataclass(frozen=True)
class TaggedProfile:
    tag: int
    data: bytes


@dataclass
class Ior:
    """A CORBA object reference: type id + ordered tagged profiles."""

    type_id: str
    profiles: List[TaggedProfile] = field(default_factory=list)

    # -- construction ----------------------------------------------------

    @staticmethod
    def for_endpoints(type_id: str, endpoints: Sequence[Tuple[str, int]],
                      object_key: bytes) -> "Ior":
        """Build an IOR with one IIOP profile per (host, port) endpoint."""
        profiles = [
            TaggedProfile(TAG_INTERNET_IOP,
                          IiopProfile(host, port, object_key).encode())
            for host, port in endpoints
        ]
        return Ior(type_id=type_id, profiles=profiles)

    # -- profile access ---------------------------------------------------

    def iiop_profiles(self) -> List[IiopProfile]:
        """All TAG_INTERNET_IOP profiles, decoded, in IOR order."""
        return [IiopProfile.decode(p.data) for p in self.profiles
                if p.tag == TAG_INTERNET_IOP]

    def primary_profile(self) -> IiopProfile:
        """The first IIOP profile — all a non-enhanced ORB ever uses.
        Only that profile is decoded."""
        for profile in self.profiles:
            if profile.tag == TAG_INTERNET_IOP:
                return IiopProfile.decode(profile.data)
        raise MarshalError(f"IOR for {self.type_id} has no IIOP profile")

    # -- wire form ---------------------------------------------------------

    def encode(self, out: CdrOutputStream) -> None:
        out.write_string(self.type_id)
        out.write_ulong(len(self.profiles))
        for profile in self.profiles:
            out.write_ulong(profile.tag)
            out.write_octets(profile.data)

    @staticmethod
    def decode(stream: CdrInputStream) -> "Ior":
        type_id = stream.read_string()
        count = stream.read_ulong()
        if count > 1024:
            raise MarshalError(f"implausible profile count {count}")
        profiles = []
        for _ in range(count):
            tag = stream.read_ulong()
            data = stream.read_octets()
            profiles.append(TaggedProfile(tag, data))
        return Ior(type_id=type_id, profiles=profiles)

    def to_string(self) -> str:
        """Standard ``IOR:<hex>`` stringified reference."""
        data = encapsulate(self.encode)
        return "IOR:" + binascii.hexlify(data).decode("ascii")

    @staticmethod
    def from_string(text: str) -> "Ior":
        if not text.startswith("IOR:"):
            raise MarshalError("stringified reference must start with 'IOR:'")
        try:
            data = binascii.unhexlify(text[4:])
        except (binascii.Error, ValueError) as exc:
            raise MarshalError(f"bad IOR hex: {exc}") from exc
        return Ior.decode(decapsulate(data))


def replace_addresses(ior: Ior, address: Tuple[str, int]) -> Ior:
    """Rewrite every IIOP profile's {host, port} to ``address``.

    Models the paper's interposition of ``getsockname()``/``sysinfo()``
    (section 3.1): the published IOR carries the gateway's address while
    the object key is preserved, so the gateway can still identify the
    target server group.
    """
    host, port = address
    new_profiles = []
    for profile in ior.profiles:
        if profile.tag == TAG_INTERNET_IOP:
            old = IiopProfile.decode(profile.data)
            replacement = IiopProfile(host, port, old.object_key, old.version)
            new_profiles.append(TaggedProfile(TAG_INTERNET_IOP, replacement.encode()))
        else:
            new_profiles.append(profile)
    return Ior(type_id=ior.type_id, profiles=new_profiles)


def stitch_profiles(type_id: str, addresses: Sequence[Tuple[str, int]],
                    object_key: bytes) -> Ior:
    """Build the multi-profile IOR of section 3.5: one IIOP profile per
    redundant gateway, all sharing the server's object key."""
    if not addresses:
        raise MarshalError("cannot stitch an IOR with zero gateway addresses")
    return Ior.for_endpoints(type_id, addresses, object_key)
