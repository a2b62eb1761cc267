"""Tests for IORs: profiles, stringification, gateway address rewriting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.iiop import (
    IiopProfile,
    Ior,
    TAG_INTERNET_IOP,
    replace_addresses,
    stitch_profiles,
)
from repro.iiop import ior as ior_module
from repro.iiop.ior import TAG_MULTIPLE_COMPONENTS, TaggedProfile

host_names = st.from_regex(r"[a-z][a-z0-9\-]{0,20}", fullmatch=True)
ports = st.integers(min_value=1, max_value=65535)


def test_profile_roundtrip():
    profile = IiopProfile("gw.example.com", 2809, b"ftdomain/ny/10")
    decoded = IiopProfile.decode(profile.encode())
    assert decoded == profile


def test_ior_roundtrip_via_string():
    ior = Ior.for_endpoints("IDL:repro/Trader:1.0",
                            [("gw0", 2809), ("gw1", 2810)], b"key")
    text = ior.to_string()
    assert text.startswith("IOR:")
    decoded = Ior.from_string(text)
    assert decoded.type_id == "IDL:repro/Trader:1.0"
    assert [p.address for p in decoded.iiop_profiles()] == [
        ("gw0", 2809), ("gw1", 2810)]
    assert decoded.primary_profile().object_key == b"key"


def test_ior_string_is_hex():
    ior = Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"k")
    body = ior.to_string()[4:]
    assert all(c in "0123456789abcdef" for c in body)


def test_from_string_rejects_bad_prefix():
    with pytest.raises(MarshalError):
        Ior.from_string("ior:deadbeef")


def test_from_string_rejects_bad_hex():
    with pytest.raises(MarshalError):
        Ior.from_string("IOR:zzzz")


def test_primary_profile_requires_iiop_profile():
    ior = Ior(type_id="IDL:x:1.0", profiles=[])
    with pytest.raises(MarshalError):
        ior.primary_profile()


def test_replace_addresses_rewrites_every_profile():
    """Section 3.1: the published IOR carries the gateway address but the
    original object key, so the gateway can identify the target."""
    ior = Ior.for_endpoints("IDL:repro/Trader:1.0",
                            [("srv0", 9000), ("srv1", 9001)], b"group:12")
    rewritten = replace_addresses(ior, ("gateway", 2809))
    addresses = [p.address for p in rewritten.iiop_profiles()]
    assert addresses == [("gateway", 2809), ("gateway", 2809)]
    for profile in rewritten.iiop_profiles():
        assert profile.object_key == b"group:12"
    # The original IOR is untouched.
    assert ior.primary_profile().address == ("srv0", 9000)


def test_stitch_profiles_builds_multi_profile_ior():
    """Section 3.5: one profile per redundant gateway."""
    ior = stitch_profiles("IDL:repro/Trader:1.0",
                          [("gw0", 2809), ("gw1", 2809), ("gw2", 2809)],
                          b"group:7")
    profiles = ior.iiop_profiles()
    assert len(profiles) == 3
    assert {p.host for p in profiles} == {"gw0", "gw1", "gw2"}
    assert all(p.object_key == b"group:7" for p in profiles)


def test_stitch_requires_at_least_one_gateway():
    with pytest.raises(MarshalError):
        stitch_profiles("IDL:x:1.0", [], b"k")


def test_non_iiop_profiles_are_preserved_by_replace():
    from repro.iiop.ior import TaggedProfile
    ior = Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"k")
    ior.profiles.append(TaggedProfile(99, b"opaque"))
    rewritten = replace_addresses(ior, ("gw", 2))
    assert rewritten.profiles[-1].tag == 99
    assert rewritten.profiles[-1].data == b"opaque"


@given(st.lists(st.tuples(host_names, ports), min_size=1, max_size=8),
       st.binary(min_size=1, max_size=64))
def test_ior_string_roundtrip_property(endpoints, object_key):
    ior = Ior.for_endpoints("IDL:repro/T:1.0", endpoints, object_key)
    decoded = Ior.from_string(ior.to_string())
    assert [p.address for p in decoded.iiop_profiles()] == endpoints
    assert all(p.object_key == object_key for p in decoded.iiop_profiles())


@given(st.lists(st.tuples(host_names, ports), min_size=1, max_size=5),
       host_names, ports)
def test_replace_addresses_property(endpoints, new_host, new_port):
    ior = Ior.for_endpoints("IDL:x:1.0", endpoints, b"key")
    rewritten = replace_addresses(ior, (new_host, new_port))
    assert all(p.address == (new_host, new_port)
               for p in rewritten.iiop_profiles())
    assert len(rewritten.profiles) == len(ior.profiles)


# ----------------------------------------------------------------------
# Profile memo: each distinct profile is marshalled once
# ----------------------------------------------------------------------

def test_profile_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(ior_module, "PROFILE_MEMO_CAP", 8)
    monkeypatch.setattr(ior_module, "_encoded", {})
    monkeypatch.setattr(ior_module, "_decoded", {})
    profiles = [IiopProfile(f"gw{i}", 2809, b"key") for i in range(40)]
    for profile in profiles:
        data = profile.encode()
        assert IiopProfile.decode(data) == profile
        assert len(ior_module._encoded) <= 8
        assert len(ior_module._decoded) <= 8
    # Evicted entries are simply marshalled again, to the same bytes.
    fresh = IiopProfile("gw0", 2809, b"key")
    assert fresh.encode() == profiles[0].encode()
    assert IiopProfile.decode(fresh.encode()) == fresh


def test_profile_memo_returns_the_first_marshalling():
    profile = IiopProfile("gw.example.com", 2809, b"ftdomain/ny/10")
    data = profile.encode()
    assert IiopProfile("gw.example.com", 2809, b"ftdomain/ny/10").encode() \
        is data
    assert IiopProfile.decode(bytes(data)) is IiopProfile.decode(data)


@pytest.mark.parametrize("data", [
    b"",
    b"\x00\x01",
    IiopProfile("gw", 2809, b"key").encode()[:-2],
])
def test_malformed_profile_fails_on_every_call(data):
    for _ in range(3):
        with pytest.raises(MarshalError):
            IiopProfile.decode(data)
    assert data not in ior_module._decoded


def test_primary_profile_skips_non_iiop_and_decodes_only_the_first():
    good = IiopProfile("gw0", 2809, b"key").encode()
    ior = Ior(type_id="IDL:x:1.0", profiles=[
        TaggedProfile(TAG_MULTIPLE_COMPONENTS, b"opaque"),
        TaggedProfile(TAG_INTERNET_IOP, good),
        TaggedProfile(TAG_INTERNET_IOP, b"\x00\x01"),
    ])
    assert ior.primary_profile().address == ("gw0", 2809)
    with pytest.raises(MarshalError):
        ior.iiop_profiles()


def test_primary_profile_requires_an_iiop_profile_among_others():
    ior = Ior(type_id="IDL:x:1.0", profiles=[
        TaggedProfile(TAG_MULTIPLE_COMPONENTS, b"opaque")])
    for _ in range(2):
        with pytest.raises(MarshalError):
            ior.primary_profile()
