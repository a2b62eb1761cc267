"""The protocol extractor, pinned against the real repro surface.

These tests lint ``src/`` once and assert the extracted protocol
surface matches what docs/PROTOCOL.md documents: the 16 ``MsgKind``
members (each sent *and* dispatched), the four Totem wire messages,
the GIOP codec pairs, and the ``MsgType`` octet table.  A refactor
that silently drops a handler or a codec moves one of these sets and
fails here even before the FLOW rules anchor a violation.
"""

from __future__ import annotations

import pytest

from repro.analysis.callgraph import _module_in, build_callgraph
from repro.analysis.lint import DETERMINISTIC_PREFIXES
from repro.analysis.protocol import (build_protocol_surface,
                                     render_protocol_json)

MSG_KINDS = {
    "INVOCATION", "RESPONSE", "GROUP_ANNOUNCE", "GROUP_REMOVE",
    "ADD_REPLICA", "REMOVE_REPLICA", "REPLICA_READY", "CHECKPOINT",
    "STATE_UPDATE", "STATE_TRANSFER", "GATEWAY_MIRROR", "CLIENT_GONE",
    "ORDER_RECORD", "STYLE_SWITCH", "REGISTRY_SYNC",
    "REGISTRY_SYNC_REQUEST",
}

TOTEM_CLASSES = {
    "repro.totem.messages.RegularMessage",
    "repro.totem.messages.Token",
    "repro.totem.messages.JoinMessage",
    "repro.totem.messages.CommitMessage",
}

#: codec suffix -> (has encoder, has decoder).  The asymmetric entries
#: are header-only / client-side shapes with justified suppressions.
CODEC_TABLE = {
    "request": (True, True),
    "reply": (True, True),
    "locate_request": (True, True),
    "locate_reply": (True, True),
    "locate_forward": (False, True),
    "cancel_request": (True, True),
    "close_connection": (True, False),
    "message_error": (True, False),
}


@pytest.fixture(scope="module")
def project(src_lint):
    assert src_lint.project is not None
    return src_lint.project


def test_every_msg_kind_is_sent_and_dispatched(project):
    surface = build_protocol_surface(project)
    assert set(surface.kinds) == {"MsgKind"}
    table = surface.kinds["MsgKind"]
    assert set(table) == MSG_KINDS
    for member, usage in table.items():
        assert usage.definition is not None, member
        assert usage.sends, f"{member} has no send site"
        assert usage.dispatches, f"{member} has no dispatch site"


def test_totem_wire_classes_are_constructed_and_dispatched(project):
    surface = build_protocol_surface(project)
    assert set(surface.wire_classes) == TOTEM_CLASSES
    for qname, usage in surface.wire_classes.items():
        assert usage.constructs, f"{qname} is never constructed"
        assert usage.dispatches, f"{qname} is never dispatched"


def test_giop_codec_pairs_match_the_documented_table(project):
    surface = build_protocol_surface(project)
    pairs = {suffix: (pair.encoder is not None, pair.decoder is not None)
             for suffix, pair in surface.codecs.items()}
    assert pairs == CODEC_TABLE
    graph = build_callgraph(project)
    uncalled = {
        qname
        for pair in surface.codecs.values()
        for qname in (pair.encoder_qname, pair.decoder_qname)
        if qname is not None and not graph.callers(qname)}
    # Exactly the client-side codecs (exercised from tests/, with
    # justified FLOW002 suppressions at their definitions) are
    # uncalled inside src/ — nothing else may join this set.
    assert uncalled == {
        "repro.iiop.giop.encode_locate_request",
        "repro.iiop.giop.decode_locate_forward",
        "repro.iiop.giop.encode_cancel_request",
        "repro.iiop.giop.encode_close_connection",
    }


def test_giop_msg_type_octets(project):
    surface = build_protocol_surface(project)
    assert surface.giop_msg_types == {
        "REQUEST": 0, "REPLY": 1, "CANCEL_REQUEST": 2,
        "LOCATE_REQUEST": 3, "LOCATE_REPLY": 4, "CLOSE_CONNECTION": 5,
        "MESSAGE_ERROR": 6,
    }


def test_observability_inventory_is_dotted_and_sorted(project):
    surface = build_protocol_surface(project)
    assert surface.flight_kinds and surface.span_names
    for name in surface.flight_kinds + surface.span_names:
        assert "." in name
    assert surface.flight_kinds == sorted(set(surface.flight_kinds))
    assert surface.span_names == sorted(set(surface.span_names))


def test_protocol_dump_schema(project):
    dump = render_protocol_json(project)
    assert dump["schema"] == 1
    assert set(dump["kinds"]["MsgKind"]) == MSG_KINDS
    entry = dump["kinds"]["MsgKind"]["INVOCATION"]
    assert entry["sends"] and entry["dispatches"]
    assert all(set(ref) == {"path", "line"} for ref in entry["sends"])
    assert set(dump["wire_classes"]) == TOTEM_CLASSES
    assert dump["codecs"]["request"] == {
        "encoder": "repro.iiop.giop.encode_request",
        "decoder": "repro.iiop.giop.decode_request"}
    assert dump["giop_msg_types"]["MESSAGE_ERROR"] == 6


def test_reexported_codec_callers_resolve_through_the_package(project):
    """connection.py imports codecs from the ``repro.iiop`` package;
    the graph must still attribute the calls to the defining module."""
    graph = build_callgraph(project)
    callers = graph.callers("repro.iiop.giop.encode_message_error")
    assert ("repro.orb.connection.IiopServerConnection._on_data"
            in callers)


def test_no_deterministic_function_is_wall_tainted(project):
    """The gate invariant behind DET101, asserted structurally: no
    in-scope function transitively reaches an unsuppressed wall read."""
    graph = build_callgraph(project)
    offenders = [
        qname for qname in graph.taint("wall")
        if _module_in(graph.functions[qname].module,
                      DETERMINISTIC_PREFIXES)]
    assert offenders == []
