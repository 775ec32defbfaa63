"""Event-queue serialization for checkpoints.

The hard part of checkpointing a discrete-event simulation is the
pending event queue: each entry holds a live callback closure. The
codec makes this tractable with one invariant, enforced at encode
time: **every pending callback is a bound method of an object
registered in a** :class:`CheckpointContext`. An event then serializes
to ``(time, priority, seq, owner name, method name, encoded args)``
and decodes by looking the owner up in the *rebuilt* object graph and
re-binding ``getattr(owner, method)``.

Arguments are encoded with a small tagged union:

* ``["scalar", v]`` — ``None``/bool/int/float/str, verbatim.
* ``["packet", doc]`` — a :class:`~repro.net.packet.Packet` via
  :func:`~repro.net.packet.encode_packet` (seqno preserved exactly).
* ``["ref", name]`` — any object registered in the context.

Anything else — an unregistered owner, a bare function, an exotic
argument — raises :class:`~repro.errors.CheckpointError` *at
checkpoint time*, so an unserializable run fails loudly when the
snapshot is taken rather than producing a checkpoint that cannot be
restored.

Restored events keep their original ``(time, priority, seq)`` triples
and the queue continues the original sequence numbering, so tie-breaks
in the restored run are byte-identical to the uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import CheckpointError
from ..net.packet import Packet, decode_packet, encode_packet
from ..sim.events import Event, EventQueue
from ..sim.process import PeriodicProcess

_SCALAR_TYPES = (type(None), bool, int, float, str)


class CheckpointContext:
    """A bidirectional name ↔ object registry for one run.

    The builder of a run registers every object whose bound methods may
    appear in the event queue (engine, interfaces, flows, sources,
    fault processes, ...) under a stable name. Encode resolves objects
    to names; decode resolves names back to the freshly built objects.
    """

    def __init__(self) -> None:
        self._objects: Dict[str, Any] = {}
        self._names: Dict[int, str] = {}

    def register(self, name: str, obj: Any) -> None:
        """Bind *name* to *obj*. Names and objects must be unique."""
        if name in self._objects:
            raise CheckpointError(f"checkpoint name {name!r} registered twice")
        self._objects[name] = obj
        self._names[id(obj)] = name

    def object(self, name: str) -> Any:
        """The object registered under *name*."""
        try:
            return self._objects[name]
        except KeyError:
            raise CheckpointError(
                f"checkpoint references unregistered object {name!r}"
            ) from None

    def name_of(self, obj: Any) -> Optional[str]:
        """The name *obj* was registered under, or ``None``."""
        return self._names.get(id(obj))


def encode_arg(value: Any, context: CheckpointContext) -> List[Any]:
    """Encode one event argument as a tagged pair."""
    if isinstance(value, Packet):
        return ["packet", encode_packet(value)]
    if isinstance(value, _SCALAR_TYPES):
        return ["scalar", value]
    name = context.name_of(value)
    if name is not None:
        return ["ref", name]
    raise CheckpointError(
        f"cannot encode event argument {value!r} "
        f"({type(value).__name__} is neither a scalar, a Packet, "
        "nor a registered object)"
    )


def decode_arg(doc: List[Any], context: CheckpointContext) -> Any:
    """Decode one argument encoded by :func:`encode_arg`."""
    tag, payload = doc
    if tag == "scalar":
        return payload
    if tag == "packet":
        return decode_packet(payload)
    if tag == "ref":
        return context.object(payload)
    raise CheckpointError(f"unknown event-argument tag {tag!r}")


def encode_event(event: Event, context: CheckpointContext) -> Dict[str, Any]:
    """Encode one pending event as a JSON-safe dict."""
    callback = event.callback
    owner = getattr(callback, "__self__", None)
    if owner is None:
        raise CheckpointError(
            f"pending event at t={event.time:g} holds a non-method callback "
            f"{callback!r}; only bound methods of registered objects are "
            "checkpointable"
        )
    name = context.name_of(owner)
    if name is None:
        raise CheckpointError(
            f"pending event at t={event.time:g} is owned by unregistered "
            f"object {owner!r}"
        )
    return {
        "time": event.time,
        "priority": event.priority,
        "seq": event.seq,
        "owner": name,
        "method": callback.__name__,
        "args": [encode_arg(arg, context) for arg in event.args],
    }


def decode_event(doc: Dict[str, Any], context: CheckpointContext) -> Event:
    """Rebuild one event against the restored object graph.

    Periodic-process owners additionally get their internal event
    handle re-pointed at the rebuilt event, so ``stop()`` and
    rescheduling keep working after restore.
    """
    owner = context.object(doc["owner"])
    callback = getattr(owner, doc["method"], None)
    if not callable(callback):
        raise CheckpointError(
            f"restored object {doc['owner']!r} has no method {doc['method']!r}"
        )
    event = Event(
        doc["time"],
        doc["priority"],
        doc["seq"],
        callback,
        tuple(decode_arg(arg, context) for arg in doc["args"]),
    )
    if isinstance(owner, PeriodicProcess) and doc["method"] == "_tick":
        owner._event = event
        owner._running = True
    return event


def encode_events(queue: EventQueue, context: CheckpointContext) -> Dict[str, Any]:
    """Encode every live pending event plus the sequence cursor."""
    return {
        "next_seq": queue.next_seq,
        "events": [encode_event(event, context) for event in queue.live_events()],
    }


def decode_events(
    doc: Dict[str, Any], queue: EventQueue, context: CheckpointContext
) -> None:
    """Replace *queue*'s contents with the snapshotted events."""
    events = [decode_event(entry, context) for entry in doc["events"]]
    queue.restore(events, doc["next_seq"])
