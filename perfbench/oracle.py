"""Plaintext oracle: replays a run's operations in processing order.

The system under test only ever sees ciphertext; the oracle sees the
same operations in the clear. It keeps each client's live
subscriptions, and for every publication the router processed it
computes the clients that should have received the payload, using the
subscription predicates directly (no index). A run is correct when
every client decrypted exactly the payloads the oracle expects, in the
same order, and nothing failed to decrypt.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.matching.events import Event
from repro.matching.subscriptions import Subscription


class Oracle:
    """Live subscriptions per client, matched by brute force."""

    def __init__(self) -> None:
        self._tests: Dict[str, List[Callable[[dict], bool]]] = {}
        self._cache: Dict[object, Set[str]] = {}

    def join(self, client: str,
             subscriptions: Iterable[Subscription]) -> None:
        self._tests.setdefault(client, []).extend(
            sub.compiled() for sub in subscriptions)
        self._cache.clear()

    def leave(self, client: str) -> None:
        self._tests.pop(client, None)
        self._cache.clear()

    def match(self, event: Event, key: object = None) -> Set[str]:
        """Clients with at least one subscription the event satisfies.

        ``key`` names a reusable event so repeated publications of the
        same frame between membership changes are matched once.
        """
        if key is not None and key in self._cache:
            return self._cache[key]
        header = event.header
        matched = {client for client, tests in self._tests.items()
                   if any(test(header) for test in tests)}
        if key is not None:
            self._cache[key] = matched
        return matched


def expected_deliveries(log: Sequence[Tuple], events: Sequence[Event],
                        payloads: Sequence[bytes],
                        base: Iterable[Tuple[str, Subscription]]
                        ) -> Dict[str, List[bytes]]:
    """Per-client payload sequences the processing ``log`` implies.

    ``log`` entries are ``("pub", frame)``, ``("join", client, subs)``
    or ``("leave", client)``; ``events[frame]`` and ``payloads[frame]``
    describe pre-built frame ``frame``.
    """
    oracle = Oracle()
    by_client: Dict[str, List[Subscription]] = {}
    for client, sub in base:
        by_client.setdefault(client, []).append(sub)
    for client, subs in by_client.items():
        oracle.join(client, subs)
    expected: Dict[str, List[bytes]] = {}
    for entry in log:
        kind = entry[0]
        if kind == "pub":
            frame = entry[1]
            for client in oracle.match(events[frame], key=frame):
                expected.setdefault(client, []).append(payloads[frame])
        elif kind == "join":
            oracle.join(entry[1], entry[2])
        elif kind == "leave":
            oracle.leave(entry[1])
        else:
            raise ValueError(f"unknown log entry {kind!r}")
    return expected


def compare_deliveries(expected: Dict[str, List[bytes]],
                       received: Dict[str, Tuple[List[bytes], int]]
                       ) -> List[str]:
    """Mismatches between oracle and clients (empty when correct)."""
    problems = []
    for client in sorted(set(expected) | set(received)):
        want = expected.get(client, [])
        got, undecryptable = received.get(client, ([], 0))
        if undecryptable:
            problems.append(f"{client}: {undecryptable} payloads did "
                            f"not decrypt")
        if got != want:
            problems.append(f"{client}: received {len(got)} payloads, "
                            f"oracle expects {len(want)}"
                            + ("" if len(got) != len(want)
                               else " (order or content differs)"))
    return problems


__all__ = ["Oracle", "expected_deliveries", "compare_deliveries"]
