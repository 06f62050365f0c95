"""Set-up of one attested SCBR deployment through the public API.

A :class:`SecureWorld` is what a user stands up before traffic flows:
a simulated SGX platform registered with the attestation service, a
router whose enclave the provider attests and provisions with SK,
admitted clients, and the base subscriptions registered the way a
client registers them (client -> provider -> router). Everything here
is timed as the benchmark's set-up.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.engine import ScbrEnclaveLibrary
from repro.core.keys import GroupKeyManager
from repro.core.provider import ServiceProvider
from repro.core.router import Router
from repro.core.subscriber import Client
from repro.crypto.rsa import generate_keypair
from repro.matching.subscriptions import Subscription
from repro.network.bus import MessageBus
from repro.obs.metrics import MetricsRegistry
from repro.sgx.attestation import AttestationService
from repro.sgx.cpu import PlatformSpec
from repro.sgx.enclave import EnclaveBuilder
from repro.sgx.platform import SgxPlatform

#: RSA modulus for every key in the deployment. The smallest size the
#: OAEP/PSS encodings accept; pure-Python key generation and private
#: operations dominate set-up at larger sizes.
RSA_BITS = 768


class Subscriber(Client):
    """A client that decrypts each distinct payload ciphertext once.

    The correctness check has every subscriber decrypt everything it
    received, and a run delivers the same pooled publication to a
    client many times. Decryption is a pure function of the ciphertext
    and the keys the client holds, and keys are only ever added, so a
    successful result is reused for an identical ciphertext; a failure
    is retried, since a later group key may open it.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._opened: Dict[bytes, bytes] = {}

    def _decrypt_delivery(self, payload_envelope: bytes):
        plaintext = self._opened.get(payload_envelope)
        if plaintext is None:
            plaintext = super()._decrypt_delivery(payload_envelope)
            if plaintext is not None:
                self._opened[payload_envelope] = plaintext
        return plaintext


class SecureWorld:
    """One provisioned router with admitted clients and base interest."""

    def __init__(self, spec: PlatformSpec, matcher_backend: str,
                 group_master: bytes) -> None:
        self.metrics = MetricsRegistry()
        self.bus = MessageBus(metrics=self.metrics)
        self.platform = SgxPlatform(spec=spec,
                                    attestation_key_bits=RSA_BITS)
        attestation = AttestationService(signing_key_bits=RSA_BITS)
        attestation.register_platform(self.platform)
        vendor_key = generate_keypair(RSA_BITS)
        expected = EnclaveBuilder(self.platform,
                                  ScbrEnclaveLibrary).measure()
        self.router = Router(self.bus, self.platform, vendor_key,
                             rsa_bits=RSA_BITS, metrics=self.metrics,
                             matcher_backend=matcher_backend)
        self.provider = ServiceProvider(
            self.bus, rsa_bits=RSA_BITS,
            attestation_service=attestation,
            expected_mr_enclave=expected)
        # The publisher shares the provider's group-key manager (same
        # administrative domain); a known master lets the generator
        # pre-build payloads for the epochs a run will reach.
        self.provider.group = GroupKeyManager(master=group_master)
        self.provider.provision_router(self.router)
        self.clients: Dict[str, Subscriber] = {}
        #: pre-built PUB frames and ``(client, request)`` joins; the
        #: workload fills them during set-up.
        self.frames: List[bytes] = []
        self.join_requests: List[Tuple[str, bytes]] = []
        self.publisher = None
        #: a :class:`~repro.recovery.RouterSupervisor`, when supervised.
        self.supervisor = None

    @property
    def cycles(self) -> float:
        """Simulated cycles charged on the router's platform so far."""
        return self.platform.memory.cycles

    def add_client(self, name: str, admit: bool = True) -> Subscriber:
        """Create a client endpoint; optionally admit it now."""
        client = Subscriber(self.bus, name, self.provider.keys.public_key)
        self.clients[name] = client
        if admit:
            client.process_admission(self.provider.admit_client(name))
        return client

    def subscription_requests(self, registrations: Sequence[
            Tuple[str, Subscription]]) -> List[Tuple[str, bytes]]:
        """Client-side: encrypt each subscription under the provider PK."""
        return [(name, self.clients[name].make_subscription_request(sub))
                for name, sub in registrations]

    def register(self, requests: Sequence[Tuple[str, bytes]]) -> None:
        """Send requests client -> provider -> router and apply them."""
        for name, request in requests:
            self.clients[name].endpoint.send(self.provider.name,
                                             [request])
        self.provider.pump(self.router.name)
        self.router.pump()

    def failed(self) -> int:
        """Frames and deliveries the router dead-lettered."""
        return self.router.dead_letters.total

    def deliveries_by_client(self) -> Dict[str, Tuple[List[bytes], int]]:
        """Drain every client inbox: (decrypted payloads, undecryptable)."""
        out = {}
        for name, client in self.clients.items():
            client.pump()
            out[name] = (list(client.received), client.undecryptable)
        return out

    def close(self) -> None:
        self.router.close()


__all__ = ["SecureWorld", "Subscriber", "RSA_BITS"]
