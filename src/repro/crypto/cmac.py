"""AES-CMAC (RFC 4493), used to authenticate encrypted headers and blobs.

SGX itself derives 128-bit CMAC-based report keys; our simulated
attestation (:mod:`repro.sgx.attestation`) and sealing use this
implementation, as does the authenticated envelope in
:mod:`repro.core.messages`, which tags a whole batch of envelopes at
once with :meth:`AesCmac.tag_many`.
"""

from __future__ import annotations

import hmac
from struct import Struct
from typing import List, Sequence, Tuple

from repro.crypto.aes import AES, BLOCK_SIZE, _SLICE_THRESHOLD, xor_bytes
from repro.errors import AuthenticationError, CryptoError

__all__ = ["AesCmac", "check_tag", "cmac", "cmac_verify"]

_RB = 0x87  # constant for 128-bit block size subkey derivation

_PACK4 = Struct(">4I")


def _left_shift_one(block: bytes) -> bytes:
    """Shift a 16-byte string left by one bit."""
    as_int = int.from_bytes(block, "big")
    shifted = (as_int << 1) & ((1 << 128) - 1)
    return shifted.to_bytes(16, "big")


def check_tag(expected: bytes, tag: bytes) -> None:
    """Raise unless ``tag`` is the 16-byte tag ``expected``.

    The comparison is :func:`hmac.compare_digest`, so its time does not
    depend on where the tags differ.
    """
    if len(tag) != BLOCK_SIZE:
        raise CryptoError(f"CMAC tag must be 16 bytes, got {len(tag)}")
    if not hmac.compare_digest(expected, tag):
        raise AuthenticationError("CMAC verification failed")


class AesCmac:
    """CMAC tag generation/verification bound to one AES key."""

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        zero = self._aes.encrypt_block(bytes(BLOCK_SIZE))
        k1 = _left_shift_one(zero)
        if zero[0] & 0x80:
            k1 = k1[:-1] + bytes([k1[-1] ^ _RB])
        k2 = _left_shift_one(k1)
        if k1[0] & 0x80:
            k2 = k2[:-1] + bytes([k2[-1] ^ _RB])
        self._k1 = k1
        self._k2 = k2

    def _split(self, message: bytes) -> Tuple[int, bytes]:
        """``(full_blocks, last)``: the blocks chained as they are, and
        the final block padded and masked with its subkey."""
        n_blocks, remainder = divmod(len(message), BLOCK_SIZE)
        if n_blocks == 0 or remainder:
            # Incomplete (or empty) final block: pad with 10* and use K2.
            padded = message[n_blocks * BLOCK_SIZE:] + b"\x80"
            padded += bytes(BLOCK_SIZE - len(padded))
            return n_blocks, xor_bytes(padded, self._k2)
        return n_blocks - 1, xor_bytes(message[-BLOCK_SIZE:], self._k1)

    def tag(self, message: bytes) -> bytes:
        """Compute the 16-byte CMAC tag of ``message``."""
        full_blocks, last = self._split(message)
        # The CBC-MAC chain stays in 32-bit words end to end: one
        # unpack per message block, no intermediate bytes objects.
        encrypt = self._aes._encrypt_words
        unpack_from = _PACK4.unpack_from
        s0 = s1 = s2 = s3 = 0
        for i in range(full_blocks):
            b0, b1, b2, b3 = unpack_from(message, i * BLOCK_SIZE)
            s0, s1, s2, s3 = encrypt(s0 ^ b0, s1 ^ b1,
                                     s2 ^ b2, s3 ^ b3)
        b0, b1, b2, b3 = _PACK4.unpack(last)
        return _PACK4.pack(*encrypt(s0 ^ b0, s1 ^ b1,
                                    s2 ^ b2, s3 ^ b3))

    def tag_many(self, messages: Sequence[bytes]) -> List[bytes]:
        """The CMAC tags of many messages, chains run in lockstep.

        Fewer than ``_SLICE_THRESHOLD`` messages go through :meth:`tag`
        one by one. Otherwise the CBC-MAC chains advance together:
        block step ``t`` XORs block ``t`` of every chain still running
        into its state and encrypts them all with one
        :meth:`~repro.crypto.aes.AES.encrypt_blocks` call. Chains are
        ordered longest first, so the running ones are always a prefix
        and a chain that ends simply drops off the tail, its state
        after its last block being its tag. Tags come back in input
        order.
        """
        if len(messages) < _SLICE_THRESHOLD:
            return [self.tag(message) for message in messages]
        chains = []
        for message in messages:
            full_blocks, last = self._split(message)
            chains.append(message[:full_blocks * BLOCK_SIZE] + last)
        order = sorted(range(len(chains)), key=lambda j: len(chains[j]),
                       reverse=True)
        chains = [chains[j] for j in order]
        tags = [b""] * len(chains)
        from_b = int.from_bytes
        encrypt = self._aes.encrypt_blocks
        live = len(chains)
        state = b""
        for offset in range(0, len(chains[0]), BLOCK_SIZE):
            while len(chains[live - 1]) <= offset:
                live -= 1
                tags[order[live]] = state[BLOCK_SIZE * live:
                                          BLOCK_SIZE * (live + 1)]
            blocks = b"".join([chain[offset:offset + BLOCK_SIZE]
                               for chain in chains[:live]])
            if offset:
                size = BLOCK_SIZE * live
                blocks = (from_b(state[:size], "big")
                          ^ from_b(blocks, "big")).to_bytes(size, "big")
            state = encrypt(blocks)
        for i in range(live):
            tags[order[i]] = state[BLOCK_SIZE * i:BLOCK_SIZE * (i + 1)]
        return tags

    def verify(self, message: bytes, tag: bytes) -> None:
        """Raise :class:`AuthenticationError` unless ``tag`` is valid."""
        check_tag(self.tag(message), tag)


def cmac(key: bytes, message: bytes) -> bytes:
    """One-shot AES-CMAC tag (cached transform per key)."""
    from repro.crypto.provider import cmac_for_key
    return cmac_for_key(key).tag(message)


def cmac_verify(key: bytes, message: bytes, tag: bytes) -> None:
    """One-shot AES-CMAC verification; raises on mismatch."""
    from repro.crypto.provider import cmac_for_key
    cmac_for_key(key).verify(message, tag)
