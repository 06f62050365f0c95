"""AES-CTR mode, the symmetric cipher used throughout SCBR (paper §3.5).

Publications and subscriptions are encrypted by the producer under the
shared key SK and decrypted inside the enclave with the same keystream.
CTR turns the AES block cipher into a stream cipher, so encryption and
decryption are the same operation and no padding is needed.

The nonce handling mirrors common practice (and the Intel SDK's
``sgx_aes_ctr_encrypt``): a 16-byte initial counter block whose low bits
are incremented per block, big-endian — here the counter is a plain
128-bit integer, the whole keystream is generated up front by the block
cipher's :meth:`~repro.crypto.aes.AES.ctr_keystream`, and the XOR is a
single big-integer operation instead of a per-byte loop. A batch of
messages shares one keystream pass (:meth:`AesCtr.process_many`).
"""

from __future__ import annotations

import secrets
from typing import List, Sequence, Tuple

from repro.crypto.aes import AES, BLOCK_SIZE, counter_blocks
from repro.errors import CryptoError

__all__ = ["AesCtr", "check_nonce", "ctr_encrypt", "ctr_decrypt"]

NONCE_SIZE = 16


def check_nonce(nonce: bytes) -> None:
    """Raise :class:`CryptoError` unless ``nonce`` is a full counter block."""
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(
            f"CTR nonce must be {NONCE_SIZE} bytes, got {len(nonce)}"
        )


class AesCtr:
    """Stateless AES-CTR transform bound to a key.

    >>> key = bytes(range(16))
    >>> ctr = AesCtr(key)
    >>> nonce = bytes(16)
    >>> ctr.process(nonce, ctr.process(nonce, b"attack at dawn"))
    b'attack at dawn'
    """

    __slots__ = ("_aes",)

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)

    def process(self, nonce: bytes, data: bytes) -> bytes:
        """Encrypt or decrypt ``data`` under the given initial counter."""
        check_nonce(nonce)
        n = len(data)
        if not n:
            return b""
        n_blocks = -(-n // BLOCK_SIZE)
        keystream = self._aes.ctr_keystream(
            int.from_bytes(nonce, "big"), n_blocks)
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(keystream[:n], "big")).to_bytes(n, "big")

    def process_many(self, pairs: Sequence[Tuple[bytes, bytes]]
                     ) -> List[bytes]:
        """Apply :meth:`process` to many ``(nonce, data)`` pairs.

        One keystream pass for the whole batch: every pair's counter
        blocks go into one buffer and through a single
        :meth:`~repro.crypto.aes.AES.encrypt_blocks` call, so a batch
        of short messages (an ecall's worth of publication headers)
        reaches the byte-sliced path together even when each message
        alone stays below its threshold. A single pair costs what
        :meth:`process` does. Nonces are checked in index order before
        any keystream is made.
        """
        counters = []
        for nonce, data in pairs:
            check_nonce(nonce)
            counters.append(counter_blocks(int.from_bytes(nonce, "big"),
                                           -(-len(data) // BLOCK_SIZE)))
        keystream = memoryview(self._aes.encrypt_blocks(b"".join(counters)))
        from_b = int.from_bytes
        out: List[bytes] = []
        offset = 0
        for _nonce, data in pairs:
            n = len(data)
            out.append((from_b(data, "big")
                        ^ from_b(keystream[offset:offset + n], "big"))
                       .to_bytes(n, "big"))
            offset += -(-n // BLOCK_SIZE) * BLOCK_SIZE
        return out

    def encrypt_with_fresh_nonce(self, data: bytes) -> bytes:
        """Encrypt under a random nonce; returns ``nonce || ciphertext``."""
        nonce = secrets.token_bytes(NONCE_SIZE)
        return nonce + self.process(nonce, data)

    def decrypt_with_prefixed_nonce(self, blob: bytes) -> bytes:
        """Invert :meth:`encrypt_with_fresh_nonce`."""
        if len(blob) < NONCE_SIZE:
            raise CryptoError("ciphertext shorter than its nonce prefix")
        return self.process(blob[:NONCE_SIZE], blob[NONCE_SIZE:])


def ctr_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """One-shot AES-CTR encryption (cached transform per key)."""
    from repro.crypto.provider import ctr_for_key
    return ctr_for_key(key).process(nonce, plaintext)


def ctr_decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """One-shot AES-CTR decryption (identical to encryption)."""
    from repro.crypto.provider import ctr_for_key
    return ctr_for_key(key).process(nonce, ciphertext)
