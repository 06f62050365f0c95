"""AES block cipher (FIPS-197), 32-bit T-table implementation.

The paper's SCBR prototype uses AES-CTR both inside the enclave (Intel SDK
crypto) and outside (Crypto++). This module provides the block primitive;
:mod:`repro.crypto.ctr` and :mod:`repro.crypto.cmac` build the modes on top.

The S-box and round constants are *derived* (GF(2^8) inversion + affine
transform) rather than transcribed, and the SubBytes/ShiftRows/MixColumns
round is collapsed into four 256-entry 32-bit lookup tables (the classic
"T-table" formulation every optimised software AES uses): one round of a
column becomes four table lookups and four XORs on machine words instead
of sixteen byte operations. Decryption uses the equivalent inverse cipher
with four TD tables and an InvMixColumns-transformed key schedule, so it
runs the same word-oriented round. Batches of blocks go through
:meth:`AES.encrypt_blocks`, which switches to a byte-sliced formulation
(one big integer per batch, every round a fixed number of C-level
operations) once a batch is large enough. Everything is verified against
the FIPS-197 / NIST test vectors and differentially fuzzed against the
pinned per-byte implementation in :mod:`repro.crypto.reference`.

This is a clean-room educational implementation: it favours clarity and
speed over side-channel resistance (table lookups are not constant time),
which is acceptable for a simulator whose threat model is explicitly
*modelled*, not enforced, in software.
"""

from __future__ import annotations

from operator import itemgetter
from struct import Struct
from typing import List, Tuple

from repro.errors import CryptoError

__all__ = ["AES", "BLOCK_SIZE", "counter_blocks", "xor_bytes"]

BLOCK_SIZE = 16

_PACK4 = Struct(">4I")
_WORD_MASK = 0xFFFFFFFF
_COUNTER_MASK = (1 << 128) - 1


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) (Russian-peasant style)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> Tuple[bytes, bytes]:
    """Derive the AES S-box and its inverse from first principles."""
    # Multiplicative inverses via exponentiation by the group order - 1.
    inverse = [0] * 256
    for x in range(1, 256):
        y = x
        # x^254 == x^-1 in GF(2^8)*
        acc = 1
        exponent = 254
        while exponent:
            if exponent & 1:
                acc = _gf_mul(acc, y)
            y = _gf_mul(y, y)
            exponent >>= 1
        inverse[x] = acc

    def _affine(value: int) -> int:
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((value << shift) | (value >> (8 - shift))) & 0xFF
            result ^= rotated
        return result

    sbox = bytes(_affine(inverse[x]) for x in range(256))
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return sbox, bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

# Round constants: rcon[i] = x^(i-1) in GF(2^8).
_RCON = [0] * 11
_value = 1
for _i in range(1, 11):
    _RCON[_i] = _value
    _value = _xtime(_value)


def _build_t_tables() -> Tuple[List[int], ...]:
    """Derive the encrypt (T) and decrypt (TD) round tables.

    ``T0[x]`` is the MixColumns contribution of state byte ``S[x]``
    placed in row 0 of a column, packed big-endian: ``(2s, s, s, 3s)``.
    ``T1..T3`` are byte rotations of ``T0`` — the same contribution
    landing in rows 1..3. ``TD*`` are the InvMixColumns analogues over
    the inverse S-box: ``TD0[x] = (14i, 9i, 13i, 11i)`` with
    ``i = S^-1[x]``. One round of one column is then four lookups and
    four XORs on 32-bit words.
    """
    t0, t1, t2, t3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    d0, d1, d2, d3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    for x in range(256):
        s = _SBOX[x]
        word = ((_gf_mul(s, 2) << 24) | (s << 16) | (s << 8)
                | _gf_mul(s, 3))
        t0[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        t1[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        t2[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        t3[x] = word

        i = _INV_SBOX[x]
        word = ((_gf_mul(i, 14) << 24) | (_gf_mul(i, 9) << 16)
                | (_gf_mul(i, 13) << 8) | _gf_mul(i, 11))
        d0[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        d1[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        d2[x] = word
        word = ((word >> 8) | (word << 24)) & _WORD_MASK
        d3[x] = word
    return t0, t1, t2, t3, d0, d1, d2, d3


_T0, _T1, _T2, _T3, _TD0, _TD1, _TD2, _TD3 = _build_t_tables()

#: Byte-sliced layout: row ``p = 4*r + c`` of the sliced state holds
#: state byte ``q = 4*c + r`` (row ``r``, column ``c``) of every block.
#: Rows are ordered row-major so MixColumns' "same column, next row"
#: is a rotation of the whole state by four layout rows.
_LAYOUT_Q = tuple(4 * (p % 4) + p // 4 for p in range(16))
_TO_LAYOUT = itemgetter(*_LAYOUT_Q)


def _build_shift_rows_runs() -> Tuple[Tuple[int, int], ...]:
    """ShiftRows as contiguous runs of source layout rows.

    In the row-major layout ShiftRows moves ``old[4r + (c+r) % 4]`` to
    ``new[4r + c]``. Reading the source rows in output order and
    merging neighbours gives seven ``[start, stop)`` runs, so the whole
    permutation is seven slices and one join per round.
    """
    src = [4 * r + (c + r) % 4 for r in range(4) for c in range(4)]
    runs = []
    start = prev = src[0]
    for row in src[1:]:
        if row != prev + 1:
            runs.append((start, prev + 1))
            start = row
        prev = row
    runs.append((start, prev + 1))
    return tuple(runs)


_SHIFT_ROWS_RUNS = _build_shift_rows_runs()

#: Fills a 16-byte round key out to a 256-byte translation table.
_TABLE_PAD = bytes(256 - 16)

#: Batches below this many blocks run the word loop. The sliced core's
#: cost per call is nearly fixed, so it only pays off across many
#: blocks; at 16 a single envelope header (up to 15 blocks) and a
#: batch of fewer than 16 envelopes keep their per-block path.
_SLICE_THRESHOLD = 16


def counter_blocks(counter: int, n_blocks: int) -> bytes:
    """``c || c+1 || ...`` as 16-byte big-endian blocks (mod 2^128)."""
    return b"".join([((counter + i) & _COUNTER_MASK).to_bytes(16, "big")
                     for i in range(n_blocks)])


class AES:
    """AES-128/192/256 block cipher over 16-byte blocks.

    >>> cipher = AES(bytes(16))
    >>> len(cipher.encrypt_block(bytes(16)))
    16
    """

    _ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}

    __slots__ = ("_rounds", "_ek", "_dk", "_rk_rows", "_slice_consts")

    def __init__(self, key: bytes) -> None:
        if len(key) not in self._ROUNDS_BY_KEYLEN:
            raise CryptoError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._rounds = self._ROUNDS_BY_KEYLEN[len(key)]
        self._ek = self._expand_key(key)
        self._dk = self._invert_key_schedule(self._ek)
        # Per-round key bytes in layout-row order, for the sliced path.
        self._rk_rows = [
            bytes(_TO_LAYOUT(_PACK4.pack(*self._ek[4 * r:4 * r + 4])))
            for r in range(self._rounds + 1)]
        self._slice_consts = (0, ())

    @property
    def rounds(self) -> int:
        """Number of AES rounds for this key size (10, 12 or 14)."""
        return self._rounds

    # -- key schedule -----------------------------------------------------

    def _expand_key(self, key: bytes) -> List[int]:
        """FIPS-197 key expansion as big-endian 32-bit column words."""
        key_words = len(key) // 4
        words = [list(key[4 * i:4 * i + 4]) for i in range(key_words)]
        total_words = 4 * (self._rounds + 1)
        for i in range(key_words, total_words):
            temp = list(words[i - 1])
            if i % key_words == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // key_words]
            elif key_words == 8 and i % key_words == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([t ^ w for t, w in zip(temp, words[i - key_words])])
        return [(w[0] << 24) | (w[1] << 16) | (w[2] << 8) | w[3]
                for w in words]

    def _invert_key_schedule(self, ek: List[int]) -> List[int]:
        """Round keys for the equivalent inverse cipher.

        Reverse the round-key order and run every *inner* round key
        through InvMixColumns, so decryption can apply the same
        table-lookup round shape as encryption. InvMixColumns of a
        word is ``TD0[S[b0]] ^ TD1[S[b1]] ^ ...``: the TD tables
        already compose ``InvSubBytes`` then ``InvMixColumns``, so
        feeding them *forward*-substituted bytes leaves pure
        InvMixColumns.
        """
        rounds = self._rounds
        dk = list(ek[4 * rounds:4 * rounds + 4])
        sbox = _SBOX
        for r in range(1, rounds):
            for word in ek[4 * (rounds - r):4 * (rounds - r) + 4]:
                dk.append(_TD0[sbox[word >> 24]]
                          ^ _TD1[sbox[(word >> 16) & 0xFF]]
                          ^ _TD2[sbox[(word >> 8) & 0xFF]]
                          ^ _TD3[sbox[word & 0xFF]])
        dk.extend(ek[0:4])
        return dk

    # -- word-oriented block transforms -----------------------------------

    def _encrypt_words(self, s0: int, s1: int, s2: int,
                       s3: int) -> Tuple[int, int, int, int]:
        """One block through the cipher; state is four 32-bit words."""
        ek = self._ek
        t0_, t1_, t2_, t3_ = _T0, _T1, _T2, _T3
        s0 ^= ek[0]
        s1 ^= ek[1]
        s2 ^= ek[2]
        s3 ^= ek[3]
        i = 4
        for _ in range(self._rounds - 1):
            u0 = (t0_[s0 >> 24] ^ t1_[(s1 >> 16) & 0xFF]
                  ^ t2_[(s2 >> 8) & 0xFF] ^ t3_[s3 & 0xFF] ^ ek[i])
            u1 = (t0_[s1 >> 24] ^ t1_[(s2 >> 16) & 0xFF]
                  ^ t2_[(s3 >> 8) & 0xFF] ^ t3_[s0 & 0xFF] ^ ek[i + 1])
            u2 = (t0_[s2 >> 24] ^ t1_[(s3 >> 16) & 0xFF]
                  ^ t2_[(s0 >> 8) & 0xFF] ^ t3_[s1 & 0xFF] ^ ek[i + 2])
            u3 = (t0_[s3 >> 24] ^ t1_[(s0 >> 16) & 0xFF]
                  ^ t2_[(s1 >> 8) & 0xFF] ^ t3_[s2 & 0xFF] ^ ek[i + 3])
            s0, s1, s2, s3 = u0, u1, u2, u3
            i += 4
        # Final round: SubBytes + ShiftRows only (no MixColumns).
        sbox = _SBOX
        u0 = ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
              | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ ek[i]
        u1 = ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
              | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) \
            ^ ek[i + 1]
        u2 = ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
              | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) \
            ^ ek[i + 2]
        u3 = ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
              | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) \
            ^ ek[i + 3]
        return u0, u1, u2, u3

    def _decrypt_words(self, s0: int, s1: int, s2: int,
                       s3: int) -> Tuple[int, int, int, int]:
        """Equivalent inverse cipher over the transformed schedule."""
        dk = self._dk
        d0_, d1_, d2_, d3_ = _TD0, _TD1, _TD2, _TD3
        s0 ^= dk[0]
        s1 ^= dk[1]
        s2 ^= dk[2]
        s3 ^= dk[3]
        i = 4
        for _ in range(self._rounds - 1):
            u0 = (d0_[s0 >> 24] ^ d1_[(s3 >> 16) & 0xFF]
                  ^ d2_[(s2 >> 8) & 0xFF] ^ d3_[s1 & 0xFF] ^ dk[i])
            u1 = (d0_[s1 >> 24] ^ d1_[(s0 >> 16) & 0xFF]
                  ^ d2_[(s3 >> 8) & 0xFF] ^ d3_[s2 & 0xFF] ^ dk[i + 1])
            u2 = (d0_[s2 >> 24] ^ d1_[(s1 >> 16) & 0xFF]
                  ^ d2_[(s0 >> 8) & 0xFF] ^ d3_[s3 & 0xFF] ^ dk[i + 2])
            u3 = (d0_[s3 >> 24] ^ d1_[(s2 >> 16) & 0xFF]
                  ^ d2_[(s1 >> 8) & 0xFF] ^ d3_[s0 & 0xFF] ^ dk[i + 3])
            s0, s1, s2, s3 = u0, u1, u2, u3
            i += 4
        # Final round: InvSubBytes + InvShiftRows only.
        inv = _INV_SBOX
        u0 = ((inv[s0 >> 24] << 24) | (inv[(s3 >> 16) & 0xFF] << 16)
              | (inv[(s2 >> 8) & 0xFF] << 8) | inv[s1 & 0xFF]) ^ dk[i]
        u1 = ((inv[s1 >> 24] << 24) | (inv[(s0 >> 16) & 0xFF] << 16)
              | (inv[(s3 >> 8) & 0xFF] << 8) | inv[s2 & 0xFF]) \
            ^ dk[i + 1]
        u2 = ((inv[s2 >> 24] << 24) | (inv[(s1 >> 16) & 0xFF] << 16)
              | (inv[(s0 >> 8) & 0xFF] << 8) | inv[s3 & 0xFF]) \
            ^ dk[i + 2]
        u3 = ((inv[s3 >> 24] << 24) | (inv[(s2 >> 16) & 0xFF] << 16)
              | (inv[(s1 >> 8) & 0xFF] << 8) | inv[s0 & 0xFF]) \
            ^ dk[i + 3]
        return u0, u1, u2, u3

    # -- public API --------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        return _PACK4.pack(*self._encrypt_words(*_PACK4.unpack(block)))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        return _PACK4.pack(*self._decrypt_words(*_PACK4.unpack(block)))

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """Encrypt a buffer of independent 16-byte blocks (ECB).

        The batch entry point every mode builds on: CTR hands it a run
        of counter blocks, lockstep CMAC one block per live chain.
        Below :data:`_SLICE_THRESHOLD` blocks each block runs through
        the word-oriented core; larger batches switch to the
        byte-sliced formulation, which carries the whole batch through
        each round in a fixed number of C-level operations.
        """
        n_blocks, remainder = divmod(len(blocks), BLOCK_SIZE)
        if remainder:
            raise CryptoError(
                f"block buffer must be a multiple of 16 bytes, "
                f"got {len(blocks)}")
        if n_blocks >= _SLICE_THRESHOLD:
            return self._encrypt_sliced(blocks, n_blocks)
        out = bytearray(len(blocks))
        pack_into = _PACK4.pack_into
        unpack_from = _PACK4.unpack_from
        encrypt = self._encrypt_words
        for offset in range(0, len(blocks), BLOCK_SIZE):
            pack_into(out, offset, *encrypt(*unpack_from(blocks, offset)))
        return bytes(out)

    def ctr_keystream(self, counter: int, n_blocks: int) -> bytes:
        """``E_K(c) || E_K(c+1) || ...`` for a 128-bit integer counter.

        The CTR mode's whole keystream in one call: build the counter
        blocks (plain integer addition mod 2^128), then encrypt them
        with :meth:`encrypt_blocks`.
        """
        return self.encrypt_blocks(counter_blocks(counter, n_blocks))

    def _slice_constants(self, n: int) -> tuple:
        """Round keys and masks for a sliced batch of ``n`` blocks.

        Each round key becomes one integer with every layout row's key
        byte repeated ``n`` times; the masks serve the rotations and
        the bitwise ``xtime``. The last width's constants are kept, so
        the block steps of a lockstep CMAC build them once.
        """
        width, consts = self._slice_consts
        if width == n:
            return consts
        from_b = int.from_bytes
        size = BLOCK_SIZE * n
        # Translating a buffer of layout-row indices through a table
        # whose entry ``p`` is row ``p``'s key byte spreads the round
        # key across the batch.
        rows = b"".join([bytes((p,)) * n for p in range(16)])
        consts = ([from_b(rows.translate(key + _TABLE_PAD), "big")
                   for key in self._rk_rows],
                  (1 << (8 * size)) - 1,
                  from_b(b"\x7f" * size, "big"),
                  from_b(b"\x01" * size, "big"))
        self._slice_consts = (n, consts)
        return consts

    def _encrypt_sliced(self, blocks: bytes, n: int) -> bytes:
        """Byte-sliced encryption of ``n`` blocks.

        The state is one big integer of sixteen layout rows
        (:data:`_LAYOUT_Q`), each row packing one state byte of every
        block. Per round, ShiftRows is seven slices
        (:data:`_SHIFT_ROWS_RUNS`) and SubBytes one ``bytes.translate``.
        MixColumns works on whole rows: with ``x`` the substituted
        state, ``t = x ^ rot1(x)`` and ``a = t ^ rot2(t)`` (the XOR of
        each column), the mixed byte ``2a0 ^ 3a1 ^ a2 ^ a3`` is
        ``xtime(t) ^ x ^ a``. Rotations, ``xtime`` and AddRoundKey are
        big-integer shifts, masks and XORs, so every per-byte step runs
        in C across the whole batch.
        """
        round_keys, mask, low7, low1 = self._slice_constants(n)
        from_b = int.from_bytes
        size = BLOCK_SIZE * n
        bits = 8 * size
        # rot1 / rot2 move one / two state rows: 4 / 8 layout rows.
        rot1, rot2 = 32 * n, 64 * n
        runs = [(start * n, stop * n) for start, stop in _SHIFT_ROWS_RUNS]
        sbox = _SBOX
        state = from_b(b"".join([blocks[q::16] for q in _LAYOUT_Q]),
                       "big") ^ round_keys[0]
        for r in range(1, self._rounds):
            b = state.to_bytes(size, "big")
            x = from_b(b"".join([b[i:j] for i, j in runs])
                       .translate(sbox), "big")
            t = x ^ (((x << rot1) & mask) | (x >> (bits - rot1)))
            state = (x ^ t
                     ^ (((t << rot2) & mask) | (t >> (bits - rot2)))
                     ^ ((t & low7) << 1) ^ (((t >> 7) & low1) * 0x1B)
                     ^ round_keys[r])
        # Final round: SubBytes + ShiftRows, no MixColumns.
        b = state.to_bytes(size, "big")
        last = (from_b(b"".join([b[i:j] for i, j in runs])
                       .translate(sbox), "big")
                ^ round_keys[self._rounds]).to_bytes(size, "big")
        out = bytearray(size)
        for p, q in enumerate(_LAYOUT_Q):
            out[q::16] = last[p * n:(p + 1) * n]
        return bytes(out)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise CryptoError("xor_bytes requires equal-length inputs")
    return (int.from_bytes(a, "big")
            ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")
