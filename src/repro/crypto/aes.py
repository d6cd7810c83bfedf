"""The AES block cipher (FIPS-197), pure Python, table-driven.

The state is four big-endian 32-bit column words.  Each inner round is
the standard T-table form: sixteen lookups in ``Te0..Te3`` (decryption:
``Td0..Td3``), which fold SubBytes, ShiftRows and MixColumns into one
256-entry word table per row, XORed with four round-key words.  The
final round substitutes from ``SBOX``/``INV_SBOX`` directly.
Decryption is FIPS-197 §5.3.5's equivalent inverse cipher, so its
round keys carry InvMixColumns, folded in once per key.

Every table is built at import from the GF(2^8) exp/log tables; both key
schedules are built once per :class:`AES`.  128-, 192- and 256-bit keys
are supported.  :meth:`AES.encrypt_words`/:meth:`AES.decrypt_words` are
the one round implementation: the block methods and the CBC loop in
:mod:`repro.crypto.cbc` both run them.
"""

from __future__ import annotations

import struct

BLOCK_SIZE = 16

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}

#: Key-schedule round constants x^(i-1) in GF(2^8) (FIPS-197 §5.2).
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

_BLOCK = struct.Struct(">4I")

_Tables = tuple[tuple[int, ...], ...]


def _build_tables() -> tuple[bytes, bytes, _Tables, _Tables]:
    """Construct the S-box, its inverse, ``Te0..Te3`` and ``Td0..Td3``.

    ``Te0[x]`` is the MixColumns column of ``S[x]`` (2·S ‖ S ‖ S ‖ 3·S);
    ``Td0[x]`` is the InvMixColumns column of ``S⁻¹[x]``
    (14·S⁻¹ ‖ 9·S⁻¹ ‖ 13·S⁻¹ ‖ 11·S⁻¹).
    """
    # Multiplicative inverses in GF(2^8) via exp/log tables (generator 3).
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]] if a and b else 0

    sbox = bytearray(256)
    inv = bytearray(256)
    for value in range(256):
        g_inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation.
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((g_inv << shift) | (g_inv >> (8 - shift))) & 0xFF
            result ^= rotated
        sbox[value] = result
        inv[result] = value
    te0 = [mul(s, 2) << 24 | s << 16 | s << 8 | mul(s, 3) for s in sbox]
    td0 = [mul(s, 14) << 24 | mul(s, 9) << 16 | mul(s, 13) << 8 | mul(s, 11) for s in inv]
    return bytes(sbox), bytes(inv), _rotations(te0), _rotations(td0)


def _rotations(table0: list[int]) -> _Tables:
    """``T0..T3``: ``T(r+1)`` is ``Tr`` rotated right by one byte."""
    tables = [tuple(table0)]
    for _ in range(3):
        tables.append(tuple((w >> 8) | (w & 0xFF) << 24 for w in tables[-1]))
    return tuple(tables)


SBOX, INV_SBOX, (Te0, Te1, Te2, Te3), (Td0, Td1, Td2, Td3) = _build_tables()


def _sub_word(w: int) -> int:
    """SubWord: the S-box applied to each byte of a word."""
    return (
        SBOX[w >> 24] << 24
        | SBOX[w >> 16 & 0xFF] << 16
        | SBOX[w >> 8 & 0xFF] << 8
        | SBOX[w & 0xFF]
    )


def _inv_mix_word(w: int) -> int:
    """InvMixColumns of one column word (``Td`` undoes the S-box it looks up)."""
    return (
        Td0[SBOX[w >> 24]]
        ^ Td1[SBOX[w >> 16 & 0xFF]]
        ^ Td2[SBOX[w >> 8 & 0xFF]]
        ^ Td3[SBOX[w & 0xFF]]
    )


class AES:
    """AES block cipher with a fixed key.

    Args:
        key: 16, 24 or 32 bytes (AES-128/192/256).
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS_BY_KEYLEN:
            raise ValueError(f"key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = _ROUNDS_BY_KEYLEN[len(key)]
        words = self._expand_key(self.key)
        enc = [tuple(words[4 * r : 4 * r + 4]) for r in range(self.rounds + 1)]
        # Equivalent inverse cipher: round keys in reverse order, with
        # InvMixColumns applied to every one but the first and last.
        dec = [enc[self.rounds]]
        dec += [tuple(_inv_mix_word(w) for w in rk) for rk in reversed(enc[1:-1])]
        dec.append(enc[0])
        self._enc_keys = enc
        self._dec_keys = dec

    def _expand_key(self, key: bytes) -> list[int]:
        """Rijndael key schedule: 4 × (rounds + 1) big-endian words."""
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, 4 * (self.rounds + 1)):
            word = words[i - 1]
            if i % nk == 0:
                word = (word << 8 & 0xFFFFFFFF) | word >> 24  # RotWord
                word = _sub_word(word) ^ _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                word = _sub_word(word)
            words.append(words[i - nk] ^ word)
        return words

    # ------------------------------------------------------------------
    # Rounds on the four column words
    # ------------------------------------------------------------------
    def encrypt_words(self, s0: int, s1: int, s2: int, s3: int) -> tuple[int, int, int, int]:
        """Encrypt one block given as four big-endian column words."""
        te0, te1, te2, te3, sbox = Te0, Te1, Te2, Te3, SBOX
        keys = self._enc_keys
        k0, k1, k2, k3 = keys[0]
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3 in keys[1:-1]:
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[s1 >> 16 & 255] ^ te2[s2 >> 8 & 255] ^ te3[s3 & 255] ^ k0,
                te0[s1 >> 24] ^ te1[s2 >> 16 & 255] ^ te2[s3 >> 8 & 255] ^ te3[s0 & 255] ^ k1,
                te0[s2 >> 24] ^ te1[s3 >> 16 & 255] ^ te2[s0 >> 8 & 255] ^ te3[s1 & 255] ^ k2,
                te0[s3 >> 24] ^ te1[s0 >> 16 & 255] ^ te2[s1 >> 8 & 255] ^ te3[s2 & 255] ^ k3,
            )
        k0, k1, k2, k3 = keys[-1]
        return (
            (sbox[s0 >> 24] << 24 | sbox[s1 >> 16 & 255] << 16
             | sbox[s2 >> 8 & 255] << 8 | sbox[s3 & 255]) ^ k0,
            (sbox[s1 >> 24] << 24 | sbox[s2 >> 16 & 255] << 16
             | sbox[s3 >> 8 & 255] << 8 | sbox[s0 & 255]) ^ k1,
            (sbox[s2 >> 24] << 24 | sbox[s3 >> 16 & 255] << 16
             | sbox[s0 >> 8 & 255] << 8 | sbox[s1 & 255]) ^ k2,
            (sbox[s3 >> 24] << 24 | sbox[s0 >> 16 & 255] << 16
             | sbox[s1 >> 8 & 255] << 8 | sbox[s2 & 255]) ^ k3,
        )

    def decrypt_words(self, s0: int, s1: int, s2: int, s3: int) -> tuple[int, int, int, int]:
        """Decrypt one block given as four big-endian column words."""
        td0, td1, td2, td3, inv = Td0, Td1, Td2, Td3, INV_SBOX
        keys = self._dec_keys
        k0, k1, k2, k3 = keys[0]
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3 in keys[1:-1]:
            s0, s1, s2, s3 = (
                td0[s0 >> 24] ^ td1[s3 >> 16 & 255] ^ td2[s2 >> 8 & 255] ^ td3[s1 & 255] ^ k0,
                td0[s1 >> 24] ^ td1[s0 >> 16 & 255] ^ td2[s3 >> 8 & 255] ^ td3[s2 & 255] ^ k1,
                td0[s2 >> 24] ^ td1[s1 >> 16 & 255] ^ td2[s0 >> 8 & 255] ^ td3[s3 & 255] ^ k2,
                td0[s3 >> 24] ^ td1[s2 >> 16 & 255] ^ td2[s1 >> 8 & 255] ^ td3[s0 & 255] ^ k3,
            )
        k0, k1, k2, k3 = keys[-1]
        return (
            (inv[s0 >> 24] << 24 | inv[s3 >> 16 & 255] << 16
             | inv[s2 >> 8 & 255] << 8 | inv[s1 & 255]) ^ k0,
            (inv[s1 >> 24] << 24 | inv[s0 >> 16 & 255] << 16
             | inv[s3 >> 8 & 255] << 8 | inv[s2 & 255]) ^ k1,
            (inv[s2 >> 24] << 24 | inv[s1 >> 16 & 255] << 16
             | inv[s0 >> 8 & 255] << 8 | inv[s3 & 255]) ^ k2,
            (inv[s3 >> 24] << 24 | inv[s2 >> 16 & 255] << 16
             | inv[s1 >> 8 & 255] << 8 | inv[s0 & 255]) ^ k3,
        )

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes")
        return _BLOCK.pack(*self.encrypt_words(*_BLOCK.unpack(block)))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes")
        return _BLOCK.pack(*self.decrypt_words(*_BLOCK.unpack(block)))
