"""Schoolbook AES and CBC: the byte-oriented reference for the differential tests.

This is the byte-at-a-time cipher ``repro.crypto.aes`` used before it
became table-driven: S-box substitution, row shifts, GF(2^8) column
mixing recomputed bit by bit, and the FIPS-197 inverse cipher.  It is
slow (about 0.1 ms to encrypt and 0.8 ms to decrypt an AES-256 block)
and kept only so the tests can require the table-driven cipher to agree
with it on every key size.
"""

from __future__ import annotations

from repro.crypto.aes import BLOCK_SIZE, INV_SBOX, SBOX
from repro.crypto.cbc import pkcs7_pad, pkcs7_unpad

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication (schoolbook)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


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
        self._round_keys = self._expand_key(self.key)

    # ------------------------------------------------------------------
    # Key schedule
    # ------------------------------------------------------------------
    def _expand_key(self, key: bytes) -> list[list[int]]:
        """Rijndael key schedule: one 16-byte round key per round + 1."""
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        rcon = 1
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            word = list(words[i - 1])
            if i % nk == 0:
                word = word[1:] + word[:1]  # RotWord
                word = [SBOX[b] for b in word]  # SubWord
                word[0] ^= rcon
                rcon = _xtime(rcon)
            elif nk > 6 and i % nk == 4:
                word = [SBOX[b] for b in word]
            words.append([w ^ p for w, p in zip(word, words[i - nk])])
        return [
            [b for word in words[4 * r : 4 * r + 4] for b in word]
            for r in range(self.rounds + 1)
        ]

    # ------------------------------------------------------------------
    # Round operations (state is a flat 16-byte column-major list)
    # ------------------------------------------------------------------
    @staticmethod
    def _shift_rows(state: list[int]) -> list[int]:
        return [
            state[0], state[5], state[10], state[15],
            state[4], state[9], state[14], state[3],
            state[8], state[13], state[2], state[7],
            state[12], state[1], state[6], state[11],
        ]

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> list[int]:
        return [
            state[0], state[13], state[10], state[7],
            state[4], state[1], state[14], state[11],
            state[8], state[5], state[2], state[15],
            state[12], state[9], state[6], state[3],
        ]

    @staticmethod
    def _mix_columns(state: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            out[4 * c + 0] = _xtime(a0) ^ (_xtime(a1) ^ a1) ^ a2 ^ a3
            out[4 * c + 1] = a0 ^ _xtime(a1) ^ (_xtime(a2) ^ a2) ^ a3
            out[4 * c + 2] = a0 ^ a1 ^ _xtime(a2) ^ (_xtime(a3) ^ a3)
            out[4 * c + 3] = (_xtime(a0) ^ a0) ^ a1 ^ a2 ^ _xtime(a3)
        return out

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            out[4 * c + 0] = _gmul(a0, 14) ^ _gmul(a1, 11) ^ _gmul(a2, 13) ^ _gmul(a3, 9)
            out[4 * c + 1] = _gmul(a0, 9) ^ _gmul(a1, 14) ^ _gmul(a2, 11) ^ _gmul(a3, 13)
            out[4 * c + 2] = _gmul(a0, 13) ^ _gmul(a1, 9) ^ _gmul(a2, 14) ^ _gmul(a3, 11)
            out[4 * c + 3] = _gmul(a0, 11) ^ _gmul(a1, 13) ^ _gmul(a2, 9) ^ _gmul(a3, 14)
        return out

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes")
        state = [b ^ k for b, k in zip(block, self._round_keys[0])]
        for rnd in range(1, self.rounds):
            state = [SBOX[b] for b in state]
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = [b ^ k for b, k in zip(state, self._round_keys[rnd])]
        state = [SBOX[b] for b in state]
        state = self._shift_rows(state)
        state = [b ^ k for b, k in zip(state, self._round_keys[self.rounds])]
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes")
        state = [b ^ k for b, k in zip(block, self._round_keys[self.rounds])]
        state = self._inv_shift_rows(state)
        state = [INV_SBOX[b] for b in state]
        for rnd in range(self.rounds - 1, 0, -1):
            state = [b ^ k for b, k in zip(state, self._round_keys[rnd])]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [INV_SBOX[b] for b in state]
        state = [b ^ k for b, k in zip(state, self._round_keys[0])]
        return bytes(state)


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """PKCS#7-pad and CBC-encrypt block by block with :class:`AES`."""
    cipher = AES(key)
    data = pkcs7_pad(plaintext)
    out = bytearray()
    previous = iv
    for offset in range(0, len(data), BLOCK_SIZE):
        block = bytes(a ^ b for a, b in zip(data[offset : offset + BLOCK_SIZE], previous))
        previous = cipher.encrypt_block(block)
        out.extend(previous)
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt block by block with :class:`AES` and strip PKCS#7."""
    cipher = AES(key)
    out = bytearray()
    previous = iv
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[offset : offset + BLOCK_SIZE]
        out.extend(a ^ b for a, b in zip(cipher.decrypt_block(block), previous))
        previous = block
    return pkcs7_unpad(bytes(out))
